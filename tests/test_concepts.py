"""Description-logic expressions: parsing, printing, evaluation, distances.

Bitmask evaluation is cross-checked against an independent set-semantics
evaluator (`oracles.naive_eval_state`) over real reachable states.
"""

import pytest

import domains
import oracles
from genpol import concepts as co
from genpol import features, pddl, space
from genpol.concepts import (And, Bot, ClosureRole, Exists, Forall, GoalConcept,
                             GoalRole, InverseRole, Nominal, Not,
                             PrimitiveConcept, PrimitiveRole, RoleEqual, Top,
                             TypeConcept)
from genpol.errors import GenpolError


def _space(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    gp = pddl.ground(dom, inst)
    return gp, space.expand(gp)


def _mask_to_names(mask, ictx):
    return {ictx.objects[i] for i in range(ictx.n) if mask >> i & 1}


def _rows_to_pairs(rows, ictx):
    return {(ictx.objects[i], ictx.objects[j])
            for i, row in enumerate(rows)
            for j in range(ictx.n) if row >> j & 1}


GRIPPER_CONCEPTS = [
    PrimitiveConcept("at-robby"),
    PrimitiveConcept("free"),
    TypeConcept("ball"),
    TypeConcept("room"),
    Not(PrimitiveConcept("free")),
    Exists(PrimitiveRole("at"), Top()),
    Exists(GoalRole("at"), Top()),
    Exists(PrimitiveRole("carry"), Top()),
    Exists(InverseRole(PrimitiveRole("at")), Top()),
    Forall(GoalRole("at"), PrimitiveConcept("at-robby")),
    And(TypeConcept("ball"), Not(Exists(PrimitiveRole("carry"), Top()))),
    RoleEqual(PrimitiveRole("at"), GoalRole("at")),
    Not(RoleEqual(PrimitiveRole("at"), GoalRole("at"))),
    GoalConcept("at-robby"),
]

BLOCKS_CONCEPTS = [
    PrimitiveConcept("clear"),
    PrimitiveConcept("holding"),
    PrimitiveConcept("on-table"),
    Nominal("goal0"),
    And(Nominal("goal0"), PrimitiveConcept("clear")),
    Exists(PrimitiveRole("on"), Top()),
    Exists(ClosureRole(PrimitiveRole("on")), Nominal("goal0")),
    Exists(ClosureRole(InverseRole(PrimitiveRole("on"))), Top()),
    Forall(InverseRole(PrimitiveRole("on")), Bot()),
    Not(Exists(PrimitiveRole("on"), PrimitiveConcept("on-table"))),
]

VISITALL_CONCEPTS = [
    PrimitiveConcept("at-robot"),
    PrimitiveConcept("visited"),
    Not(PrimitiveConcept("visited")),
    GoalConcept("visited"),
    TypeConcept("place"),
    Exists(PrimitiveRole("connected"), Not(PrimitiveConcept("visited"))),
    Forall(PrimitiveRole("connected"), PrimitiveConcept("visited")),
    Exists(ClosureRole(PrimitiveRole("connected")), PrimitiveConcept("at-robot")),
]


@pytest.mark.parametrize("domain_text,instance_text,goal_params,exprs", [
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(3, seed=11), (),
     GRIPPER_CONCEPTS),
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",),
     BLOCKS_CONCEPTS),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 3, (0, 0)), (),
     VISITALL_CONCEPTS),
], ids=["gripper", "blocks", "visitall"])
def test_concept_evaluation_matches_set_semantics(domain_text, instance_text,
                                                  goal_params, exprs):
    gp, sp = _space(domain_text, instance_text, goal_params)
    ictx = co.InstanceContext(gp)
    checked = 0
    for sid in range(0, sp.n_states, 7):
        ctx = co.state_context(ictx, sp.states[sid])
        for expr in exprs:
            got = _mask_to_names(co.eval_concept(expr, ctx), ictx)
            want = oracles.naive_eval_state(expr, gp, sp.states[sid])
            assert got == want, (co.render(expr), sid, got, want)
            checked += 1
    assert checked > 50


def test_role_evaluation_matches_set_semantics():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                    ("b1",))
    ictx = co.InstanceContext(gp)
    roles = [
        PrimitiveRole("on"),
        GoalRole("on"),
        InverseRole(PrimitiveRole("on")),
        ClosureRole(PrimitiveRole("on")),
        ClosureRole(InverseRole(PrimitiveRole("on"))),
        InverseRole(ClosureRole(PrimitiveRole("on"))),
    ]
    for sid in range(0, sp.n_states, 5):
        ctx = co.state_context(ictx, sp.states[sid])
        for role in roles:
            got = _rows_to_pairs(co.eval_role(role, ctx), ictx)
            want = oracles.naive_eval_state(role, gp, sp.states[sid])
            assert got == want, (co.render(role), sid)


def test_goal_denotations_are_state_independent():
    gp, sp = _space(domains.GRIPPER_DOMAIN, domains.gripper_instance(3, seed=2))
    ictx = co.InstanceContext(gp)
    expr = Exists(GoalRole("at"), Top())
    values = {co.eval_concept(expr, co.state_context(ictx, sp.states[sid]))
              for sid in range(sp.n_states)}
    assert len(values) == 1


def test_distance_matches_naive_bfs():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                    ("b1",))
    ictx = co.InstanceContext(gp)
    combos = [
        (Nominal("goal0"), PrimitiveRole("on"), Top(), PrimitiveConcept("on-table")),
        (Nominal("goal0"), InverseRole(PrimitiveRole("on")), Top(),
         PrimitiveConcept("clear")),
        (PrimitiveConcept("holding"), PrimitiveRole("on"), Top(),
         PrimitiveConcept("on-table")),
        (PrimitiveConcept("clear"), InverseRole(PrimitiveRole("on")),
         Not(Nominal("goal0")), PrimitiveConcept("on-table")),
    ]
    checked = 0
    for sid in range(0, sp.n_states, 11):
        state = sp.states[sid]
        ctx = co.state_context(ictx, state)
        for source, role, restrict, target in combos:
            got = co.bfs_distance(co.eval_concept(source, ctx),
                                  co.eval_role(role, ctx),
                                  co.eval_concept(restrict, ctx),
                                  co.eval_concept(target, ctx), ictx.n)
            want = oracles.naive_distance(gp, state, source, role, restrict,
                                          target)
            assert got == want, (sid, co.render(source), got, want)
            checked += 1
    assert checked > 50


def test_distance_conventions():
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, sp.states[0])
    robot = co.eval_concept(PrimitiveConcept("at-robot"), ctx)
    conn = co.eval_role(PrimitiveRole("connected"), ctx)
    n = ictx.n
    # Source intersects target: distance zero.
    assert co.bfs_distance(robot, conn, ictx.universe, robot, n) == 0
    # Empty source or target: sentinel n + 1.
    assert co.bfs_distance(0, conn, ictx.universe, robot, n) == n + 1
    assert co.bfs_distance(robot, conn, ictx.universe, 0, n) == n + 1
    # Unreachable because the restriction blocks every path.
    far = 1 << ictx.index["loc-2-1"]
    assert co.bfs_distance(robot, conn, robot, far, n) == n + 1


def test_distance_map_agrees_with_distance():
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    ictx = co.InstanceContext(gp)
    states = sp.states[::9]
    robot_c, conn_r = PrimitiveConcept("at-robot"), PrimitiveRole("connected")
    restrict_c = Not(PrimitiveConcept("visited"))
    batch = features.Batch([(ictx, states)])
    dmaps = batch.distance_map(batch.concept(robot_c), batch.role(conn_r),
                               batch.concept(restrict_c))
    assert dmaps.shape == (len(states), ictx.n)
    for dmap, state in zip(dmaps, states):
        ctx = co.state_context(ictx, state)
        robot = co.eval_concept(robot_c, ctx)
        conn = co.eval_role(conn_r, ctx)
        restrict = co.eval_concept(restrict_c, ctx)
        for obj_id in range(ictx.n):
            single = co.bfs_distance(robot, conn, restrict, 1 << obj_id, ictx.n)
            assert dmap[obj_id] == single


def test_render_parse_round_trip():
    exprs = (GRIPPER_CONCEPTS + BLOCKS_CONCEPTS + VISITALL_CONCEPTS)
    for expr in exprs:
        text = co.render(expr)
        assert co.parse_expression(text) == expr
    roles = [PrimitiveRole("on"), GoalRole("at"),
             InverseRole(ClosureRole(PrimitiveRole("on"))),
             ClosureRole(InverseRole(GoalRole("at")))]
    for role in roles:
        assert co.parse_role(co.render(role)) == role


def test_parse_rejects_malformed_expressions():
    for text in ["", "And(a)", "Foo(x)", "And(a,b", "Exists(on)",
                 "Nominal()", "Not()"]:
        with pytest.raises(co.ExpressionParseError):
            expr = co.parse_expression(text)
            if expr == Nominal("") or expr == PrimitiveConcept(""):
                raise co.ExpressionParseError("empty name")


def test_complexity_counts_syntax_nodes():
    assert co.complexity(Top()) == 1
    assert co.complexity(PrimitiveConcept("clear")) == 1
    assert co.complexity(Not(PrimitiveConcept("clear"))) == 2
    assert co.complexity(And(Top(), Bot())) == 3
    assert co.complexity(Exists(PrimitiveRole("on"), Top())) == 3
    assert co.complexity(Exists(ClosureRole(PrimitiveRole("on")),
                                Nominal("goal0"))) == 4
    assert co.complexity(RoleEqual(PrimitiveRole("at"), GoalRole("at"))) == 3
    assert co.complexity(
        Forall(InverseRole(PrimitiveRole("on")),
               And(PrimitiveConcept("clear"), Not(Top())))) == 7


def test_unknown_names_raise():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                    ("b1",))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, sp.states[0])
    with pytest.raises(GenpolError):
        co.eval_concept(PrimitiveConcept("nonsense"), ctx)
    with pytest.raises(GenpolError):
        co.eval_role(PrimitiveRole("nonsense"), ctx)
    with pytest.raises(GenpolError):
        co.eval_concept(Nominal("b1"), ctx)  # not a constant or goal position
    with pytest.raises(GenpolError):
        co.eval_concept(TypeConcept("widget"), ctx)


def test_goal_role_of_unmentioned_predicate_is_empty():
    # A binary predicate absent from the goal has an empty goal denotation,
    # not an error, as long as the predicate itself exists.
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, sp.states[0])
    assert co.eval_role(GoalRole("connected"), ctx) == (0,) * ictx.n
    with pytest.raises(GenpolError):
        co.eval_role(GoalRole("nonsense"), ctx)


def test_evaluation_is_memoized_per_state():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                    ("b1",))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, sp.states[0])
    expr = Exists(ClosureRole(PrimitiveRole("on")), Nominal("goal0"))
    first = co.eval_concept(expr, ctx)
    assert expr in ctx.memo
    assert co.eval_concept(expr, ctx) == first
