"""Description-logic expressions: parsing, printing, evaluation, distances.

Evaluation over all reachable states at once (`concepts.state_context`) is
cross-checked state by state against an independent set-semantics
evaluator (`oracles.naive_eval_state`, `oracles.naive_distance`).
"""

import numpy as np
import pytest

import domains
import oracles
from genpol import concepts as co
from genpol import pddl, space
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


def _context(gp, sp):
    ictx = co.InstanceContext(gp)
    return ictx, co.state_context([(ictx, sp.states)])


def _names(bits, ictx):
    """bool [n] -> object names."""
    return {ictx.objects[i] for i in np.flatnonzero(bits)}


def _pairs(bits, ictx):
    """bool [n, n] -> object name pairs."""
    return {(ictx.objects[i], ictx.objects[j]) for i, j in zip(*np.nonzero(bits))}


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
    ictx, ctx = _context(gp, sp)
    states = oracles.state_sets(sp)
    for expr in exprs:
        col = ctx.concept(expr)
        assert col.shape == (sp.n_states, ictx.words) and col.dtype == np.uint64
        for sid, bits in enumerate(ctx.members(col)):
            want = oracles.naive_eval_state(expr, gp, states[sid])
            assert _names(bits, ictx) == want, (co.render(expr), sid)


def test_role_evaluation_matches_set_semantics():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                    ("b1",))
    ictx, ctx = _context(gp, sp)
    roles = [
        PrimitiveRole("on"),
        GoalRole("on"),
        InverseRole(PrimitiveRole("on")),
        ClosureRole(PrimitiveRole("on")),
        ClosureRole(InverseRole(PrimitiveRole("on"))),
        InverseRole(ClosureRole(PrimitiveRole("on"))),
    ]
    states = oracles.state_sets(sp)
    for role in roles:
        rows = ctx.role(role)
        assert rows.shape == (sp.n_states, ictx.n, ictx.words)
        for sid, bits in enumerate(ctx.members(rows)):
            want = oracles.naive_eval_state(role, gp, states[sid])
            assert _pairs(bits, ictx) == want, (co.render(role), sid)


def test_goal_denotations_are_state_independent():
    gp, sp = _space(domains.GRIPPER_DOMAIN, domains.gripper_instance(3, seed=2))
    _, ctx = _context(gp, sp)
    col = ctx.concept(Exists(GoalRole("at"), Top()))
    assert col.any() and (col == col[0]).all()


DISTANCES = [
    (Nominal("goal0"), PrimitiveRole("on"), Top(), PrimitiveConcept("on-table")),
    (Nominal("goal0"), InverseRole(PrimitiveRole("on")), Top(),
     PrimitiveConcept("clear")),
    (PrimitiveConcept("holding"), PrimitiveRole("on"), Top(),
     PrimitiveConcept("on-table")),
    (PrimitiveConcept("clear"), InverseRole(PrimitiveRole("on")),
     Not(Nominal("goal0")), PrimitiveConcept("on-table")),
]


def test_distance_matches_naive_bfs():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                    ("b1",))
    _, ctx = _context(gp, sp)
    states = oracles.state_sets(sp)
    for source, role, restrict, target in DISTANCES:
        dmap = ctx.distance_map(ctx.concept(source), ctx.role(role),
                                ctx.concept(restrict))
        got = ctx.min_distance(dmap, ctx.concept(target))
        want = [oracles.naive_distance(gp, state, source, role, restrict, target)
                for state in states]
        assert got.tolist() == want, co.render(source)


def test_distance_conventions():
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context([(ictx, sp.states[:1])])
    robot = ctx.concept(PrimitiveConcept("at-robot"))
    conn = ctx.role(PrimitiveRole("connected"))
    top, empty = ctx.universe, np.zeros_like(robot)
    n = ictx.n

    def dist(source, restrict, target):
        dmap = ctx.distance_map(source, conn, restrict)
        return int(ctx.min_distance(dmap, target)[0])

    # Source intersects target: distance zero.
    assert dist(robot, top, robot) == 0
    # Empty source or target: sentinel n + 1.
    assert dist(empty, top, robot) == n + 1
    assert dist(robot, top, empty) == n + 1
    # Unreachable because the restriction blocks every path.
    far = co.pack(np.arange(n) == ictx.index["loc-2-1"], ictx.words)[None]
    assert dist(robot, top, far) == 3
    assert dist(robot, robot, far) == n + 1


def test_distance_map_agrees_with_distance():
    # The minimum of one map over any target set is that set's distance.
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    ictx, ctx = _context(gp, sp)
    robot, conn = PrimitiveConcept("at-robot"), PrimitiveRole("connected")
    restrict = Not(PrimitiveConcept("visited"))
    dmap = ctx.distance_map(ctx.concept(robot), ctx.role(conn),
                            ctx.concept(restrict))
    assert dmap.shape == (sp.n_states, ictx.n)
    for target in (Top(), Bot(), robot, PrimitiveConcept("visited"), restrict,
                   Exists(conn, robot)):
        want = [oracles.naive_distance(gp, state, robot, conn, restrict, target)
                for state in oracles.state_sets(sp)]
        assert ctx.min_distance(dmap, ctx.concept(target)).tolist() == want


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
    _, ctx = _context(gp, sp)
    with pytest.raises(GenpolError):
        ctx.concept(PrimitiveConcept("nonsense"))
    with pytest.raises(GenpolError):
        ctx.role(PrimitiveRole("nonsense"))
    with pytest.raises(GenpolError):
        ctx.concept(Nominal("b1"))  # not a constant or goal position
    with pytest.raises(GenpolError):
        ctx.concept(TypeConcept("widget"))


def test_goal_role_of_unmentioned_predicate_is_empty():
    # A binary predicate absent from the goal has an empty goal denotation,
    # not an error, as long as the predicate itself exists.
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)))
    ictx, ctx = _context(gp, sp)
    rows = ctx.role(GoalRole("connected"))
    assert rows.shape == (sp.n_states, ictx.n, ictx.words) and not rows.any()
    with pytest.raises(GenpolError):
        ctx.role(GoalRole("nonsense"))


def test_evaluation_is_memoized_per_state():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                    ("b1",))
    _, ctx = _context(gp, sp)
    expr = Exists(ClosureRole(PrimitiveRole("on")), Nominal("goal0"))
    first = ctx.concept(expr)
    assert expr in ctx.memo and ClosureRole(PrimitiveRole("on")) in ctx.memo
    assert ctx.concept(expr) is first
