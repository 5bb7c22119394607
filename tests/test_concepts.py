"""Description-logic expressions: parsing, printing, evaluation, distances.

Evaluation over all reachable states at once (`concepts.state_context`) is
cross-checked state by state against an independent set-semantics
evaluator (`oracles.naive_eval_state`, `oracles.naive_distance`).
"""

import dataclasses
import random

import numpy as np
import pytest

import domains
import oracles
from genpol import concepts as co
from genpol import features, pddl, policy, space
from genpol.concepts import (And, Bot, ClosureRole, Exists, Forall, GoalConcept,
                             GoalRole, InverseRole, Nominal, Not,
                             PrimitiveConcept, PrimitiveRole, RoleEqual, Top,
                             TypeConcept)
from genpol.errors import GenpolError, PolicyError


def _space(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    gp = pddl.ground(dom, inst)
    return gp, space.expand(gp)


def _context(gp, sp):
    ictx = co.InstanceContext(gp)
    return ictx, co.state_context(ictx, sp.states)


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


@pytest.mark.parametrize("width", [3, 8, 16])
def test_inverse_of_a_static_role_in_one_state(width):
    # One state of a whole number of words of objects (64 at width 8): the
    # transposed members of a broadcast static role pack to a row that a
    # uint64 view rejected.
    dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        domains.visitall_instance(width, 8, (0, 0)), dom))
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, gp.init[None])
    role = InverseRole(PrimitiveRole("connected"))
    want = oracles.naive_eval_state(role, gp, oracles.unpacker(gp)(gp.init))
    assert _pairs(ctx.members(ctx.role(role))[0], ictx) == want


@pytest.mark.parametrize("n_blocks", [5, 63, 64, 65, 70, 130])
def test_closure_matches_set_semantics_when_objects_lack_predecessors(n_blocks):
    # The closure passes only over objects that some row of the base role
    # holds in some state: nothing is on the top block, and the bottom
    # block is on nothing.  The states run from two blocks put down back to
    # the initial tower, so the first state alone lacks some entered
    # objects.  63, 64 and 65 blocks put the top of the tower on either
    # side of bit 63 and of the word boundary, and 70 and 130 blocks take
    # two and three words.
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        domains.clear_tower_instance(n_blocks), dom, ["b1"]))
    top, below, second = (f"b{n_blocks - i}" for i in range(3))
    rows = [gp.init]
    for action in (f"unstack({top},{below})", f"putdown({top})",
                   f"unstack({below},{second})", f"putdown({below})"):
        rows.append(gp.apply(rows[-1], gp.actions.index(action)))
    rows = np.array(rows[::-1])
    ictx = co.InstanceContext(gp)
    ctx = co.state_context(ictx, rows)
    states = list(map(oracles.unpacker(gp), rows))
    for base in (PrimitiveRole("on"), InverseRole(PrimitiveRole("on"))):
        assert not ctx.members(ctx.role(base)).any(axis=(0, 1)).all()
        for role in (ClosureRole(base), InverseRole(ClosureRole(base))):
            for sid, bits in enumerate(ctx.members(ctx.role(role))):
                want = oracles.naive_eval_state(role, gp, states[sid])
                assert _pairs(bits, ictx) == want, (co.render(role), sid)


def test_closure_kernels_match_set_semantics_on_a_ring():
    # `link` gains any edge of the static ring `next` (o0 -> o1 -> ... ->
    # o0) and the edge o0 -> o2 of the static `also`.  A state is functional
    # unless it holds both o0 -> o1 and o0 -> o2, and the state with every
    # ring edge is a cycle.  The closure is checked over all states, a mixed
    # block, over the functional states only, and over the initial state,
    # which has no link, an empty role.
    gp, sp = _space(domains.RING_DOMAIN, domains.ring_instance(5))
    states = oracles.state_sets(sp)
    ictx, ctx = _context(gp, sp)
    link = PrimitiveRole("link")
    fork = ctx.members(ctx.role(link))[:, 0].sum(axis=-1) > 1
    assert fork.any() and not fork.all()
    assert not oracles.functional(ctx.role(link))
    ring = frozenset(gp.atoms.index(("link", f"o{i}", f"o{(i + 1) % 5}")) for i in range(5))
    assert any(ring <= s for s, f in zip(states, fork) if not f)
    assert np.array_equal(sp.states[0], gp.init) and not ctx.role(link)[0].any()

    def check(ctx, sids):
        for role in (ClosureRole(link), InverseRole(ClosureRole(link))):
            for bits, sid in zip(ctx.members(ctx.role(role)), sids):
                want = oracles.naive_eval_state(role, gp, states[sid])
                assert _pairs(bits, ictx) == want, (co.render(role), sid)

    check(ctx, range(sp.n_states))
    sids = np.flatnonzero(~fork)
    ctx = co.state_context(ictx, sp.states[sids])
    assert oracles.functional(ctx.role(link))
    check(ctx, sids)
    ctx = co.state_context(ictx, sp.states[:1])
    assert not ctx.role(ClosureRole(link)).any()


def test_closure_of_a_static_functional_role_leaves_its_base_alone():
    # The static ring `next` is a read-only view with stride 0 over the
    # states, in a context and in `InstanceContext.static`; its closure
    # relates every object to every object, itself included.
    gp, sp = _space(domains.RING_DOMAIN, domains.ring_instance(5))
    ictx, ctx = _context(gp, sp)
    ring = ctx.role(PrimitiveRole("next"))
    assert ring.strides[0] == 0 and not ring.flags.writeable
    before = ring[0].copy()
    closure = ClosureRole(PrimitiveRole("next"))
    want = oracles.naive_eval_state(closure, gp, oracles.state_sets(sp)[0])
    assert want == {(a, b) for a in ictx.objects for b in ictx.objects}
    for bits in (*ctx.members(ctx.role(closure)), co.unpack(ictx.static(closure), ictx.n)):
        assert _pairs(bits, ictx) == want
    assert np.array_equal(ring[0], before)


@pytest.mark.parametrize("words,functional", [
    ([[0]], True), ([[1 << 63]], True), ([[0b101]], False), ([[2**64 - 1]], False),
    ([[0, 0]], True), ([[0, 1 << 63]], True), ([[0, 1 << 5], [1, 0]], True),
    ([[1, 1]], False), ([[1 << 63, 0], [1, 1]], False),
])
def test_functional_rows_hold_at_most_one_bit(words, functional):
    # The test-side check by which the random walks of `test_batch` tell
    # the closures of functional roles from the others.
    assert oracles.functional(np.array(words, dtype=np.uint64)[None]) == functional


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
    ctx = co.state_context(ictx, sp.states[:1])
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
        assert co.parse(text, co.CONCEPT) == expr
    roles = [PrimitiveRole("on"), GoalRole("at"),
             InverseRole(ClosureRole(PrimitiveRole("on"))),
             ClosureRole(InverseRole(GoalRole("at")))]
    for role in roles:
        assert co.parse(co.render(role), co.ROLE) == role


def test_parse_rejects_malformed_expressions():
    # A name is non-empty and holds no whitespace, parenthesis or comma.
    for text in ["", "And(a)", "Foo(x)", "And(a,b", "Exists(on)",
                 "Nominal()", "Not()", "type()", "Not(x))", "And(a,b)c)", "x y",
                 "Exists(on x,Top)", "_g"]:
        with pytest.raises(co.ExpressionParseError):
            co.parse(text, co.CONCEPT)
    for text in ["", "on)", "a b_plus", "Nominal(b1)_inv", "_plus"]:
        with pytest.raises(co.ExpressionParseError):
            co.parse(text, co.ROLE)
    # A policy file with such a feature fails where it declares it.
    with pytest.raises(PolicyError, match="^line 2: bad feature: bad name: 'x\\)'$"):
        policy.parse_policy("# malformed\nfeature 0 1 bool Not(x))\nrule f0 -> !f0\n")


def test_every_expression_class_parses_back_from_its_form():
    # Every expression class of the module has a form in the table, and
    # random instances of it print to a text that parses back to them.
    classes = [c for c in vars(co).values() if isinstance(c, type)
               and dataclasses.is_dataclass(c) and c.__module__ == co.__name__]
    assert len(classes) == 15
    assert sorted(classes, key=str) == sorted(co.FORMS[co.CONCEPT] + co.FORMS[co.ROLE], key=str)
    rng = random.Random(3)
    vocab = ([Top(), PrimitiveConcept("clear"), GoalConcept("on-table"), TypeConcept("block"),
              Nominal("goal0")], [PrimitiveRole("on"), GoalRole("at")])
    make = {co.NAME: lambda: rng.choice(["clear", "at-robby", "b1", "room_a"]),
            co.CONCEPT: lambda: _random_concept(rng, vocab, 2),
            co.ROLE: lambda: _random_role(rng, vocab)}
    for cls in classes:
        sort = co.ROLE if cls in co.FORMS[co.ROLE] else co.CONCEPT
        for _ in range(5):
            expr = cls(*(make[kind]() for _, kind in cls.parts))
            assert co.parse(co.render(expr), sort) == expr, co.render(expr)
    # The feature classes state their forms in the same table, the bare
    # concept last; a feature's weight and kind are the other fields of its
    # line, and an atom is always bool, a distance always num.
    assert co.FORMS[co.FEATURE] == [features.NullaryFeature, features.DistanceFeature,
                                    features.CardinalityFeature]
    kinds = {features.NullaryFeature: [True], features.DistanceFeature: [False],
             features.CardinalityFeature: [False, True]}
    for cls in co.FORMS[co.FEATURE]:
        for boolean in kinds[cls]:
            kind = "bool" if boolean else "num"
            for i in range(5):
                feature = cls(*(make[k]() for _, k in cls.parts), rng.randint(1, 9), boolean)
                text = feature.render()
                assert text == co.render(feature)
                assert features.parse_feature(feature.weight, kind, text) == feature, text
                line = features.render_feature_line(i, feature)
                assert line == f"{i} {feature.weight} {kind} {text}"
                assert features.parse_feature_line(line, i) == feature, line


def test_complexity_counts_syntax_nodes():
    assert oracles.complexity(Top()) == 1
    assert oracles.complexity(PrimitiveConcept("clear")) == 1
    assert oracles.complexity(Not(PrimitiveConcept("clear"))) == 2
    assert oracles.complexity(And(Top(), Bot())) == 3
    assert oracles.complexity(Exists(PrimitiveRole("on"), Top())) == 3
    assert oracles.complexity(Exists(ClosureRole(PrimitiveRole("on")),
                                     Nominal("goal0"))) == 4
    assert oracles.complexity(RoleEqual(PrimitiveRole("at"), GoalRole("at"))) == 3
    assert oracles.complexity(
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


@pytest.mark.parametrize("n", [0, 1, 70])
def test_reduce_members_matches_a_loop(n):
    # Rows with no member are left out, in zero-width masks too.
    rng = np.random.default_rng(n)
    at = rng.random((40, n)) < 0.1
    at[::7] = False
    values = rng.integers(0, 2**63, (40, n, 2), dtype=np.uint64)
    for ufunc in (np.bitwise_or, np.minimum):
        rows, reduced = co._reduce_members(ufunc, at, values)
        want = [i for i in range(len(at)) if at[i].any()]
        assert rows.tolist() == want and reduced.shape == (len(want), 2)
        for i, got in zip(want, reduced):
            assert got.tolist() == ufunc.reduce(values[i][at[i]], axis=0).tolist()


def test_evaluation_is_memoized_per_state():
    gp, sp = _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                    ("b1",))
    _, ctx = _context(gp, sp)
    expr = Exists(ClosureRole(PrimitiveRole("on")), Nominal("goal0"))
    first = ctx.concept(expr)
    assert expr in ctx.memo and ClosureRole(PrimitiveRole("on")) in ctx.memo
    assert ctx.concept(expr) is first


# -- random expressions against the set semantics --------------------------------

def _vocabulary(gp, static_only=False):
    """(atomic concepts, atomic roles) of `gp`'s domain; with `static_only`,
    without the primitive ones of predicates some schema changes."""
    dom = gp.domain
    static = oracles.static_predicates(dom)
    keep = lambda p: not static_only or p in static
    unary = sorted(p.name for p in dom.predicates.values() if p.arity == 1)
    binary = sorted(p.name for p in dom.predicates.values() if p.arity == 2)
    concepts = ([Top(), Bot()] + [PrimitiveConcept(p) for p in unary if keep(p)]
                + [GoalConcept(p) for p in unary] + [TypeConcept(t) for t in sorted(dom.types)]
                + [Nominal(c) for c, _ in dom.constants]
                + [Nominal(f"goal{i}") for i in range(len(gp.instance.goal_params))])
    roles = [PrimitiveRole(p) for p in binary if keep(p)] + [GoalRole(p) for p in binary]
    return concepts, roles


def _random_role(rng, vocab):
    role = rng.choice(vocab[1])
    for ctor in rng.choice([(), (), (InverseRole,), (ClosureRole,),
                            (InverseRole, ClosureRole), (ClosureRole, InverseRole)]):
        role = ctor(role)
    return role


def _random_concept(rng, vocab, depth=3):
    """A seeded random concept over `vocab` of at most `depth` nested
    constructors."""
    kind = "atom" if depth == 0 else rng.choice(
        ["atom", "Not", "And", "Exists", "Forall", "Equal"])
    sub = lambda: _random_concept(rng, vocab, depth - 1)
    if kind == "Not":
        return Not(sub())
    if kind == "And":
        return And(sub(), sub())
    if kind in ("Exists", "Forall"):
        return (Exists if kind == "Exists" else Forall)(_random_role(rng, vocab), sub())
    if kind == "Equal":
        return RoleEqual(_random_role(rng, vocab), _random_role(rng, vocab))
    return rng.choice(vocab[0])


def _predicates_in(expr):
    """The predicate names of the primitive concepts and roles in `expr`."""
    if isinstance(expr, (PrimitiveConcept, PrimitiveRole)):
        return {expr.name}
    return set().union(*(_predicates_in(getattr(expr, f.name))
                         for f in dataclasses.fields(expr)
                         if dataclasses.is_dataclass(getattr(expr, f.name))))


def _reachable_rows(gp, levels):
    """Packed rows of the states at most `levels` steps from the initial one."""
    rows = gp.init[None]
    for _ in range(levels):
        _, _, nxt = gp.transitions(rows)
        rows = np.unique(np.vstack([rows, nxt]), axis=0)
    return rows


def _parts(case):
    """(ground problem, packed state rows) of each instance of a case."""
    if case == "two-sizes":
        # 6 and 72 objects: one and two words per set.
        dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
        small, big = (pddl.ground(dom, pddl.parse_instance(domains.visitall_instance(*size), dom))
                      for size in ((2, 3, (0, 0)), (9, 8, (4, 4))))
        return [(big, _reachable_rows(big, 2)), (small, space.expand(small).states)]
    if case == "roads-two-sizes":
        # 7 and 73 objects, of which the static `road`, `big` and `open` or
        # `closed` differ: fixed sets and successor sets of one and two words.
        dom = pddl.parse_domain(domains.ROADS_DOMAIN)
        small, big = (pddl.ground(dom, pddl.parse_instance(domains.roads_instance(*args), dom))
                      for args in (("open",), ("closed", "(visited r65)", 66)))
        return [(small, space.expand(small).states), (big, _reachable_rows(big, 2))]
    gp, sp = {
        "clear": lambda: _space(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",)),
        "gripper": lambda: _space(domains.GRIPPER_DOMAIN, domains.gripper_instance(2, seed=3)),
        "visitall": lambda: _space(domains.VISITALL_DOMAIN,
                                   domains.visitall_instance(3, 2, (0, 0))),
        "roads": lambda: _space(domains.ROADS_DOMAIN, domains.roads_instance()),
    }[case]()
    return [(gp, sp.states)]


RANDOM_CASES = ["clear", "gripper", "visitall", "roads", "two-sizes", "roads-two-sizes"]


def _case_contexts(case, rng):
    """Per instance of a case, (instance context, state context, checked
    states): up to 12 of its states, 3 of a large instance, as (index, atom
    ids); the set semantics is slow on many objects."""
    contexts = []
    for gp, rows in _parts(case):
        ictx, unpack = co.InstanceContext(gp), oracles.unpacker(gp)
        picks = sorted(rng.sample(range(len(rows)), min(12 if ictx.n < 64 else 3, len(rows))))
        contexts.append((ictx, co.state_context(ictx, rows),
                         [(i, unpack(rows[i])) for i in picks]))
    return contexts


@pytest.mark.parametrize("case", RANDOM_CASES)
def test_random_expressions_match_set_semantics(case):
    rng = random.Random(RANDOM_CASES.index(case))
    contexts = _case_contexts(case, rng)
    gp = contexts[0][0].gp
    vocab, static_vocab = _vocabulary(gp), _vocabulary(gp, True)

    for _ in range(60):
        pick = rng.choice([vocab, static_vocab])
        expr = _random_concept(rng, pick) if rng.random() < 0.75 else _random_role(rng, pick)
        is_role = isinstance(expr, (PrimitiveRole, GoalRole, InverseRole, ClosureRole))
        assert co.parse(co.render(expr), co.ROLE if is_role else co.CONCEPT) == expr
        for ictx, ctx, checked in contexts:
            bits = ctx.members(ctx.role(expr) if is_role else ctx.concept(expr))
            for s, state in checked:
                want = oracles.naive_eval_state(expr, ictx.gp, state)
                got = _pairs(bits[s], ictx) if is_role else _names(bits[s], ictx)
                assert got == want, (co.render(expr), s)
                if co.state_independent(expr, ictx.static_preds):
                    static = co.unpack(ictx.static(expr), ictx.n)
                    assert (_pairs(static, ictx) if is_role else _names(static, ictx)) == want

    tables = 0
    for _ in range(30):
        pick = rng.choice([vocab, static_vocab])
        source, restrict, target = (_random_concept(rng, pick, 1) for _ in range(3))
        role = _random_role(rng, pick)
        tables += all(co.state_independent(e, contexts[0][0].static_preds)
                      for e in (role, restrict))
        for ictx, ctx, checked in contexts:
            dmap = ctx.distances(source, role, [restrict])[0]
            bfs_map = ctx.distance_map(ctx.concept(source), ctx.role(role),
                                       ctx.concept(restrict))
            assert np.array_equal(dmap, bfs_map)
            got = ctx.min_distance(dmap, ctx.concept(target))
            bfs = ctx.min_distance(bfs_map, ctx.concept(target))
            for s, state in checked:
                want = oracles.naive_distance(ictx.gp, state, source, role, restrict, target)
                assert got[s] == want and bfs[s] == want, (
                    co.render(source), co.render(role), co.render(restrict),
                    co.render(target), s)
    assert tables >= 5  # the seeds draw enough state-independent pairs


def test_static_predicates_are_per_instance_constants():
    # The static nullary `open` holds initially in the small roads instance
    # and `closed` in the big one, so Atom(p) reads each instance's initial
    # flag in every state of it.
    contexts = _case_contexts("roads-two-sizes", random.Random(3))
    for pred, flags in (("open", [1, 0]), ("closed", [0, 1])):
        atom = features.NullaryFeature(pred)
        assert [ictx.flags[pred] for ictx, _, _ in contexts] == flags
        for (ictx, ctx, checked), flag in zip(contexts, flags):
            assert atom.values(ctx).tolist() == [flag] * ctx.n_states
            for s, state in checked:
                assert atom.values(ctx)[s] == oracles.feature_value(atom, ictx.gp, state)
    # A context reads a static role from the instance's one array,
    # broadcast over the states, not copied into each.
    gp, sp = _space(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    ictx, ctx = _context(gp, sp)
    connected = ctx.role(PrimitiveRole("connected"))
    assert connected.shape == (sp.n_states, 6, 1) and connected.strides[0] == 0
    assert np.array_equal(connected[0], ictx.fixed[PrimitiveRole("connected")])
    assert ictx.unary_preds == ["at-robot", "visited"] and ictx.binary_preds == []


def test_distances_read_tables_only_for_state_independent_parts(monkeypatch):
    gp, sp = _space(domains.ROADS_DOMAIN, domains.roads_instance())
    ictx, ctx = _context(gp, sp)
    static = oracles.static_predicates(gp.domain)
    assert ictx.static_preds == static == {"road", "big", "open", "closed"}
    calls = {"bfs": 0, "table": 0}

    def count(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    monkeypatch.setattr(co.StateContext, "distance_map",
                        count("bfs", co.StateContext.distance_map))
    monkeypatch.setattr(co.InstanceContext, "distance_table",
                        count("table", co.InstanceContext.distance_table))
    rng = random.Random(7)
    vocab, static_vocab = _vocabulary(gp), _vocabulary(gp, True)
    seen = set()
    for _ in range(80):
        role = _random_role(rng, rng.choice([vocab, static_vocab]))
        restrict = _random_concept(rng, rng.choice([vocab, static_vocab]), 2)
        independent = _predicates_in(role) | _predicates_in(restrict) <= static
        assert co.state_independent(role, static) == (_predicates_in(role) <= static)
        assert co.state_independent(restrict, static) == (_predicates_in(restrict) <= static)
        calls.update(bfs=0, table=0)
        ctx.distances(Nominal("depot"), role, [restrict])
        assert calls == ({"bfs": 0, "table": 1} if independent else {"bfs": 1, "table": 0})
        seen.add(independent)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        ictx.static(Exists(PrimitiveRole("road"), PrimitiveConcept("visited")))


@pytest.mark.parametrize("case", ["roads", "two-sizes"])
def test_distances_over_several_restricts_match_one_at_a_time(case):
    # One call over a list of restricts, state-dependent ones (one search
    # for all) mixed with state-independent ones (table reads), gives the
    # maps of one restrict at a time, of a plain search and of the oracle.
    rng = random.Random(11 + RANDOM_CASES.index(case))
    contexts = _case_contexts(case, rng)
    gp = contexts[0][0].gp
    vocab, static_vocab = _vocabulary(gp), _vocabulary(gp, True)
    preds = contexts[0][0].static_preds
    mixed = 0
    for _ in range(12):
        source = _random_concept(rng, rng.choice([vocab, static_vocab]), 1)
        role = _random_role(rng, rng.choice([vocab, static_vocab]))
        restricts = [_random_concept(rng, rng.choice([vocab, static_vocab]), 1)
                     for _ in range(rng.randint(1, 5))]
        mixed += {co.state_independent(role, preds) and co.state_independent(r, preds)
                  for r in restricts} == {True, False}
        target = _random_concept(rng, vocab, 1)
        for ictx, ctx, checked in contexts:
            maps = ctx.distances(source, role, restricts)
            assert maps.shape == (len(restricts), ctx.n_states, ctx.n)
            assert maps.dtype == np.int64
            minima = ctx.min_distance(maps, ctx.concept(target))
            for restrict, dmap, got in zip(restricts, maps, minima):
                assert np.array_equal(dmap, ctx.distances(source, role, [restrict])[0])
                assert np.array_equal(dmap, ctx.distance_map(
                    ctx.concept(source), ctx.role(role), ctx.concept(restrict)))
                for s, state in checked:
                    want = oracles.naive_distance(ictx.gp, state, source, role, restrict,
                                                  target)
                    assert got[s] == want, (co.render(role), co.render(restrict), s)
    assert mixed >= 2  # the seeds draw calls that search and read tables at once
    for _, ctx, _ in contexts:
        assert ctx.distances(Top(), PrimitiveRole(vocab[1][0].name), []).shape == (
            0, ctx.n_states, ctx.n)


@pytest.mark.parametrize("maps_stacked,targets_stacked",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_min_distance_of_one_instance_matches_a_naive_minimum(maps_stacked, targets_stacked):
    # One instance of 72 objects (two words per set): a map and a target
    # alone are read as views, stacked ones object-major.
    gp, rows = _parts("two-sizes")[0]
    ctx = co.state_context(co.InstanceContext(gp), rows)
    rng = np.random.default_rng(4)
    far = ctx.n + 1
    maps = rng.integers(0, far + 1, size=(3, ctx.n_states, ctx.n))
    bits = rng.random((4, ctx.n_states, ctx.n)) < 0.05
    bits[0] = False
    m = maps if maps_stacked else maps[:1]
    b = bits if targets_stacked else bits[:1]
    got = ctx.min_distance(m if maps_stacked else m[0], ctx.pack(b if targets_stacked else b[0]))
    assert got.shape == (m.shape[:1] if maps_stacked else ()) + (
        b.shape[:1] if targets_stacked else ()) + (ctx.n_states,)
    got = got.reshape(len(m), len(b), ctx.n_states)
    for i in range(len(m)):
        for j in range(len(b)):
            want = [min(m[i, s, b[j, s]], default=far) for s in range(ctx.n_states)]
            assert got[i, j].tolist() == want


def test_min_distance_over_stacked_maps_and_targets_matches_a_loop():
    # Instances of 72 and 6 objects, two words and one per set: n + 1 with
    # the instance's n where a target is empty or out of reach.
    rng = np.random.default_rng(3)
    for ictx, ctx, _ in _case_contexts("two-sizes", random.Random(0)):
        far = ictx.n + 1
        maps = rng.integers(0, far + 1, size=(4, ctx.n_states, ctx.n))
        bits = (rng.random((6, ctx.n_states, ctx.n)) < 0.05) & ctx.members(ctx.universe)
        bits[0] = False
        got = ctx.min_distance(maps, ctx.pack(bits))
        assert got.shape == (4, 6, ctx.n_states) and got.dtype == np.int64
        for i in range(4):
            assert np.array_equal(ctx.min_distance(maps[i], ctx.pack(bits)), got[i])
            for j in range(6):
                want = [min(maps[i, s, bits[j, s]], default=far) for s in range(ctx.n_states)]
                assert got[i, j].tolist() == want
                assert np.array_equal(ctx.min_distance(maps[i], ctx.pack(bits[j])), got[i, j])
        assert (got[:, 0] == far).all()
        # Real maps, one of them unreachable past the source (restricted to Bot).
        source, role = PrimitiveConcept("at-robot"), PrimitiveRole("connected")
        restricts = [Top(), Bot(), Not(PrimitiveConcept("visited"))]
        maps = ctx.distances(source, role, restricts)
        targets = np.stack([ctx.concept(c) for c in (Bot(), Top(), restricts[2])])
        got = ctx.min_distance(maps, targets)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(got[i, j], ctx.min_distance(maps[i], targets[j]))
        assert (got[:, 0] == far).all()
        assert (got[1, 2] == far).all() and (got[0, 2] < far).any()
