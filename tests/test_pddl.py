"""Parser, grounder and successor generator tests."""

import dataclasses
import hashlib
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from genpol import concepts as co, pddl, policy as po, space
from genpol.errors import LimitExceededError, PddlError, UnsupportedPddlError

import domains
import oracles

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import instances  # noqa: E402  perfbench's seeded instance generators
import workloads  # noqa: E402  perfbench's run cases


def _gripper(n=2, seed=None):
    dom = pddl.parse_domain(domains.GRIPPER_DOMAIN)
    inst = pddl.parse_instance(domains.gripper_instance(n, seed), dom)
    return dom, inst


def test_parse_domain_basics():
    dom = pddl.parse_domain(domains.GRIPPER_DOMAIN)
    assert dom.name == "gripper"
    assert sorted(dom.predicates) == ["at", "at-robby", "carry", "free"]
    assert dom.predicates["carry"].arity == 2
    assert sorted(s.name for s in dom.schemas) == ["drop", "move", "pick"]
    assert dom.types["ball"] == "object"


def test_parse_blocks_domain_untyped():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    assert sorted(s.name for s in dom.schemas) == \
           ["pickup", "putdown", "stack", "unstack"]
    assert dom.predicates["arm-empty"].arity == 0
    pickup = next(s for s in dom.schemas if s.name == "pickup")
    assert [t for _v, t in pickup.params] == ["object"]


def test_parse_instance_goal_and_init():
    dom, inst = _gripper(2)
    assert ("at", "ball1", "rooma") in inst.init
    assert ("at-robby", "rooma") in inst.init
    assert ("at", "ball2", "roomb") in inst.goal


def test_parse_error_position():
    with pytest.raises(PddlError) as exc:
        pddl.parse_domain("(define (domain broken)\n  (:predicates (p ?x)\n")
    assert exc.value.line >= 1
    blocks = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    parse_instance = lambda text: pddl.parse_instance(text, blocks)
    for parse, text in [
        (pddl.parse_domain, "(define (domain))"),
        (pddl.parse_domain, "(define (domain (d)))"),
        (pddl.parse_domain, "(define (domain d) (:predicates (p ?x)) (:action a"
                            " :parameters x :precondition (p ?x) :effect (p ?x)))"),
        (parse_instance, "(define (problem))"),
        (parse_instance, "(define (problem p) (:domain))"),
    ]:
        with pytest.raises(PddlError) as exc:
            parse(text)
        assert exc.value.line == 1, text


# Pieces of random PDDL-like texts: names, also upper case and non-ASCII
# ("İ" lower-cases to two characters), parentheses, which need not
# balance, the whitespace " \t\r\n", other characters that are not
# whitespace here ("\f", "\v", U+00A0, U+2028), and comments.
TEXT_PIECES = ["(", ")", "define", "Domain", "?X", ":strips", "a-b", "é", "İx", " ", "\t",
               "\r", "\r\n", "\n", "\f", "\v", "\u00a0", "\u2028", "x;y", "; a (note)\n", ";"]


def _random_text(rng) -> str:
    """A random text of `TEXT_PIECES`, mostly in one pair of parentheses,
    now and then ending in a comment with no newline."""
    text = "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 60)))
    text = f"({text})" if rng.random() < 0.7 else text
    return text + "; last" if rng.random() < 0.3 else text


def _pddl_texts():
    """The domain and problem texts of `benchmarks/` and of perfbench's run
    and verify cases of seeds 0 and 7."""
    yield from (p.read_text() for p in sorted((ROOT / "benchmarks").glob("*/*.pddl")))
    for seed in (0, 7):
        for case in workloads.run_cases(ROOT, seed) + workloads.verify_cases(ROOT, seed):
            yield case.domain_text
            yield case.problem_text


def _read_outcome(text: str) -> str:
    """What `pddl._read` makes of `text`: its tree, each token shown with
    the (token, line, column) that `pddl._tokenize` yields at its index, or
    its error."""
    tokens = list(pddl._tokenize(text))

    def show(node):
        at, value = node
        return [show(v) for v in value] if type(value) is list else (value, *tokens[at])
    try:
        return repr(show(pddl._read(text)))
    except PddlError as e:
        return f"error: {e}"


def test_tokens_match_the_character_loop(monkeypatch):
    texts = list(_pddl_texts())
    rng = random.Random(31)
    texts += [_random_text(rng) for _ in range(2000)]
    for text in texts:
        assert list(pddl._tokenize(text)) == list(oracles.tokenize(text)), repr(text)
    # The same trees, and the same errors with their lines and columns.
    outcomes = [_read_outcome(text) for text in texts]
    monkeypatch.setattr(pddl, "_tokenize", oracles.tokenize)
    assert outcomes == [_read_outcome(text) for text in texts]
    errors = [o for o in outcomes if o.startswith("error: ")]
    assert len(errors) > 1000 and len(outcomes) - len(errors) > 200
    assert len({o for o in errors if o.startswith("error: unbalanced")}) > 100


# Malformed texts, each made from one of perfbench's texts by a change or
# two of one token (the text, then (old, new, n): the n-th occurrence of old,
# from the end when n < 0, becomes new), and the error, message, line and
# column that parsing it raises, pinned from the reader that built a node per
# token with its position.  They cover unknown predicates, wrong arities,
# undeclared objects, variables and types, wrong types, nested terms,
# `(not ...)` and `(or ...)` where only atoms may stand, unbalanced and
# trailing forms, upper-case and non-ASCII names ("İ" lower-cases to two
# characters) and comments.
ERROR_CORPUS = [
    ('gripper', [('(at-robby ?from))\n', '(at-robbyx ?from))\n', 1)],
     'PddlError', "undeclared predicate 'at-robbyx'", 10, 24),
    ('gripper', [('(free ?g))', '(free ?g ?b))', 1)],
     'PddlError', "predicate 'free' expects 1 arguments, got 2", 14, 49),
    ('gripper', [('(carry ?b ?g) (not', '(carry ?x ?g) (not', 1)],
     'PddlError', "undeclared variable '?x' in effect of 'pick'", 15, 25),
    ('gripper', [('(at ?b ?r) (at-robby', '(at ?r ?b) (at-robby', 1)],
     'PddlError', "'?r' has type 'room', but 'at' expects 'ball'", 14, 28),
    ('gripper', [('(at-robby ?to)', '(at-robby (?to))', 1)],
     'PddlError', 'nested term in atom', 11, 28),
    ('gripper', [('?r - room ?g', '?r - rom ?g', 1)],
     'PddlError', "parameter '?r' has undeclared type 'rom'", 13, 17),
    ('gripper', [('(not (carry ?b ?g))', '(not (carry ?b ?g) (free ?g))', 1)],
     'PddlError', '(not ...) takes exactly one atom', 19, 39),
    ('clear', [('(and (clear ?ob) (on-table', '(or (clear ?ob) (on-table', 1)],
     'UnsupportedPddlError',
     "disjunctive condition is not supported in precondition of 'pickup'", 6, 19),
    ('clear', [('(not (arm-empty)))))', '(not (arm-empty))))', 1)],
     'PddlError', "unbalanced '('", 1, 1),
    ('clear', [('(not (arm-empty)))))', '(not (arm-empty))))) (extra)', 1)],
     'PddlError', 'trailing expression after top-level form', 22, 87),
    ('clear', [('(not (arm-empty)))))', '(not (arm-empty))))) x', 1)],
     'PddlError', "token 'x' outside any form", 22, 81),
    ('clear', [('(not (arm-empty)))))', '(not (arm-empty))))))', 1)],
     'PddlError', "unbalanced ')'", 22, 80),
    ('clear', [('(on ?x ?y)', '(on ?x ;?y)', 1)],
     'PddlError', "unbalanced '('", 3, 3),
    ('clear', [(':parameters (?ob ?underob)',
                ':parameters (?ob ?underob) ; (x\n    :parameters', 1)],
     'PddlError', "expected a parameter list in action 'stack'", 16, 5),
    ('visitall', [(':effect', ':effects', 1)],
     'UnsupportedPddlError', "unsupported action field ':effects'", 10, 5),
    ('visitall', [('(:predicates', '(:predicate', 1)],
     'UnsupportedPddlError', "unsupported section ':predicate'", 4, 3),
    ('visitall', [('(connected ?curpos ?nextpos)', '(CONNECTED ?CurPos ?NextPos ?X)', 1)],
     'PddlError', "predicate 'connected' expects 2 arguments, got 3", 9, 43),
    ('visitall', [('?nextpos))\n    :effect', '?néxtpos))\n    :effect', 1)],
     'PddlError', "undeclared variable '?néxtpos' in precondition of 'move'", 9, 62),
    ('visitall', [('(at-robot ?nextpos)', '(at-robot ?nextpos ?İ)', 1)],
     'PddlError', "predicate 'at-robot' expects 1 arguments, got 2", 10, 18),
    ('gripper-100', [('(free left)', '(fre left)', 1)],
     'PddlError', "undeclared predicate 'fre'", 3, 27),
    ('gripper-100', [('(free right)', '(free right left)', 1)],
     'PddlError', "predicate 'free' expects 1 arguments, got 2", 3, 39),
    ('gripper-100', [('(at ball50 ', '(at ball500 ', 1)],
     'PddlError', "undeclared object 'ball500' in :init", 3, 929),
    ('gripper-100', [('(free left)', '(free rooma)', 1)],
     'PddlError', "'rooma' has type 'room', but 'free' expects 'gripper'", 3, 33),
    ('gripper-100', [('(at ball100 roomb))))', '(at ball100 roomc))))', 1)],
     'PddlError', "undeclared object 'roomc' in :goal", 4, 1800),
    ('gripper-100', [('(free right)', '(not (free right))', 1)],
     'UnsupportedPddlError', 'negative condition is not supported in :init', 3, 39),
    ('gripper-100', [('(at ball3 roomb)', '(at roomb ball3)', -1)],
     'PddlError', "'roomb' has type 'room', but 'at' expects 'ball'", 4, 53),
    ('clear-50', [('(:goal (and', '(:goal (or', 1)],
     'UnsupportedPddlError', 'disjunctive condition is not supported in :goal', 4, 10),
    ('clear-50', [('(on b28 b2)', '(on (b28) b2)', 1)],
     'PddlError', 'nested term in atom', 3, 40),
    ('clear-50', [('(clear b2))))', '(clear b2 b3))))', 1)],
     'PddlError', "predicate 'clear' expects 1 arguments, got 2", 4, 15),
    ('clear-50', [('b50)', 'b50 - blk)', 1)],
     'PddlError', "object 'b1' has undeclared type 'blk'", None, None),
    ('clear-50', [('b50)', 'b50 b1)', 1)],
     'PddlError', "duplicate object 'b1'", None, None),
    ('clear-50', [('(:domain blocksworld)', '(:domain blocks)', 1)],
     'PddlError', "instance 'clear-50' is for domain 'blocks', not 'blocksworld'", None, None),
    ('clear-50', [('(clear b2))))', '(clear b2 ;))))\n  b3))))', 1)],
     'PddlError', "predicate 'clear' expects 1 arguments, got 2", 4, 15),
    ('clear-50', [('(define', '; (define', 1)],
     'PddlError', 'trailing expression after top-level form', 3, 667),
    ('clear-50', [('(on b28 b2)', '(on b28 b2) (on-table)', 1)],
     'PddlError', "predicate 'on-table' expects 1 arguments, got 0", 3, 48),
    ('visitall-14x14', [('loc-0-1 - place', 'loc-0-1 - placé', 1)],
     'PddlError', "object 'loc-0-1' has undeclared type 'placé'", None, None),
    ('visitall-14x14', [('(:objects loc-0-0', '(:objects İ loc-0-0', 1),
                        ('loc-13-13 - place)', 'loc-13-13 - place (x))', 1)],
     'PddlError', 'unexpected list in :objects', 2, 3263),
    ('visitall-14x14', [('(connected loc-0-0 loc-0-1)', '(connected loc-0-0 İoc-0-1)', 1)],
     'PddlError', "undeclared object 'i̇oc-0-1' in :init", 3, 94),
    ('visitall-14x14', [('(:goal (and (visited', '(:goal (and (visited) (visited', 1)],
     'PddlError', "predicate 'visited' expects 1 arguments, got 0", 4, 15),
    ('visitall-14x14', [('(:init', '(:init ;', 1)],
     'PddlError', "unbalanced '('", 1, 1),
    ('visitall-14x14', [(')))\n', '))\n', -1)],
     'PddlError', "unbalanced '('", 1, 1),
]


def _corpus_text(key: str, changes: list) -> str:
    if key in ("gripper", "clear", "visitall"):
        text = (ROOT / "benchmarks" / key / "domain.pddl").read_text()
    else:
        text = next(c.problem_text for c in workloads.run_cases(ROOT, 0) if c.name == key)
    for old, new, nth in changes:
        at = -1
        for _ in range(nth if nth > 0 else text.count(old) + 1 + nth):
            at = text.index(old, at + 1)
        text = text[:at] + new + text[at + len(old):]
    return text


@pytest.mark.parametrize("key,changes,error,message,line,col", ERROR_CORPUS)
def test_error_corpus_messages_and_positions(key, changes, error, message, line, col):
    text = _corpus_text(key, changes)
    domain = key if key in ("gripper", "clear", "visitall") else key.split("-")[0]
    dom = pddl.parse_domain((ROOT / "benchmarks" / domain / "domain.pddl").read_text())
    with pytest.raises(PddlError) as exc:
        if key == domain:
            pddl.parse_domain(text)
        else:
            pddl.parse_instance(text, dom)
    where = "" if line is None else f" (line {line}, column {col})"
    assert (type(exc.value).__name__, str(exc.value), exc.value.line, exc.value.col) == (
        error, message + where, line, col)


def test_unsupported_features_rejected():
    text = """
    (define (domain neg)
      (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x)
        :precondition (and (not (p ?x)))
        :effect (and (q ?x))))
    """
    with pytest.raises(UnsupportedPddlError):
        pddl.parse_domain(text)


@pytest.mark.parametrize("types,error", [
    ("place object", None), ("place - object object", None),
    ("a - b b - a", "type 'a' is its own ancestor"),
    ("object - place", "type 'object' is its own ancestor")])
def test_type_hierarchy_cycles_rejected(types, error):
    text = domains.VISITALL_DOMAIN.replace("(:types place - object)", f"(:types {types})")
    if error is None:
        assert pddl.parse_domain(text).types["object"] is None
    else:
        with pytest.raises(PddlError, match=f"^{error}$"):
            pddl.parse_domain(text)


def test_undeclared_predicate_rejected():
    text = """
    (define (domain bad)
      (:predicates (p ?x))
      (:action a :parameters (?x)
        :precondition (and (r ?x))
        :effect (and (p ?x))))
    """
    with pytest.raises(PddlError):
        pddl.parse_domain(text)


def test_ground_action_count_matches_brute_force_gripper():
    dom, inst = _gripper(3, seed=5)
    gp = pddl.ground(dom, inst)
    expected = oracles.brute_force_ground_actions(dom, inst)
    assert gp.actions == expected


def test_ground_action_count_matches_brute_force_blocks():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    inst = pddl.parse_instance(domains.clear_tower_instance(5), dom, ["b1"])
    gp = pddl.ground(dom, inst)
    expected = oracles.brute_force_ground_actions(dom, inst)
    assert gp.actions == expected


def _roads(flag="open", goal=""):
    dom = pddl.parse_domain(domains.ROADS_DOMAIN)
    return dom, pddl.parse_instance(domains.roads_instance(flag, goal), dom)


def _ground_like_product(dom, inst):
    """`pddl.ground` checked against `oracles.product_ground`; the ground
    problem."""
    gp = pddl.ground(dom, inst)
    want = oracles.product_ground(dom, inst)
    assert dom.static_predicates() == oracles.static_predicates(dom)
    atoms = lambda ids: frozenset(gp.atoms[i] for i in ids)
    assert gp.actions == [a[0] for a in want.actions]
    assert [gp.atoms[i] for i in gp.dynamic] == want.dynamic
    assert atoms(gp.static_atoms) == want.static_atoms
    assert atoms(gp.goal) == want.goal
    # The atoms are the dynamic ones, the static ones of the initial state
    # and the goal's, sorted.
    assert gp.atoms == sorted(set(want.dynamic) | want.static_atoms | want.goal)
    for name in ("init", "pre_masks", "add_masks", "del_masks"):
        got = getattr(gp, name)
        assert got.dtype == np.uint64 and np.array_equal(got, getattr(want, name)), name
    # No action adds and deletes the same atom.
    assert not (gp.add_masks & gp.del_masks).any()
    # Each action's bits are its dynamic atoms, padded with bit 64 * words.
    pad, dynamic = 64 * gp.words, set(want.dynamic)
    for kind, bits in enumerate((gp.pre_bits, gp.add_bits, gp.del_bits)):
        assert bits.dtype == np.int64 and bits.shape[0] == len(gp.actions)
        assert ((bits >= 0) & (bits <= pad)).all()
        for row, action in zip(bits.tolist(), want.actions):
            assert {want.dynamic[b] for b in row if b != pad} == action[1 + kind] & dynamic
    assert gp.pre_key.dtype == np.int64 and gp.pre_key.tolist() == oracles.key_bits(gp)
    return gp


@pytest.mark.parametrize("name", ["clear", "gripper", "visitall"])
def test_ground_matches_product_on_benchmarks(name):
    bench = ROOT / "benchmarks" / name
    dom = pddl.parse_domain((bench / "domain.pddl").read_text())
    for path in sorted(bench.glob("prob*.pddl")):
        _ground_like_product(dom, pddl.parse_instance(path.read_text(), dom))


@pytest.mark.parametrize("make", [
    lambda rng: instances.gripper(3, rng, "gripper-3"),
    lambda rng: instances.clear_towers(5, rng, "clear-5"),
    lambda rng: instances.clear_tower(6, rng, "clear-6"),
    lambda rng: instances.visitall(3, 4, (1, 2), "visitall-3x4"),
    lambda rng: instances.visitall(1, 1, (0, 0), "visitall-1x1")])
def test_ground_matches_product_on_generated_instances(make):
    inst = make(random.Random(3))
    directory = {"gripper": "gripper", "blocksworld": "clear",
                 "grid-visit-all": "visitall"}[inst.domain]
    dom = pddl.parse_domain((ROOT / "benchmarks" / directory / "domain.pddl").read_text())
    _ground_like_product(dom, pddl.parse_instance(inst.pddl(), dom, inst.goal_params))


def test_ground_matches_product_on_random_domains():
    rng = random.Random(11)
    for _ in range(300):
        domain, instance = domains.random_strips_problem(rng)
        dom = pddl.parse_domain(domain)
        _ground_like_product(dom, pddl.parse_instance(instance, dom))


def test_ground_keeps_only_atoms_that_can_hold():
    inst = instances.visitall(14, 14, (3, 5), "visitall-14x14")
    dom = pddl.parse_domain((ROOT / "benchmarks" / "visitall" / "domain.pddl").read_text())
    gp = pddl.ground(dom, pddl.parse_instance(inst.pddl(), dom))
    # 196 at-robot and 196 visited atoms and the grid's 728 connected atoms,
    # of 196 * 196 type-consistent ones; one move per connected atom.
    assert len(gp.atoms) == 2 * 196 + 728 and len(gp.dynamic) == 2 * 196
    assert len(gp.actions) == 728


def test_ground_joins_static_preconditions():
    gp = _ground_like_product(*_roads())
    names = set(gp.actions)
    assert {"home(truck,y)", "home(van,q)", "spin(van,p)", "tour(y,x)",
            "tour(depot,y)", "tour(depot,q)", "look(p,x)", "look(depot,depot)"} <= names
    # (closed) is false, there is no (road x x), x is not big and p is no city.
    assert not any(n.startswith(("shut", "spin(truck,x)", "tour(x,", "tour(p,", "look(p,p)"))
                   for n in names)
    # The static atoms are those of the initial state, not every road.
    assert sum(a[0] == "road" for a in gp.atoms) == 7


def test_ground_nullary_static_precondition_false():
    gp = _ground_like_product(*_roads(flag="closed"))
    names = {name.split("(")[0] for name in gp.actions}
    assert "home" not in names and "shut" in names
    assert ("open",) not in gp.atoms and ("closed",) in gp.atoms


@pytest.mark.parametrize("goal,holds", [("(road x y)", True), ("(road x p)", False),
                                        ("(open)", True), ("(closed)", False)])
def test_ground_static_goal_atom(goal, holds):
    gp = _ground_like_product(*_roads(goal=goal))
    # A static goal atom false in the initial state exists as an atom, and
    # then no state is a goal state.
    assert gp.goal_static == holds
    sp = space.expand(gp)
    assert sp.is_goal.any() == holds


@pytest.mark.parametrize("problem", [_gripper, _roads])
def test_ground_max_actions_hit_exactly(problem):
    dom, inst = problem()
    n = len(pddl.ground(dom, inst).actions)
    assert len(pddl.ground(dom, inst, max_actions=n).actions) == n
    with pytest.raises(LimitExceededError,
                       match=re.escape(f"more than {n - 1} ground actions in '{inst.name}'")):
        pddl.ground(dom, inst, max_actions=n - 1)


@pytest.mark.parametrize("field,atom", [
    ("init", ("at", "truck", "truck")), ("goal", ("visited", "van")),
    ("init", ("road", "x")), ("goal", ("nowhere", "x"))])
def test_ground_rejects_atoms_not_type_consistent(field, atom):
    dom, inst = _roads()
    inst = dataclasses.replace(inst, **{field: getattr(inst, field) | {atom}})
    with pytest.raises(PddlError, match=re.escape(f"{field} atom {atom} is not type-consistent")):
        pddl.ground(dom, inst)


def test_ground_repeated_binding_self_loop():
    """move(rooma, rooma) is type-consistent and must be generated; its
    delete mask drops atoms it also adds (see `_ground_like_product`)."""
    gp = _ground_like_product(*_gripper(1))
    assert "move(rooma,rooma)" in gp.actions


def test_statically_false_preconditions_pruned():
    """pick requires (at ?b ?r): bindings with a gripper in the ball slot are
    never applicable and must not be grounded."""
    dom, inst = _gripper(2)
    gp = pddl.ground(dom, inst)
    assert not any(name.startswith("pick(left") for name in gp.actions)


def test_applicable_matches_hand_simulation():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    text = """(define (problem two) (:domain blocksworld)
      (:objects a b)
      (:init (arm-empty) (on-table a) (on b a) (clear b))
      (:goal (and (clear a))))"""
    inst = pddl.parse_instance(text, dom, ["a"])
    gp = pddl.ground(dom, inst)
    aids = gp.successors(gp.init)
    assert [gp.actions[i] for i in aids] == ["unstack(b,a)"]
    succ = gp.apply(gp.init, aids[0])
    assert {gp.atoms[i] for i in oracles.unpacker(gp)(succ)} == {
        ("clear", "a"), ("holding", "b"), ("on-table", "a")}
    assert [gp.actions[i] for i in gp.successors(succ)] == ["putdown(b)", "stack(b,a)"]


def test_successor_states_are_packed_rows():
    dom, inst = _gripper(1)
    gp = pddl.ground(dom, inst)
    assert gp.init.dtype == np.uint64 and gp.init.shape == (gp.words,)
    assert gp.static_atoms == frozenset()  # every gripper predicate is dynamic
    aids = gp.successors(gp.init)
    unpack = oracles.unpacker(gp)
    atoms = lambda row: {gp.atoms[i] for i in unpack(row)}
    init = atoms(gp.init)
    want = oracles.product_ground(dom, inst).actions
    for aid in aids.tolist():
        row = gp.apply(gp.init, aid)
        assert row.dtype == np.uint64 and row.shape == (gp.words,)
        name, pre, add, dele = want[aid]
        assert name == gp.actions[aid] and pre <= init
        assert atoms(row) == (init - dele) | add


def test_static_atoms_are_kept_once_per_instance():
    dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        domains.visitall_instance(2, 2, (0, 0)), dom))
    assert {gp.atoms[a][0] for a in gp.static_atoms} == {"connected"}
    assert {gp.atoms[a][0] for a in gp.dynamic} == {"at-robot", "visited"}
    assert len(gp.static_atoms) == 8 and len(gp.dynamic) == 8 and gp.words == 1
    assert not gp.is_goal(gp.init)


@pytest.mark.parametrize("static_goal,holds", [
    ("(connected loc-0-0 loc-1-0)", True), ("(connected loc-0-0 loc-1-1)", False)])
def test_static_goal_atoms(static_goal, holds):
    # A static goal atom is decided by the initial state, in every state.
    dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
    text = domains.visitall_instance(2, 2, (0, 0)).replace(
        "(:goal (and", f"(:goal (and {static_goal}")
    gp = pddl.ground(dom, pddl.parse_instance(text, dom))
    sp = space.expand(gp)
    visited = {("visited", f"loc-{x}-{y}") for x in (0, 1) for y in (0, 1)}
    want = [holds and visited <= {gp.atoms[a] for a in state}
            for state in oracles.state_sets(sp)]
    assert sp.is_goal.tolist() == want and any(want) == holds


def test_atom_ids_deterministic_and_sorted():
    dom, inst = _gripper(2)
    gp1 = pddl.ground(dom, inst)
    gp2 = pddl.ground(dom, pddl.parse_instance(domains.gripper_instance(2), dom))
    assert [gp1.atoms[i] for i in range(len(gp1.atoms))] == \
           [gp2.atoms[i] for i in range(len(gp2.atoms))]
    assert gp1.atoms == sorted(gp1.atoms)


def test_goal_params_recorded():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    inst = pddl.parse_instance(domains.clear_tower_instance(3), dom, ["b1"])
    assert inst.goal_params == ("b1",)
    # Names are read lower-cased, goal parameters too.
    assert pddl.parse_instance(domains.clear_tower_instance(3), dom, ["B1"]) == inst
    with pytest.raises(PddlError, match="goal parameter 'nope' is not an object"):
        pddl.parse_instance(domains.clear_tower_instance(3), dom, ["NOPE"])


GATED_DOMAIN = """
(define (domain gated)
  (:predicates (ready) (fresh) (done) (lit))
  (:action finish :parameters () :precondition (and (ready) (fresh))
           :effect (and (done) (not (fresh))))
  (:action light :parameters () :precondition (and) :effect (and (lit))))
"""


@pytest.mark.parametrize("init,actions", [
    ("(ready) (fresh)", ["finish()", "light()"]),
    ("(fresh)", ["light()"]),
])
def test_successors_of_actions_without_dynamic_preconditions(init, actions):
    # light() has no dynamic precondition, so every row tests it; finish()
    # is keyed by (fresh), and is not grounded without the static (ready).
    dom = pddl.parse_domain(GATED_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        f"(define (problem p) (:domain gated) (:init {init}) (:goal (and (done))))", dom))
    assert gp.actions == actions
    assert gp.pre_key[gp.actions.index("light()")] == 64 * gp.words
    oracles.check_successors(gp, space.expand(gp).states)


def test_successors_of_a_problem_without_actions():
    dom = pddl.parse_domain(GATED_DOMAIN.replace(
        "(:action light :parameters () :precondition (and) :effect (and (lit)))", ""))
    gp = pddl.ground(dom, pddl.parse_instance(
        "(define (problem p) (:domain gated) (:init (fresh)) (:goal (and (done))))", dom))
    assert gp.actions == [] and gp.pre_key.shape == (0,)
    assert gp.successors(gp.init).tolist() == []
    oracles.check_successors(gp, [gp.init])


@pytest.mark.parametrize("cells", [63, 64, 65, 130])
def test_successors_across_words(cells):
    # 126 to 260 dynamic atoms: the key bits of the moves lie in every word.
    dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        domains.visitall_instance(cells, 1, (0, 0)), dom))
    assert gp.words == -(-2 * cells // 64)
    oracles.check_successors(gp, space.expand(gp).states)


TWICE_DOMAIN = """
(define (domain twice)
  (:predicates (p ?x) (q ?x))
  (:action swap :parameters (?x ?y) :precondition (and (p ?x) (p ?y))
           :effect (and (q ?x) (not (q ?y)) (not (p ?y)) (p ?y))))
"""


def _twice_instance(n):
    objects = " ".join(f"o{i}" for i in range(n))
    init = " ".join(f"(p o{i})" for i in range(0, n, 2))
    return (f"(define (problem twice-{n}) (:domain twice) (:objects {objects})"
            f" (:init {init} (q o1)) (:goal (and (q o0))))")


@pytest.mark.parametrize("n", [3, 40])
def test_successors_of_shadowed_deletes_and_repeated_preconditions(n):
    # swap(x,y) deletes (p y), which it also adds, and for x = y deletes
    # (q y), which it adds as (q x); it requires (p x) twice when x = y.
    # 40 objects make two words.
    dom = pddl.parse_domain(TWICE_DOMAIN)
    gp = _ground_like_product(dom, pddl.parse_instance(_twice_instance(n), dom))
    assert len(gp.actions) == n * n and gp.words == -(-2 * n // 64)
    swap = gp.actions.index("swap(o1,o1)")
    assert gp.del_bits[swap].tolist() == [64 * gp.words] * 2
    assert len(set(gp.pre_bits[swap].tolist())) == 1
    rows = np.random.default_rng(n).integers(0, 2**63, (300, gp.words)).astype(np.uint64)
    rows = np.concatenate([rows, rows << np.uint64(1), ~rows])
    oracles.check_successors(gp, rows)
    if n == 3:
        oracles.check_successors(gp, space.expand(gp).states)


def test_grounding_a_100_block_tower_builds_no_dense_masks():
    # The dense masks, uint64 [actions, words] each, would take 81 MB here;
    # a greedy step reads the actions' bits only, and builds one row from
    # the chosen action's bits.
    dom = pddl.parse_domain((ROOT / "benchmarks" / "clear" / "domain.pddl").read_text())
    inst = instances.clear_tower(100, random.Random(0), "clear-100")
    problem = pddl.parse_instance(inst.pddl(), dom, inst.goal_params)
    tracemalloc.start()
    try:
        gp = pddl.ground(dom, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gp.actions) == 2 * 100 * 100 + 2 * 100 and gp.words == 161
    assert peak < 16e6
    aids = gp.successors(gp.init)
    assert len(aids) == 1 and gp.actions[aids[0]].startswith("unstack(")
    pol = po.parse_policy((ROOT / "perfbench" / "policies" / "clear.txt").read_text())
    run = po.greedy_execute(pol, gp, max_steps=4)
    assert run.status == "step_limit" and len(run.trajectory) == 4
    assert not [name for name in vars(gp) if name.endswith("_masks")]


def test_instance_context_builds_no_dense_object_squares():
    # visitall-50x50's static `connected` and its goal version as dense bool
    # [slots, objects] arrays would take 2 * 2,500² bytes = 12.5 MB; the
    # fixed sets are scattered straight into packed words.
    inst = instances.visitall(50, 50, (17, 33), "visitall-50x50")
    dom = pddl.parse_domain((ROOT / "benchmarks" / "visitall" / "domain.pddl").read_text())
    gp = pddl.ground(dom, pddl.parse_instance(inst.pddl(), dom))
    tracemalloc.start()
    try:
        ictx = co.InstanceContext(gp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    connected = ictx.fixed[co.PrimitiveRole("connected")]
    assert connected.shape == (2500, 40)
    assert int(np.bitwise_count(connected).sum()) == 2 * 2 * 50 * 49


@pytest.mark.parametrize("make,policy_name", [
    (lambda rng: instances.clear_tower(50, rng, "clear-50"), "clear"),
    (lambda rng: instances.gripper(100, rng, "gripper-100"), "gripper"),
])
def test_successors_along_greedy_runs(make, policy_name):
    # perfbench's run instances, along the first 30 states of a greedy run;
    # each next state is taken from the mask test's transitions.
    inst = make(random.Random(0))
    directory = {"gripper": "gripper", "blocksworld": "clear"}[inst.domain]
    dom = pddl.parse_domain((ROOT / "benchmarks" / directory / "domain.pddl").read_text())
    gp = pddl.ground(dom, pddl.parse_instance(inst.pddl(), dom, inst.goal_params))
    pol = po.parse_policy((ROOT / "perfbench" / "policies" / f"{policy_name}.txt").read_text())
    plan = po.greedy_execute(pol, gp).trajectory
    rows = [gp.init]
    for name in plan[:29]:
        _, aids, succ = gp.transitions(rows[-1][None])
        rows.append(succ[[gp.actions[a] for a in aids].index(name)])
    assert len(rows) == 30
    oracles.check_successors(gp, rows)


@pytest.mark.parametrize("seed", [0, 7])
def test_successors_on_every_state_of_the_run_workload(seed):
    # perfbench's run cases, gripper-100, clear-50 and visitall-14x14, along
    # the whole greedy run, each next state taken from the mask test.
    for case in workloads.run_cases(ROOT, seed):
        gp = workloads._ground(case)
        plan = po.greedy_execute(case.policy, gp).trajectory
        rows = [gp.init]
        for name in plan:
            _, aids, succ = gp.transitions(rows[-1][None])
            rows.append(succ[[gp.actions[a] for a in aids].index(name)])
        assert gp.is_goal(rows[-1])
        oracles.check_successors(gp, rows)


# SHA-256 of the ground problem's fields below, pinned from the grounder
# that bound parameters one generator step at a time and looked every atom
# up by name: perfbench's run and verify cases of seeds 0 and 7, and three
# instances at the sizes the greedy runs are measured at.
GROUND_FIELDS = ("atoms", "actions", "dynamic", "pre_bits", "add_bits", "del_bits", "pre_key",
                 "init", "goal_mask", "static_atoms")
GROUND_DIGESTS = {
    "gripper-100-0": "376a061b3c0f29d4f67d4a7701c0db3db632fc172a0cd3b9e2a02ce5ed1f344e",
    "clear-50-0": "12d95dc9ffad59b62ada005ccea9cae99c13a21169a6bb3ae6f061b37f02494c",
    "visitall-14x14-0": "8e1bb12b3b33a302241e9ce93eb7a616ef7b799666a8f7fff21881a4fffc4290",
    "visitall-4x4-0": "9322914223b4baf9cb3bb676f585d9e541059b476b9bc43dc28592913dc629e4",
    "gripper-10-0": "ad57a616f42dc604435e0cd33212e5ea13faf43c34e382970a1d2de29224bcc7",
    "clear-7-0": "ce4e8234a5e837bed979ea17d8793447dba371bd43184d8f20cb1a22356dd74f",
    "visitall-4x4-bad-0": "cbe240ab24ac8bcf6b8be775a9fe1c5dc4fe0e8444a9b4b3abc60ef8b9908bd7",
    "gripper-100-7": "7c3b5b2df7b7ff65e61e752cef7100cea7e2427683b6edf113860bfc623234bb",
    "clear-50-7": "fe551bfda3e9c12ad5b2040f4ac7a42a4460ecd647441064fdf53c551e1d17fa",
    "visitall-14x14-7": "5bf1258a62e4b43fadde4ea978ef4b14ca91d209c31dc9b7df519b7836b31276",
    "visitall-4x4-7": "24b0831139d124a4c367da0f8de7ba0b28de039aaa2bca2fd2a9e442f9115ef0",
    "gripper-10-7": "a1ef7742a630d04e474afebed4bc5227c1a487d0567e651bd575c7d476f471bb",
    "clear-7-7": "b4de5eee9a89117a6e3e66010d5e7379dc11167f540746f9bd5195f885b6dd43",
    "visitall-4x4-bad-7": "cbe240ab24ac8bcf6b8be775a9fe1c5dc4fe0e8444a9b4b3abc60ef8b9908bd7",
    "clear-150": "8c42439b57ba227b49faad9f80a6df4ff157559b0a4860d12716ec72ef327532",
    "visitall-28x28": "ccbf2d9163bf3530ae7e751dec1f51e225052691ccafb13eed7dd13472ce5166",
    "gripper-400": "4edfc048c4db397b6fe34efcb1f16c47182100aea0a06d4fdea9e82c6b40a252",
}


def _digest_cases():
    """name -> (perfbench case-like instance, domain directory)."""
    cases = {f"{c.name}-{seed}": c.instance for seed in (0, 7)
             for c in workloads.run_cases(ROOT, seed) + workloads.verify_cases(ROOT, seed)}
    cases["clear-150"] = instances.clear_tower(150, random.Random(7), "clear-150")
    cases["visitall-28x28"] = instances.visitall(28, 28, (9, 20), "visitall-28x28")
    cases["gripper-400"] = instances.gripper(400, random.Random(6), "gripper-400")
    return cases


def _ground_digest(gp) -> str:
    h = hashlib.sha256()
    for name in GROUND_FIELDS:
        value = getattr(gp, name)
        if isinstance(value, np.ndarray):
            h.update(f"{name} {value.dtype} {value.shape}".encode())
            h.update(value.tobytes())
        else:
            h.update(f"{name} {sorted(value) if isinstance(value, frozenset) else value}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,inst", list(_digest_cases().items()))
def test_ground_digests_and_contexts(name, inst):
    directory = {"gripper": "gripper", "blocksworld": "clear", "grid-visit-all": "visitall"}
    dom = pddl.parse_domain(
        (ROOT / "benchmarks" / directory[inst.domain] / "domain.pddl").read_text())
    gp = pddl.ground(dom, pddl.parse_instance(inst.pddl(), dom, inst.goal_params))
    assert _ground_digest(gp) == GROUND_DIGESTS[name]
    # The atom tables of random rows, and the policy's values by deltas at
    # the first state and at its first successors, against the oracle's
    # tables and the batch evaluation.
    ictx = co.InstanceContext(gp)
    rows = np.random.default_rng(5).integers(0, 2**63, size=(8, gp.words), dtype=np.uint64)
    for got, want in zip(ictx.tables(rows), oracles.scatter_tables(ictx, rows)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    pol = po.parse_policy(
        (ROOT / "perfbench" / "policies" / f"{directory[inst.domain]}.txt").read_text())
    kept = co.DeltaContext(ictx, gp.init, pol.features)
    assert kept.values() == pol.evaluate(ictx, gp.init[None])[0].tolist()
    for aid in gp.successors(gp.init)[:4].tolist():
        want = pol.evaluate(ictx, gp.apply(gp.init, aid)[None])[0].tolist()
        assert kept.successor(aid)[0] == want


def _calls(fn, *args):
    """The result of fn(*args) and the Python calls it made."""
    calls = [0]

    def profile(frame, event, arg):
        calls[0] += event == "call"
    sys.setprofile(profile)
    try:
        return fn(*args), calls[0]
    finally:
        sys.setprofile(None)


# Python calls ('call' events of `sys.setprofile`) made to parse and ground
# an instance and to set up the contexts of a greedy run on it.  Reading,
# grounding and the contexts work in bulk, with no call per token, atom or
# action; the reader that made a node per token and the grounder that
# looked atoms up one by one made 95,424 / 42,035 / 7,257 calls on
# visitall-28x28 and 2,924 / 11,216 / 16,032 on clear-100.  Each bound is
# 1.5 times the count of the bulk code (815 / 156 / 337 and 32 / 414 / 410).
CALL_BUDGETS = {
    "visitall-28x28": ("visitall", lambda: instances.visitall(28, 28, (9, 20), "v"),
                       (1222, 234, 505)),
    "clear-100": ("clear", lambda: instances.clear_tower(100, random.Random(6), "c"),
                  (48, 621, 615)),
}


@pytest.mark.parametrize("name", list(CALL_BUDGETS))
def test_parsing_grounding_and_contexts_stay_within_a_call_budget(name):
    directory, make, budget = CALL_BUDGETS[name]
    inst = make()
    dom = pddl.parse_domain((ROOT / "benchmarks" / directory / "domain.pddl").read_text())
    pol = po.parse_policy((ROOT / "perfbench" / "policies" / f"{directory}.txt").read_text())
    text = inst.pddl()
    for _ in range(2):  # the first time round warms caches and lazy imports
        problem, parse = _calls(pddl.parse_instance, text, dom, inst.goal_params)
        gp, ground = _calls(pddl.ground, dom, problem)
        ictx, instance = _calls(co.InstanceContext, gp)
        _, delta = _calls(co.DeltaContext, ictx, gp.init, pol.features)
    got = (parse, ground, instance + delta)
    assert all(n <= bound for n, bound in zip(got, budget)), (got, budget)
