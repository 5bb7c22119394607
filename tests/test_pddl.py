"""Parser, grounder and successor generator tests."""

import numpy as np
import pytest

from genpol import pddl, space
from genpol.errors import PddlError, UnsupportedPddlError

import domains
import oracles


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
    assert sorted(a.name for a in gp.actions) == expected


def test_ground_action_count_matches_brute_force_blocks():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    inst = pddl.parse_instance(domains.clear_tower_instance(5), dom, ["b1"])
    gp = pddl.ground(dom, inst)
    expected = oracles.brute_force_ground_actions(dom, inst)
    assert sorted(a.name for a in gp.actions) == expected


def test_ground_repeated_binding_self_loop():
    """move(rooma, rooma) is type-consistent and must be generated; its
    delete set drops atoms it also adds."""
    dom, inst = _gripper(1)
    gp = pddl.ground(dom, inst)
    names = {a.name for a in gp.actions}
    assert "move(rooma,rooma)" in names
    act = next(a for a in gp.actions if a.name == "move(rooma,rooma)")
    assert not (act.add & act.dele)


def test_statically_false_preconditions_pruned():
    """pick requires (at ?b ?r): bindings with a gripper in the ball slot are
    never applicable and must not be grounded."""
    dom, inst = _gripper(2)
    gp = pddl.ground(dom, inst)
    assert all(not a.name.startswith("pick(left")
               for a in gp.actions)


def test_applicable_matches_hand_simulation():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    text = """(define (problem two) (:domain blocksworld)
      (:objects a b)
      (:init (arm-empty) (on-table a) (on b a) (clear b))
      (:goal (and (clear a))))"""
    inst = pddl.parse_instance(text, dom, ["a"])
    gp = pddl.ground(dom, inst)
    aids, succ = gp.successors(gp.init)
    assert [gp.actions[i].name for i in aids] == ["unstack(b,a)"]
    assert oracles.unpacker(gp)(succ[0]) == {
        gp.atom_ids[a] for a in [("clear", "a"), ("holding", "b"), ("on-table", "a")]}
    aids2, _ = gp.successors(succ[0])
    assert [gp.actions[i].name for i in aids2] == ["putdown(b)", "stack(b,a)"]


def test_successor_states_are_packed_rows():
    dom, inst = _gripper(1)
    gp = pddl.ground(dom, inst)
    assert gp.init.dtype == np.uint64 and gp.init.shape == (gp.words,)
    assert gp.static_atoms == frozenset()  # every gripper predicate is dynamic
    aids, succ = gp.successors(gp.init)
    assert succ.dtype == np.uint64 and succ.shape == (len(aids), gp.words)
    unpack = oracles.unpacker(gp)
    init = unpack(gp.init)
    for aid, row in zip(aids.tolist(), succ):
        act = gp.actions[aid]
        assert act.pre <= init
        assert unpack(row) == (init - act.dele) | act.add


def test_static_atoms_are_kept_once_per_instance():
    dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(
        domains.visitall_instance(2, 2, (0, 0)), dom))
    assert gp.static_predicates == {"connected"}
    assert {gp.atoms[a][0] for a in gp.static_atoms} == {"connected"}
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
    with pytest.raises(PddlError):
        pddl.parse_instance(domains.clear_tower_instance(3), dom, ["nope"])
