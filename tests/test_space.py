"""State-space expansion, goal-distance labeling, and sample bookkeeping."""

import numpy as np
import pytest

import domains
import oracles
from genpol import pddl, space
from genpol.errors import LimitExceededError

ONEWAY_DOMAIN = """
(define (domain oneway)
  (:predicates (fresh) (done) (ash))
  (:action finish :parameters () :precondition (and (fresh))
           :effect (and (done) (not (fresh))))
  (:action burn :parameters () :precondition (and (fresh))
           :effect (and (ash) (not (fresh)))))
"""

ONEWAY_INSTANCE = """
(define (problem p1) (:domain oneway)
  (:init (fresh)) (:goal (and (done))))
"""


def _ground(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    return pddl.ground(dom, inst)


def _check_against_oracle(gp):
    """`expand` equals `oracles.naive_expand` transition by transition and
    state by state."""
    sp = space.expand(gp)
    states, edges, goal = oracles.naive_expand(gp)
    assert sp.n_states == len(states)
    assert list(zip(sp.src.tolist(), sp.dst.tolist(), sp.act.tolist())) == edges
    assert sp.is_goal.tolist() == goal
    assert sp.states.dtype == np.uint64
    assert sp.states.shape == (len(states), max(1, -(-len(gp.dynamic) // 64)))
    assert oracles.state_sets(sp) == states
    return sp


@pytest.mark.parametrize("domain_text,instance_text,goal_params", [
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(2), ()),
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",)),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)), ()),
    (ONEWAY_DOMAIN, ONEWAY_INSTANCE, ()),
], ids=["gripper", "blocks", "visitall", "oneway"])
def test_expand_matches_reference_enumeration(domain_text, instance_text,
                                              goal_params):
    _check_against_oracle(_ground(domain_text, instance_text, goal_params))


@pytest.mark.parametrize("cells,dynamic", [(31, 62), (32, 64), (33, 66), (65, 130)])
def test_expand_across_word_boundaries(cells, dynamic):
    # A visitall line has one at-robot and one visited atom per cell, so these
    # states straddle the 64- and 128-bit word boundaries.
    gp = _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(cells, 1, (0, 0)))
    assert len(gp.dynamic) == dynamic
    sp = _check_against_oracle(gp)
    assert sp.is_goal.sum() == cells  # every cell visited, the robot anywhere


def test_training_instance_sizes():
    # Frozen sizes of the three training spaces used throughout the suite.
    cases = [
        (domains.GRIPPER_DOMAIN, domains.gripper_instance(4), (), 256, 1140, 12),
        (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5), ("b1",), 866, 1161, 7),
        (domains.VISITALL_DOMAIN,
         domains.visitall_instance(3, 3, (1, 1)),
         (), 849, 2396, 8),
    ]
    for dom_text, inst_text, gparams, n_states, n_alive, diameter in cases:
        sp = space.expand_labeled(_ground(dom_text, inst_text, gparams))
        assert sp.n_states == n_states
        assert len(sp.alive_t) == n_alive
        assert sp.max_goal_distance() == diameter


def test_transitions_are_stored_by_source():
    # `verify_space` reads the first witness in state order off the
    # transition order, and finds each state's moves by a binary search on
    # `src`.
    for gp in (_ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2)),
               _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 3, (1, 1)))):
        sp = space.expand(gp)
        assert sp.n_transitions > sp.n_states
        assert (np.diff(sp.src) >= 0).all()


def test_clear_tower_goal_distance():
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",))
    sp = space.expand_labeled(gp)
    # Clearing the bottom of a 3-tower: unstack, put down, unstack again.
    assert sp.goal_dist[0] == 3


@pytest.mark.parametrize("domain_text,instance_text,goal_params", [
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(2), ()),
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",)),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)), ()),
    (ONEWAY_DOMAIN, ONEWAY_INSTANCE, ()),
], ids=["gripper-2", "blocks-4", "visitall-2x2", "oneway"])
def test_goal_distances_are_shortest(domain_text, instance_text, goal_params):
    sp = space.expand_labeled(_ground(domain_text, instance_text, goal_params))
    dist = sp.goal_dist.tolist()
    for sid in range(sp.n_states):
        succ = [dist[d] for s, d in zip(sp.src.tolist(), sp.dst.tolist())
                if s == sid and dist[d] >= 0]
        if sp.is_goal[sid]:
            assert dist[sid] == 0
        elif succ:
            assert dist[sid] == 1 + min(succ)
        else:
            assert dist[sid] == -1
    alive = [dist[s] >= 0 and not sp.is_goal[s] for s in range(sp.n_states)]
    assert sp.alive.tolist() == alive
    assert sp.alive_t.tolist() == [t for t in range(sp.n_transitions)
                                   if alive[sp.src[t]]]


def test_dead_end_states_and_alive_filter():
    sp = space.expand_labeled(_ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE))
    assert sp.n_states == 3
    assert sp.goal_dist.tolist() == [1, -1, 0]
    assert sp.goal_dist[1] < 0 and not sp.goal_dist[0] < 0
    # Only the two transitions out of the (alive) initial state count.
    assert len(sp.alive_t) == 2
    assert sp.is_goal[2] and sp.goal_dist[2] >= 0 and not sp.alive[2]


def test_goal_states_are_expanded_not_pruned():
    # A goal state with applicable actions keeps its outgoing transitions in
    # the raw expansion; they are merely excluded from the alive filter.
    gp = _ground(domains.VISITALL_DOMAIN,
                 domains.visitall_instance(2, 1, (0, 0)))
    sp = space.expand_labeled(gp)
    from_goal = np.flatnonzero(sp.is_goal[sp.src])
    assert sp.is_goal.any() and len(from_goal)
    assert not np.isin(from_goal, sp.alive_t).any()


def _first_cap(edges, max_states, max_transitions):
    """The cap a one-state-at-a-time search over `edges`, in (source,
    action id) order, hits first: the state cap at a new state beyond
    `max_states`, checked before the transition cap at the transition
    beyond `max_transitions`; None when neither is hit."""
    n_states = 1
    for n, (_, dst, _) in enumerate(edges, 1):
        if dst == n_states:
            n_states += 1
            if n_states > max_states:
                return "states"
        if n > max_transitions:
            return "transitions"
    return None


def test_expansion_limits_raise():
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(3))
    with pytest.raises(LimitExceededError,
                       match=r"^more than 5 states in 'gripper-3-none'$"):
        space.expand(gp, max_states=5)
    with pytest.raises(LimitExceededError,
                       match=r"^more than 10 transitions in 'gripper-3-none'$"):
        space.expand(gp, max_transitions=10)


def test_expansion_caps_are_exact():
    # Every cap, mid-level ones included, fires exactly when the space is
    # larger, with the error the one-state-at-a-time order reaches first.
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2))
    states, edges, _ = oracles.naive_expand(gp)
    n, t = len(states), len(edges)
    for max_states in range(1, n + 2):
        for max_transitions in range(0, t + 2, 3):
            want = _first_cap(edges, max_states, max_transitions)
            if want is None:
                sp = space.expand(gp, max_states, max_transitions)
                assert (sp.n_states, sp.n_transitions) == (n, t)
                continue
            cap = max_states if want == "states" else max_transitions
            with pytest.raises(LimitExceededError) as err:
                space.expand(gp, max_states, max_transitions)
            assert str(err.value) == f"more than {cap} {want} in 'gripper-2-none'"
    assert _first_cap(edges, n - 1, t) == "states"
    assert _first_cap(edges, n, t - 1) == "transitions"


def test_sample_set_offsets_and_global_ids():
    sp1 = space.expand_labeled(
        _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2)))
    sp2 = space.expand_labeled(
        _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",)))
    sample = space.SampleSet([sp1, sp2])
    assert sample.offsets == [0, sp1.n_states]
    assert sample.n_states == sp1.n_states + sp2.n_states
    assert sample.offsets[1] + 3 == sp1.n_states + 3
    for name in ("goal_dist", "is_goal", "alive"):
        per_state = getattr(sample, name)
        assert len(per_state) == sample.n_states
        assert per_state.tolist() == (getattr(sp1, name).tolist()
                                      + getattr(sp2, name).tolist())
    alive = [(k, t) for k, sp in enumerate(sample.spaces)
             for t in range(sp.n_transitions) if sp.alive[sp.src[t]]]
    assert sample.n_alive_transitions() == len(alive)
    assert len(alive) == len(sp1.alive_t) + len(sp2.alive_t)
    assert sample.src.tolist() == [sample.offsets[k] + sample.spaces[k].src[t]
                                   for k, t in alive]
    assert sample.dst.tolist() == [sample.offsets[k] + sample.spaces[k].dst[t]
                                   for k, t in alive]
    assert sample.max_goal_distance() == max(sp1.max_goal_distance(),
                                             sp2.max_goal_distance())


def test_sample_set_requires_labeled_spaces():
    sp = space.expand(_ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2)))
    with pytest.raises(ValueError):
        space.SampleSet([sp])


def test_dump_transitions_format():
    sp = space.expand_labeled(_ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE))
    text = space.dump_transitions(sp)
    lines = text.strip().split("\n")
    assert len(lines) == sp.n_transitions
    for line in lines:
        parts = line.split()
        assert len(parts) == 9
        s, d = int(parts[0]), int(parts[1])
        assert parts[3] == str(int(sp.is_goal[s]))
        assert parts[4] == str(int(sp.is_goal[d]))
        assert parts[7] == ("-" if sp.goal_dist[s] < 0 else str(sp.goal_dist[s]))
        assert parts[8] == ("-" if sp.goal_dist[d] < 0 else str(sp.goal_dist[d]))
    # The burned state is a dead end and must be flagged as such.
    dead_lines = [l for l in lines if l.split()[6] == "1"]
    assert len(dead_lines) == 1


def test_dump_requires_labels():
    sp = space.expand(_ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE))
    with pytest.raises(ValueError):
        space.dump_transitions(sp)
