"""State-space expansion, goal-distance labeling, and sample bookkeeping."""

from collections import deque

import pytest

import domains
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


def reference_expansion(gp):
    """Independent breadth-first enumeration used to cross-check `expand`.

    Returns (number of states, number of transitions) without relying on
    any of the StateSpace bookkeeping.
    """
    seen = {gp.init}
    queue = deque([gp.init])
    n_edges = 0
    while queue:
        s = queue.popleft()
        for aid in gp.applicable(s):
            a = gp.actions[aid]
            t = (s - a.dele) | a.add
            n_edges += 1
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen), n_edges


@pytest.mark.parametrize("domain_text,instance_text", [
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(2)),
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4)),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0))),
], ids=["gripper", "blocks", "visitall"])
def test_expand_matches_reference_enumeration(domain_text, instance_text):
    gp = _ground(domain_text, instance_text)
    sp = space.expand(gp)
    n_states, n_edges = reference_expansion(gp)
    assert sp.n_states == n_states
    assert sp.n_transitions == n_edges


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


def test_out_edges_csr_consistency():
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2))
    sp = space.expand(gp)
    total = 0
    for sid in range(sp.n_states):
        for t in sp.out_edges(sid):
            assert sp.src[t] == sid
            total += 1
    assert total == sp.n_transitions


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
        succ = [dist[sp.dst[t]] for t in sp.out_edges(sid) if dist[sp.dst[t]] >= 0]
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
    goal_ids = [sid for sid in range(sp.n_states) if sp.is_goal[sid]]
    assert goal_ids
    assert any(len(sp.out_edges(g)) > 0 for g in goal_ids)
    for g in goal_ids:
        for t in sp.out_edges(g):
            assert t not in sp.alive_t


def test_expansion_limits_raise():
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(3))
    with pytest.raises(LimitExceededError):
        space.expand(gp, max_states=5)
    with pytest.raises(LimitExceededError):
        space.expand(gp, max_transitions=10)


def test_sample_set_offsets_and_global_ids():
    sp1 = space.expand_labeled(
        _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(2)))
    sp2 = space.expand_labeled(
        _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",)))
    sample = space.SampleSet([sp1, sp2])
    assert sample.offsets == [0, sp1.n_states]
    assert sample.n_states == sp1.n_states + sp2.n_states
    assert sample.offsets[1] + 3 == sp1.n_states + 3
    seen = [g for g, _, _ in sample.iter_states()]
    assert seen == list(range(sample.n_states))
    alive = list(sample.iter_alive_transitions())
    assert len(alive) == sample.n_alive_transitions()
    assert len(alive) == len(sp1.alive_t) + len(sp2.alive_t)
    for k, t, gsrc, gdst in alive:
        sp = sample.spaces[k]
        assert gsrc == sample.offsets[k] + sp.src[t]
        assert gdst == sample.offsets[k] + sp.dst[t]
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
