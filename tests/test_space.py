"""State-space expansion, goal-distance labeling, and sample bookkeeping."""

import inspect

import numpy as np
import pytest

import domains
import oracles
from genpol import cli, concepts as co, pddl, pipeline, policy as po, space
from genpol.errors import GenpolError, LimitExceededError

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


@pytest.mark.parametrize("domain_text,instance_text,goal_params", [
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(2), ()),
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",)),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)), ()),
    (ONEWAY_DOMAIN, ONEWAY_INSTANCE, ()),
], ids=["gripper", "blocks", "visitall", "oneway"])
def test_successors_of_every_state_match_the_mask_test(domain_text, instance_text,
                                                        goal_params):
    gp = _ground(domain_text, instance_text, goal_params)
    oracles.check_successors(gp, space.expand(gp).states)


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
    assert_shortest_labeling(
        space.expand_labeled(_ground(domain_text, instance_text, goal_params)))


def assert_shortest_labeling(sp):
    """The labels of `sp` satisfy the goal-distance recurrence, which only
    the shortest distances do: 0 at a goal, else 1 + the least distance of a
    successor, -1 where no successor has one."""
    dist = sp.goal_dist.tolist()
    succ = [[] for _ in range(sp.n_states)]
    for s, d in zip(sp.src.tolist(), sp.dst.tolist()):
        if dist[d] >= 0:
            succ[s].append(dist[d])
    for sid in range(sp.n_states):
        if sp.is_goal[sid]:
            assert dist[sid] == 0
        elif succ[sid]:
            assert dist[sid] == 1 + min(succ[sid])
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


# One static atom and one action whose effect is empty: no dynamic atoms,
# one state, one self loop.
STILL_DOMAIN = """
(define (domain still)
  (:predicates (on))
  (:action wait :parameters () :precondition (and (on)) :effect (and)))
"""

STILL_INSTANCE = """
(define (problem p1) (:domain still) (:init (on)) (:goal (and (on))))
"""

STILL_POLICY = "feature 0 1 bool Atom(on)\nrule f0 -> nop\n"


def test_expansion_caps_have_one_default():
    # Every default cap on states and transitions is read from `space`.
    caps = {"max_states": space.MAX_STATES, "max_transitions": space.MAX_TRANSITIONS}
    assert caps == {"max_states": 10 ** 6, "max_transitions": 10 ** 7}
    for fn in (space.expand, space.expand_labeled, po.verify_exhaustive):
        for name, param in inspect.signature(fn).parameters.items():
            assert param.default == caps.get(name, param.default), (fn.__name__, name)
    config = pipeline.RunConfig(domain_path="", training_paths=[])
    assert (config.max_states, config.max_transitions) == tuple(caps.values())
    parser = cli.build_parser()
    for command in ("expand", "verify"):
        args = parser.parse_args([command, "--domain", "d", "--instance", "i"]
                                 + ["--policy", "p"] * (command == "verify"))
        assert args.max_states == space.MAX_STATES


@pytest.mark.parametrize("max_states,max_transitions,bad", [
    (0, 10, "max_states must be at least 1, got 0"),
    (-3, 10, "max_states must be at least 1, got -3"),
    (1, -1, "max_transitions must be non-negative, got -1"),
])
def test_caps_below_their_least_value_are_rejected(max_states, max_transitions, bad):
    gp = _ground(STILL_DOMAIN, STILL_INSTANCE)
    with pytest.raises(GenpolError, match=f"^{bad}$") as err:
        space.expand(gp, max_states, max_transitions)
    assert not isinstance(err.value, LimitExceededError)
    sp = space.expand(gp, 1, 1)  # the least caps that hold the space
    assert (sp.n_states, sp.n_transitions) == (1, 1)


def test_cli_rejects_a_state_cap_below_one(tmp_path, capsys):
    dom, inst = tmp_path / "domain.pddl", tmp_path / "p1.pddl"
    dom.write_text(STILL_DOMAIN)
    inst.write_text(STILL_INSTANCE)
    pol = tmp_path / "policy.txt"
    pol.write_text(STILL_POLICY)
    files = ["--domain", str(dom)]
    for argv, cap in ((["expand", "--instance", str(inst), "--max-states", "0"], 0),
                      (["verify", "--instance", str(inst), "--policy", str(pol),
                        "--max-states", "-3"], -3),
                      (["learn", "--training", str(inst), "--max-states", "-5"], -5)):
        assert cli.main(argv[:1] + files + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: max_states must be at least 1, got {cap}\n"
        assert captured.out == ""
    assert cli.main(["verify"] + files + ["--instance", str(inst), "--policy",
                                          str(pol), "--max-states", "1"]) == 0
    assert "ok=1" in capsys.readouterr().out


def test_instance_without_dynamic_atoms():
    # Zero-width atom masks all the way through: the packed row is one zero
    # word, `tables` unpacks no bits into a table of no predicates, and the
    # one state is a goal.  The static flag `on` is a per-instance constant.
    gp = _ground(STILL_DOMAIN, STILL_INSTANCE)
    assert len(gp.dynamic) == 0 and gp.actions == ["wait()"]
    sp = _check_against_oracle(gp)
    space.label_goal_distances(sp)
    assert sp.states.tolist() == [[0]] and sp.goal_dist.tolist() == [0]
    assert (sp.src.tolist(), sp.dst.tolist(), sp.alive_t.tolist()) == ([0], [0], [])
    ictx = co.InstanceContext(gp)
    unary, binary, flags = ictx.tables(sp.states)
    assert unary.shape == (1, 0, 1) and binary.shape == (1, 0, 0, 1)
    assert flags.shape == (1, 0) and ictx.flags == {"on": 1}
    assert co.state_context([(ictx, sp.states)]).flags["on"].tolist() == [1]
    res = po.verify_exhaustive(po.parse_policy(STILL_POLICY), gp)
    assert res.ok and (res.n_states, res.n_compatible) == (1, 0)


def test_frontier_blocks_without_applicable_actions(monkeypatch):
    # One row per block of the applicability test, so the dead ends of the
    # last level make blocks with no applicable action.
    for gp in (_ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE),
               _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",))):
        whole = space.expand(gp)
        monkeypatch.setattr(pddl, "_APPLICABLE_BLOCK", 1)
        sp = _check_against_oracle(gp)
        monkeypatch.undo()
        for name in ("states", "src", "dst", "act"):
            assert np.array_equal(getattr(sp, name), getattr(whole, name))
    dead = _ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE)
    at, aids, succ = dead.transitions(space.expand(dead).states[1:])
    assert len(at) == len(aids) == 0 and succ.shape == (0, 1)


def _group_keys():
    """Seeded keys: uint64 with many repeats and values >= 2**63, and the
    row keys of two- and three-word rows, at lengths 0, 1 and 3,000."""
    rng = np.random.default_rng(18)
    out = []
    for n in (0, 1, 3000):
        high = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
        out.append(rng.integers(0, 40, n).astype(np.uint64) | high)
        for words in (2, 3):
            rows = rng.integers(0, 3, (n, words)).astype(np.uint64) << np.uint64(62)
            out.append(space.row_keys(rows))
    return out


@pytest.mark.parametrize("keys", _group_keys(),
                         ids=[f"{n}-{k}" for n in (0, 1, 3000) for k in ("u64", "w2", "w3")])
def test_group_matches_unique_and_first_occurrence(keys):
    uniq, first, inverse = space.group(keys)
    want = np.unique(keys, return_index=True, return_inverse=True)
    for got, ref in zip((uniq, first, inverse), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref.reshape(-1))
    ids, groups = oracles.group_by_first_occurrence([k.tobytes() for k in keys])
    assert sorted(first.tolist()) == [g[0] for g in groups]
    assert first[inverse].tolist() == [groups[c][0] for c in ids]
    if len(keys) > 1:
        assert 1 < len(uniq) < len(keys) / 10


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


def test_row_keys_are_the_one_word_or_a_salted_mix():
    rng = np.random.default_rng(24)
    one = rng.integers(0, 2**63, (500, 1)).astype(np.uint64) << np.uint64(1)
    for salt in (0, 1, 7):
        assert np.array_equal(space.row_keys(one, salt), one[:, 0])
    for words in (2, 3, 5):
        rows = rng.integers(0, 3, (3000, words)).astype(np.uint64) << np.uint64(62)
        want, _ = oracles.group_by_first_occurrence([r.tobytes() for r in rows])
        by_salt = [space.row_keys(rows, salt) for salt in (0, 1)]
        for keys in by_salt:
            assert keys.dtype == np.uint64 and keys.shape == (len(rows),)
            assert oracles.group_by_first_occurrence(keys.tolist())[0] == want
        assert (by_salt[0] != by_salt[1]).all()


def _weak_mix(z):
    """A multiply-xor fold: row keys of wider rows collide under it."""
    return (z * np.uint64(3)) ^ (z >> np.uint64(32))


def _line(width):
    return _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(
        width, 1, (width - 1, 0), visited=[(x, 0) for x in range(1, width)]))


def test_expansion_survives_key_collisions(monkeypatch):
    # Under the weak mix the first salt merges two different rows of the
    # 65-cell line (three words), which the check must catch; every space
    # and every cap error stays that of the reference enumeration.
    monkeypatch.setattr(space, "_mix", _weak_mix)
    salts = []
    expand_once = space._expand

    def spy(gp, max_states, max_transitions, salt):
        salts.append(salt)
        return expand_once(gp, max_states, max_transitions, salt)

    monkeypatch.setattr(space, "_expand", spy)
    for gp, tried in ((_line(63), [0]), (_line(64), [0]), (_line(65), [0, 1]),
                      (_line(130), [0]), (_ground(domains.VISITALL_DOMAIN,
                                                 domains.visitall_instance(33, 1, (0, 0))), [0])):
        assert gp.words > 1
        salts.clear()
        _check_against_oracle(gp)
        assert salts == tried
    gp = _line(65)
    _, edges, _ = oracles.naive_expand(gp)
    n, t = 129, len(edges)
    for max_states in (1, 2, 64, n - 1, n):
        for max_transitions in (0, 1, 100, t - 1, t):
            want = _first_cap(edges, max_states, max_transitions)
            if want is None:
                assert space.expand(gp, max_states, max_transitions).n_transitions == t
                continue
            cap = max_states if want == "states" else max_transitions
            with pytest.raises(LimitExceededError, match=f"more than {cap} {want} in"):
                space.expand(gp, max_states, max_transitions)


def test_expansion_gives_up_after_a_bounded_number_of_salts(monkeypatch, tmp_path, capsys):
    # A mix that ignores the salt, and its input, keys every row of the
    # 65-cell line (three words) alike: each salt merges different rows, and
    # after `SALTS` of them `expand` raises an error naming the instance,
    # which `verify` reports with exit code 2.
    monkeypatch.setattr(space, "_mix", np.zeros_like)
    salts = []
    expand_once = space._expand

    def spy(gp, max_states, max_transitions, salt):
        salts.append(salt)
        return expand_once(gp, max_states, max_transitions, salt)

    monkeypatch.setattr(space, "_expand", spy)
    message = (f"the row keys of 'visitall-65x1' merged different states "
               f"under each of {space.SALTS} salts")
    with pytest.raises(GenpolError, match=f"^{message}$"):
        space.expand(_line(65))
    assert salts == list(range(space.SALTS))

    salts.clear()
    (tmp_path / "domain.pddl").write_text(domains.VISITALL_DOMAIN)
    (tmp_path / "line.pddl").write_text(domains.visitall_instance(
        65, 1, (64, 0), visited=[(x, 0) for x in range(1, 65)]))
    (tmp_path / "policy.txt").write_text("feature 0 2 num Not(visited)\nrule f0>0 -> f0--\n")
    assert cli.main(["verify", "--domain", str(tmp_path / "domain.pddl"),
                     "--instance", str(tmp_path / "line.pddl"),
                     "--policy", str(tmp_path / "policy.txt")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert salts == list(range(space.SALTS))


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
