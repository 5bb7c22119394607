"""The evaluator and the vectorized certificate walk against the oracles.

`Policy.evaluate`, one `concepts.StateContext` over many states, must give
exactly the values of the set-semantics oracle (`oracles.feature_value`) on
every state, and `verify_space` on those values must match the certificate
oracle, which reads the rules literally and walks plain dicts.  Greedy
execution, which evaluates successors by deltas, must repeat the runs of
the loop that evaluates them all (`oracles.eager_greedy_execute`), and
each successor that it evaluates by deltas must get the values that
`Policy.evaluate` gives on its row.
"""

import itertools
import random
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import domains
import oracles
from genpol import cli, features, pddl, policy as po, space
from genpol import concepts as co
from genpol.errors import GenpolError
from genpol.maxsat import ranges
from test_concepts import _names, _pairs
from test_policy import VERIFY_CASES
from test_space import assert_shortest_labeling

ROOT = Path(__file__).resolve().parents[1]
POLICY_DIR = ROOT / "perfbench" / "policies"
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402  perfbench's generators and STRIPS replay
import workloads  # noqa: E402  perfbench's verify and run cases


def _ground(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    return pddl.ground(dom, inst)


def _check(pol, gp, sp):
    """Asserts evaluated values == oracle values on every state and that
    `verify_space` on them matches the certificate oracle; returns the
    VerifyResult."""
    vals = pol.evaluate(co.InstanceContext(gp), sp.states)
    assert vals.dtype == np.int64
    assert vals.shape == (sp.n_states, len(pol.features))
    want = [[oracles.feature_value(f, gp, s) for f in pol.features]
            for s in oracles.state_sets(sp)]
    assert vals.tolist() == want

    got = po.verify_space(pol, sp, vals)
    ref = oracles.certificate(pol, sp, want)
    assert (got.n_states, got.n_compatible, got.complete, got.safe,
            got.acyclic) == (sp.n_states, ref["n_compatible"], ref["complete"],
                             ref["safe"], ref["acyclic"])
    if ref["witness"] is not None:
        assert got.witness == ref["witness"]
    elif not got.acyclic:
        m = re.fullmatch(r"compatible cycle through state (\d+)", got.witness)
        assert m and oracles.on_cycle(ref["moves"], int(m.group(1)))
    else:
        assert got.witness is None
    return got


# perfbench's fixed policies on small spaces: (policy, domain, instance,
# goal params, verdict).
FIXED = {
    "clear": ("clear", domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
              ("b1",), True),
    "gripper": ("gripper", domains.GRIPPER_DOMAIN,
                domains.gripper_instance(3, seed=1), (), True),
    "visitall": ("visitall", domains.VISITALL_DOMAIN,
                 domains.visitall_instance(3, 3, (1, 0)), (), True),
    "visitall-bad": ("visitall-bad", domains.VISITALL_DOMAIN,
                     domains.visitall_instance(3, 3, (0, 0)), (), False),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_policies_batch_equals_per_state(name):
    policy_file, domain_text, instance_text, goal_params, ok = FIXED[name]
    pol = po.parse_policy((POLICY_DIR / f"{policy_file}.txt").read_text())
    gp = _ground(domain_text, instance_text, goal_params)
    sp = space.expand_labeled(gp)
    assert _check(pol, gp, sp).ok == ok
    assert po.verify_exhaustive(pol, gp).ok == ok


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_each_verdict_batch_equals_per_state(name):
    text, domain_text, instance_text, goal_params = VERIFY_CASES[name]
    gp = _ground(domain_text, instance_text, goal_params)
    _check(po.parse_policy(text), gp, space.expand_labeled(gp))


# From the start, `go` leads on and `burn` into a dead end; from the middle,
# `finish` reaches the goal and `fail` a dead end.
FORK_DOMAIN = """
(define (domain fork)
  (:predicates (start) (mid) (done) (ash) (trap))
  (:action go :parameters () :precondition (and (start))
           :effect (and (mid) (not (start))))
  (:action burn :parameters () :precondition (and (start))
           :effect (and (ash) (not (start))))
  (:action finish :parameters () :precondition (and (mid))
           :effect (and (done) (not (mid))))
  (:action fail :parameters () :precondition (and (mid))
           :effect (and (trap) (not (mid)))))
"""

FORK_INSTANCE = """
(define (problem fork1) (:domain fork) (:init (start)) (:goal (and (done))))
"""


@pytest.mark.parametrize("rules,witness", [
    # burn is the only move from the start (state 0) and the middle has none.
    ("rule f0 -> !f0\n",
     "compatible transition burn() from state 0 reaches dead end 1"),
    # The start has no move; from the middle, finish and fail are moves.
    ("rule !f0 f1 -> !f1\n", "alive state 0 has no compatible transition"),
])
def test_witness_is_the_first_in_state_order(rules, witness):
    gp = _ground(FORK_DOMAIN, FORK_INSTANCE)
    sp = space.expand_labeled(gp)
    pol = po.parse_policy("feature 0 1 bool Atom(start)\n"
                          "feature 1 1 bool Atom(mid)\n" + rules)
    got = _check(pol, gp, sp)
    assert not got.complete and not got.safe
    assert got.witness == witness


def _random_digraph(seed):
    """A labeled space over a seeded random graph (no PDDL), per-state values
    of one numeric feature, and the states of the cycle behind the chain.

    Its disconnected parts: goals with a cycle among them; dead ends with a
    cycle and self loops among them; a random part with edges into goals and,
    in half the graphs, dead ends; and a chain of 40-160 states ending in a
    goal or in a cycle that only the chain reaches.  By `seed % 3`, the
    random part's edges run forward only and the chain ends in a goal (0),
    they may run back and loop (1), or they run forward and the chain ends
    in a cycle (2).  State ids are shuffled across the parts."""
    rng = random.Random(seed)
    kind = seed % 3
    goals, dead, mixed, chain, loop = (
        rng.randrange(2, 5), rng.randrange(3, 7), rng.randrange(5, 40),
        rng.randrange(40, 161), rng.randrange(1, 4) if kind == 2 else 0)
    n = goals + dead + mixed + chain + loop
    ids = list(range(n))
    rng.shuffle(ids)
    g, d, m, c, o = (ids[:goals], ids[goals:goals + dead],
                     ids[goals + dead:n - chain - loop],
                     ids[n - chain - loop:n - loop], ids[n - loop:])
    edges = set(zip(g, g[1:] + g[:1])) | set(zip(d, d[1:] + d[:1]))
    edges |= {(s, s) for s in rng.sample(d, 2)}
    into_dead = d if rng.random() < 0.5 else []
    for i, s in enumerate(m):
        later = m if kind == 1 else m[i + 1:]
        edges |= {(s, rng.choice(later + g + into_dead))
                  for _ in range(rng.randrange(4))}
        if kind == 1 and rng.random() < 0.2:
            edges.add((s, s))
        edges.add((s, rng.choice(g)))
    edges |= set(zip(c, c[1:]))
    if loop:  # the chain leads into a cycle whose states can also reach a goal
        edges |= {(c[-1], o[0])} | set(zip(o, o[1:] + o[:1]))
        edges |= {(s, rng.choice(g)) for s in o}
    else:
        edges.add((c[-1], rng.choice(g)))
    src, dst = (np.array(x, dtype=np.int64) for x in zip(*sorted(edges)))
    gp = SimpleNamespace(actions=[f"a{t}" for t in range(len(src))],
                         instance=SimpleNamespace(name=f"graph-{seed}"))
    is_goal = np.zeros(n, dtype=bool)
    is_goal[g] = True
    sp = space.label_goal_distances(space.StateSpace(
        gp=gp, states=np.zeros((n, 1), dtype=np.uint64), src=src, dst=dst,
        act=np.arange(len(src)), is_goal=is_goal))
    vals = np.zeros((n, 1), dtype=np.int64)
    vals[g] = 2
    vals[m] = [[rng.randrange(rng.choice([1, 3]))] for _ in m]
    return sp, vals, o


def test_peeling_matches_the_search_and_the_certificate():
    # A move keeps the feature or raises it, so cycles run among states of
    # equal value.  The chain and its cycle are all 0 and the goals 2, so
    # their moves count, and every alive state has a move into a goal.
    pol = po.parse_policy("feature 0 1 num Not(visited)\n"
                          "rule true -> nop | f0++\n")
    cyclic, named = [0, 0, 0], 0
    for seed in range(60):
        sp, vals, behind_chain = _random_digraph(seed)
        compat = sp.alive[sp.src] & pol.compatible_mask(vals[sp.src], vals[sp.dst])
        keep = np.flatnonzero(compat & sp.alive[sp.dst])
        start = np.searchsorted(sp.src[keep], np.arange(sp.n_states + 1))
        cycle_at = po._find_cycle(np.flatnonzero(sp.alive).tolist(),
                                  start.tolist(), sp.dst[keep].tolist())
        ref = oracles.certificate(pol, sp, vals.tolist())
        got = po.verify_space(pol, sp, vals)
        assert got.acyclic == (cycle_at is None) == ref["acyclic"], seed
        cycle = None
        if cycle_at is not None:
            assert oracles.on_cycle(ref["moves"], cycle_at), seed
            cycle = f"compatible cycle through state {cycle_at}"
        assert got.witness == (ref["witness"] or cycle), seed
        assert (got.complete, got.safe, got.n_compatible) == (
            ref["complete"], ref["safe"], ref["n_compatible"]), seed
        if seed % 3 == 2:
            assert cycle_at in behind_chain, seed
        cyclic[seed % 3] += not got.acyclic
        named += got.witness == cycle is not None
    # Cycles among goals and dead ends never count; the cycle behind the
    # chain always does.
    assert cyclic[0] == 0 and cyclic[1] > 0 and cyclic[2] == 20
    assert named >= 10


def test_labeling_of_random_graphs_is_shortest():
    # Cycles among goals and among dead ends, self loops, and a chain of
    # 40-160 states: frontiers with repeated predecessors and long runs of
    # one-state levels.
    longest = 0
    for seed in range(60):
        sp, _, _ = _random_digraph(seed)
        assert_shortest_labeling(sp)
        longest = max(longest, sp.max_goal_distance())
    assert longest > 40


def _by_argsort(src, dst, n):
    """Predecessor lists built as they were before the one-sort packing:
    sources in `argsort(dst)` order, whatever the order within a node."""
    count = np.bincount(dst, minlength=n)
    pred, first = src[np.argsort(dst)], np.cumsum(count) - count
    return lambda nodes: pred[ranges(first[nodes], count[nodes])]


def _per_node(preds, nodes, dst, n):
    """The predecessors of `nodes`, sorted within each node."""
    got = preds(nodes)
    node = np.repeat(np.arange(len(nodes)), np.bincount(dst, minlength=n)[nodes])
    return got[np.lexsort((got, node))]


def test_predecessors_are_the_argsort_lists_per_node():
    # The verify cases' spaces and seeded random multigraphs with isolated
    # nodes, self loops and repeated edges; the nodes asked for come in any
    # order, with repeats.
    graphs = []
    for name in sorted(VERIFY_CASES):
        _, domain_text, instance_text, goal_params = VERIFY_CASES[name]
        sp = space.expand(_ground(domain_text, instance_text, goal_params))
        graphs.append((sp.src, sp.dst, sp.n_states))
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        linked = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        m = int(rng.integers(0, 4 * n))
        src, dst = rng.choice(linked, m), rng.choice(linked, m)
        loops = rng.choice(linked, int(rng.integers(0, 5)))
        graphs.append((np.concatenate([src, loops]), np.concatenate([dst, loops]), n))
    isolated = 0
    for src, dst, n in graphs:
        new, old = space.predecessors(src, dst, n), _by_argsort(src, dst, n)
        got = new(np.arange(n))
        assert got.dtype == np.int64
        assert np.array_equal(got, src[np.lexsort((src, dst))])
        nodes = rng.integers(0, n, 2 * n)
        assert np.array_equal(_per_node(new, nodes, dst, n), _per_node(old, nodes, dst, n))
        isolated += n - len(np.union1d(src, dst))
    assert isolated > 0


def test_atom_of_a_ternary_predicate_is_a_flag():
    # Atoms of arity above two are flags of their predicate; two of them
    # in a state still make the value 1.
    domain = """
    (define (domain tern)
      (:predicates (p ?x) (q ?x) (link ?x ?y ?z))
      (:action mark :parameters (?x) :precondition (and (p ?x))
               :effect (and (q ?x))))
    """
    instance = """
    (define (problem t2) (:domain tern) (:objects a b)
      (:init (p a) (p b) (link a a b) (link b a a))
      (:goal (and (q a) (q b))))
    """
    gp = _ground(domain, instance)
    sp = space.expand_labeled(gp)
    pol = po.parse_policy("feature 0 1 bool Atom(link)\nfeature 1 1 num q\n"
                          "rule f1=0 -> f1++\n")
    _check(pol, gp, sp)
    assert pol.evaluate(co.InstanceContext(gp), sp.states)[:, 0].tolist() \
        == [1] * sp.n_states


@pytest.mark.parametrize("pred,arity", [("clear", 1), ("on", 2)])
def test_atom_of_a_unary_or_binary_predicate_is_an_error(pred, arity, tmp_path, capsys):
    # `clear` and `on` are a concept and a role and have no flag: both
    # evaluators reject an Atom of them by name and arity, not read it as 0
    # (|clear| reads 1 on a tower).
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",))
    ictx = co.InstanceContext(gp)
    assert po.parse_policy("feature 0 1 num clear\n").evaluate(ictx, gp.init[None]).tolist() \
        == [[1]]
    message = (f"Atom({pred}) needs a predicate of arity 0 or above 2, "
               f"and '{pred}' has arity {arity}")
    text = f"feature 0 1 bool Atom({pred})\nrule f0 -> !f0\n"
    pol = po.parse_policy(text)
    for evaluate in (lambda: pol.evaluate(ictx, gp.init[None]),
                     lambda: po.greedy_execute(pol, gp)):
        with pytest.raises(GenpolError) as raised:
            evaluate()
        assert str(raised.value) == message

    (tmp_path / "domain.pddl").write_text(domains.BLOCKS_DOMAIN)
    (tmp_path / "instance.pddl").write_text(domains.clear_tower_instance(3))
    (tmp_path / "policy.txt").write_text(text)
    for command in ("verify", "run"):
        rc = cli.main([command, "--domain", str(tmp_path / "domain.pddl"),
                       "--instance", str(tmp_path / "instance.pddl"), "--goal-params", "b1",
                       "--policy", str(tmp_path / "policy.txt")])
        assert rc == 2, command
        assert capsys.readouterr().err == f"error: {message}\n", command


# A domain of nullary, unary and binary predicates, `r` static or, with
# `LINK_ACTION`, dynamic, and an instance of it without objects.
BARE_DOMAIN = """
(define (domain bare)
  (:predicates (fresh) (done) (p ?x) (r ?x ?y))
  (:action finish :parameters () :precondition (and (fresh))
           :effect (and (done) (not (fresh))))
  {})
"""
LINK_ACTION = "(:action link :parameters (?x ?y) :precondition (and (p ?x)) " \
              ":effect (and (r ?x ?y)))"
BARE_INSTANCE = "(define (problem none) (:domain bare) (:init (fresh)) (:goal (and (done))))"
BARE_FEATURES = [("bool", "Atom(done)"), ("num", "Not(p)"), ("num", "Dist(Top,r,Top,Top)"),
                 ("num", "Exists(r_plus,Top)")]


@pytest.mark.parametrize("link", ["", LINK_ACTION], ids=["static", "dynamic"])
def test_an_instance_without_objects_reads_alike_in_both_evaluators(link):
    # No object: sets are empty, a role has one empty object slot, and an
    # unreachable distance is n + 1 = 1, by `Policy.evaluate` and by deltas.
    gp = _ground(BARE_DOMAIN.format(link), BARE_INSTANCE)
    assert gp.objects == [] and ("r" in gp.domain.static_predicates()) == (not link)
    pol = po.parse_policy("".join(f"feature {i} 1 {kind} {expr}\n" for i, (kind, expr)
                                  in enumerate(BARE_FEATURES)) + "rule !f0 -> f0\n")
    ictx = co.InstanceContext(gp)
    assert pol.evaluate(ictx, gp.init[None]).tolist() == [[0, 0, 1, 0]]
    assert co.DeltaContext(ictx, gp.init, pol.features).values() == [0, 0, 1, 0]
    everything = _with_free_features("rule true -> nop\n", BARE_FEATURES)
    assert _delta_walk(everything, gp, random.Random(0), 3) == 1
    assert _check(pol, gp, space.expand_labeled(gp)).ok
    assert po.verify_exhaustive(pol, gp).ok
    run = po.greedy_execute(pol, gp)
    assert (run.status, run.trajectory) == ("goal", ["finish()"])


# Feature sets covering every constructor: Forall, Equal, inverse, closure of
# an inverse, a goal role of a predicate the goal does not mention, types,
# nullary atoms, and distances with an
# empty source or target, whose value is n + 1 in every state.
# name -> (domain, instance, goal params, features, rules, ids of the
# distances with an empty end)
FEATURE_CASES = {
    "blocks": (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",), [
        "1 bool Atom(arm-empty)", "1 num clear",
        "3 num Forall(on_plus,clear)", "4 num Exists(on_inv_plus,Nominal(goal0))",
        "3 num Exists(on_inv,Top)", "4 num Not(Equal(on,on_g))",
        "3 num Exists(on_g,Top)", "3 bool And(Nominal(goal0),holding)",
        "5 num Dist(Nominal(goal0),on_inv,Top,clear)",
        "5 num Dist(Bot,on,Top,clear)", "5 num Dist(Nominal(goal0),on,Top,Bot)",
    ], "rule f0 -> !f0 | f9-- | f2++\nrule !f0 -> f0 f3--\n", (9, 10)),
    "gripper": (domains.GRIPPER_DOMAIN, domains.gripper_instance(2, seed=3), (), [
        "3 num Forall(at_g,at-robby)", "4 num Not(Equal(at,at_g))",
        "3 num Exists(carry_g,Top)", "3 num Exists(at_inv,Top)",
        "4 num Exists(carry_inv_plus,Top)", "1 num type(ball)",
        "3 num Exists(carry,Top)", "2 num Not(free)",
        "6 num Dist(at-robby,at_inv,Top,Not(type(room)))",
    ], "rule f6=0 -> f6++ | f0++\nrule f6>0 -> f6-- f1-- | f0--\n", ()),
    "visitall": (domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 1)), (), [
        "2 num Not(visited)", "5 num Dist(at-robot,connected,Top,Not(visited))",
        "4 num Dist(Bot,connected,Top,visited)",
        "4 num Dist(at-robot,connected,Top,Bot)",
        "6 num Dist(at-robot,connected_inv_plus,Not(visited),visited)",
        "3 num Forall(connected,visited)", "4 num Exists(connected_inv,Not(visited))",
        "1 num visited_g", "3 num Equal(connected,connected_g)",
    ], "rule f0>0 -> f0-- | f1--\nrule true -> nop\n", (2, 3)),
}


@pytest.mark.parametrize("name", sorted(FEATURE_CASES))
def test_feature_constructors_batch_equals_per_state(name):
    domain_text, instance_text, goal_params, feats, rules, empty_end = \
        FEATURE_CASES[name]
    text = "".join(f"feature {i} {f}\n" for i, f in enumerate(feats)) + rules
    pol = po.parse_policy(text)
    gp = _ground(domain_text, instance_text, goal_params)
    sp = space.expand_labeled(gp)
    _check(pol, gp, sp)
    vals = pol.evaluate(co.InstanceContext(gp), sp.states)
    for j in empty_end:
        assert (vals[:, j] == len(gp.objects) + 1).all(), feats[j]


def test_space_larger_than_one_block():
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(8))
    sp = space.expand_labeled(gp)
    assert sp.n_states == 11_776 > po.BLOCK_STATES
    pol = po.parse_policy((POLICY_DIR / "gripper.txt").read_text())
    assert _check(pol, gp, sp).ok


def _block_case(name):
    """(policy, ground problem) of a verify case: the fixed policies, the
    unsafe, stuck and cyclic cases of `VERIFY_CASES`, a policy without
    features and a space without transitions."""
    if name in FIXED:
        policy_file, domain_text, instance_text, goal_params, _ = FIXED[name]
        text = (POLICY_DIR / f"{policy_file}.txt").read_text()
    elif name in VERIFY_CASES:
        text, domain_text, instance_text, goal_params = VERIFY_CASES[name]
    elif name == "no-features":
        text, domain_text, instance_text, goal_params = (
            "rule true -> nop\n", domains.GRIPPER_DOMAIN,
            domains.gripper_instance(2, seed=1), ())
    else:  # "no-transitions": one cell, visited at the start
        text, domain_text, instance_text, goal_params = (
            (POLICY_DIR / "visitall.txt").read_text(), domains.VISITALL_DOMAIN,
            domains.visitall_instance(1, 1, (0, 0)), ())
    return po.parse_policy(text), _ground(domain_text, instance_text, goal_params)


@pytest.mark.parametrize("name", sorted(FIXED) + [
    "reckless", "lazy", "wander", "no-features", "no-transitions"])
def test_verify_space_is_the_same_at_every_block_size(name, monkeypatch):
    pol, gp = _block_case(name)
    sp = space.expand_labeled(gp)
    vals = pol.evaluate(co.InstanceContext(gp), sp.states)
    n = sp.n_transitions
    compat = sp.alive[sp.src] & pol.compatible_mask(vals[sp.src], vals[sp.dst])
    dead_end = sp.goal_dist[sp.dst] < 0
    moves = np.bincount(sp.src[compat], minlength=sp.n_states)
    calls = []
    mask = po.Policy.compatible_mask

    def recording(self, src, dst):
        calls.append((src, dst))
        return mask(self, src, dst)

    monkeypatch.setattr(po.Policy, "compatible_mask", recording)
    results = []
    for block in sorted({1, 7, n - 1, n, n + 1} - {-1, 0}):
        monkeypatch.setattr(po, "MASK_BLOCK", block)
        calls.clear()
        got = po.verify_space(pol, sp, vals)
        # One call per block, in transition order, on that block's values.
        assert [len(s) for s, _ in calls] == [
            min(block, n - lo) for lo in range(0, n, block)], block
        for key, side in ((0, sp.src), (1, sp.dst)):
            gathered = [c[key] for c in calls] or [vals[:0]]
            assert np.array_equal(np.concatenate(gathered), vals[side]), block
        assert (got.n_compatible, got.complete, got.safe) == (
            int(compat.sum()), not (sp.alive & (moves == 0)).any(),
            not (compat & dead_end).any()), block
        results.append(got)
    # The unblocked mask decides the whole result: one block of n + 1
    # transitions computes exactly `compat`, and every other size agrees.
    assert all(r == results[-1] for r in results)
    assert results[-1].ok == (results[-1].witness is None)
    want = {"reckless": "compatible transition burn() from state 0 reaches dead end 1",
            "lazy": "alive state 0 has no compatible transition",
            "wander": "compatible cycle through state 1",
            "visitall-bad": "alive state 39 has no compatible transition"}
    assert results[-1].witness == want.get(name, results[-1].witness)
    if name == "no-features":
        assert compat.sum() == sp.alive[sp.src].sum() and not results[-1].acyclic
    if name == "no-transitions":
        assert n == 0 and results[-1].ok


def _peak_bytes(f, *args):
    """(f(*args), its peak allocation above what was allocated before the
    call, what it still holds after the call), in bytes by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


def test_expansion_and_verification_hold_one_copy_of_the_transitions(monkeypatch):
    # gripper-8: 60,416 transitions and three features, so a gather of the
    # whole value table for the sources and the targets takes 2 * 3 * 8 =
    # 48 bytes per transition, and building `src`, `dst` and `act` while
    # all three per-level lists live takes 24 beyond the result.
    gp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(8))
    space.expand(gp)  # builds the ground problem's lazy mask tables
    sp, peak, held = _peak_bytes(space.expand, gp)
    n = sp.n_transitions
    assert n == 60_416 and held >= 3 * 8 * n
    assert peak - held < 22 * n
    space.label_goal_distances(sp)
    pol = po.parse_policy((POLICY_DIR / "gripper.txt").read_text())
    ictx = co.InstanceContext(gp)
    # Evaluation peaks at the temporaries of one block of `BLOCK_STATES`
    # states: 3.5 MB here by tracemalloc, whatever the space's size.
    vals, peak, _ = _peak_bytes(pol.evaluate, ictx, sp.states)
    assert sp.n_states == 11_776 and peak < 4_000_000
    monkeypatch.setattr(po, "MASK_BLOCK", 1024)
    got, peak, _ = _peak_bytes(po.verify_space, pol, sp, vals)
    assert got.ok and len(pol.features) == 3
    assert peak < 32 * n


# Lines of 63, 64, 65 and 130 cells, one object per cell, so sets take one,
# one, two and three words.  The robot starts at the right end with all but
# the leftmost cell visited, which keeps each space at 2 * width - 1 states;
# object names sort as loc-0-0, loc-1-0, loc-10-0, ..., so neighbours sit in
# different words.
LINE_FEATURES = [
    "4 num Exists(connected_plus,at-robot)", "4 num Exists(connected_inv,Not(visited))",
    "3 num Forall(connected,visited)", "3 num Equal(connected,connected_g)",
    "4 num Not(Equal(connected,connected_g))",
    "5 num Dist(at-robot,connected,Top,Not(visited))",
    "6 num Dist(at-robot,connected_inv_plus,Not(visited),visited)",
    "4 num Dist(Bot,connected,Top,visited)", "4 bool And(at-robot,visited_g)",
]


@pytest.mark.parametrize("width", [63, 64, 65, 130])
def test_word_boundaries_match_the_oracle(width):
    gp = _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(
        width, 1, (width - 1, 0), visited=[(x, 0) for x in range(1, width)]))
    assert len(gp.objects) == width
    sp = space.expand_labeled(gp)
    assert sp.n_states == 2 * width - 1
    text = "".join(f"feature {i} {f}\n" for i, f in enumerate(LINE_FEATURES))
    pol = po.parse_policy(text + "rule f5>0 -> f5-- | f1--\n")
    _check(pol, gp, sp)
    # No denotation sets a bit past the objects, which `popcounts` would count.
    ctx = co.state_context(co.InstanceContext(gp), sp.states)
    for f in pol.features:
        f.values(ctx)
    assert len(ctx.memo) > len(pol.features) and oracles.bits_past_objects(ctx) == []
    assert _check(po.parse_policy((POLICY_DIR / "visitall.txt").read_text()),
                  gp, sp).ok


def _random_rows(gp, n, rng):
    """n seeded packed rows with each dynamic bit set at random."""
    bits = rng.integers(0, 2, (n, 64 * gp.words), dtype=np.uint8)
    bits[:, len(gp.dynamic):] = 0
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


# Objects of two types named alternately, so the atoms of `held`, `at` and
# the ternary `route` skip every other object; 66 and 131 objects make sets
# of two and three words.
GAPS_DOMAIN = """
(define (domain gaps) (:requirements :typing) (:types ball room)
  (:predicates (held ?b - ball) (at ?b - ball ?r - room) (lit)
               (route ?a - room ?b - ball ?c - room))
  (:action go :parameters (?b - ball ?r - room) :precondition (held ?b)
           :effect (and (not (held ?b)) (at ?b ?r) (lit) (route ?r ?b ?r))))
"""


def _gaps_instance(n):
    objects = " ".join(f"x{i:03d} - {'ball' if i % 2 else 'room'}" for i in range(n))
    return (f"(define (problem gaps-{n}) (:domain gaps) (:objects {objects})"
            f" (:init (held x001)) (:goal (lit)))")


def _table_problems():
    """(name, ground problem, reachable states or None) of every table case."""
    for name, prob, params in (("clear", "prob05", ("b1",)), ("gripper", "prob04", ()),
                               ("visitall", "prob3x3", ())):
        bench = ROOT / "benchmarks" / name
        gp = _ground((bench / "domain.pddl").read_text(),
                     (bench / f"{prob}.pddl").read_text(), params)
        yield f"benchmark-{name}", gp, space.expand(gp).states
    for seed in (0, 7):
        for case in workloads.verify_cases(ROOT, seed)[:3]:
            gp = workloads._ground(case)
            yield f"{case.name}-{seed}", gp, space.expand(gp).states
        for case in workloads.run_cases(ROOT, seed):
            yield f"{case.name}-{seed}", workloads._ground(case), None
    for width in (63, 64, 65, 130):
        gp = _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(
            width, 1, (width - 1, 0), visited=[(x, 0) for x in range(1, width)]))
        yield f"line-{width}", gp, space.expand(gp).states
    for n in (7, 66, 131):
        yield f"gaps-{n}", _ground(GAPS_DOMAIN, _gaps_instance(n)), None
    rng = random.Random(24)
    for k in range(200):
        domain, instance = domains.random_strips_problem(rng)
        yield f"random-{k}", _ground(domain, instance), None


def _static_kinds(gp, static):
    """(arity, kind) of each predicate of `static`: "true" when one of its
    atoms holds in the initial state, "false" when a type-consistent one does
    not, and "goal false" when the goal names one that does not."""
    dom, init = gp.domain, set(gp.instance.init)
    typed = lambda t: [o for o in gp.objects if dom.is_subtype(gp.object_types[o], t)]
    kinds = set()
    for p in (dom.predicates[name] for name in static):
        atoms = [(p.name, *args) for args in itertools.product(*map(typed, p.arg_types))]
        kinds.update((p.arity, kind) for kind, hit in (
            ("true", any(a in init for a in atoms)),
            ("false", not all(a in init for a in atoms)),
            ("goal false", any(a[0] == p.name and a not in init for a in gp.instance.goal)))
            if hit)
    return kinds


def _atomic_expressions(dom):
    """The flag `Atom(p)` of each predicate of another arity than 1 and 2,
    and the concepts and roles of the atoms and goal atoms of the unary and
    binary predicates."""
    preds = sorted(dom.predicates.values(), key=lambda p: p.name)
    return ([features.NullaryFeature(p.name) for p in preds if p.arity not in (1, 2)],
            [c(p.name) for p in preds if p.arity == 1
             for c in (co.PrimitiveConcept, co.GoalConcept)],
            [r(p.name) for p in preds if p.arity == 2 for r in (co.PrimitiveRole, co.GoalRole)])


def test_tables_match_the_scatter_oracle():
    # The bit-field kernel against unpacking and scattering every bit, on
    # reachable states and on seeded random rows.  Flags are compared as
    # `tables` returns them, by whether a predicate has an atom.  A table
    # holds the dynamic predicates only; every predicate's atoms, static or
    # not, and its goal atoms are read through a state context over the same
    # rows and checked against the set semantics.  The random domains have
    # static predicates of arity 0 to 3, and atoms of them true and false in
    # the initial state and named by the goal.
    rng = np.random.default_rng(24)
    seen, kinds = set(), set()
    for name, gp, states in _table_problems():
        ictx = co.InstanceContext(gp)
        dynamic = {gp.atoms[a][0] for a in gp.dynamic}
        tabled = ictx.unary_preds + ictx.binary_preds + ictx.flag_preds
        assert sorted([*tabled, *ictx.static_preds]) == sorted(gp.domain.predicates)
        seen.update(("flag" if p in ictx.flag_preds else "set", p in dynamic) for p in tabled)
        kinds |= _static_kinds(gp, ictx.static_preds)
        flags, concepts, roles = _atomic_expressions(gp.domain)
        unpack = oracles.unpacker(gp)
        for rows in (states, _random_rows(gp, 64, rng), gp.init[None]):
            if rows is None:
                continue
            got, want = ictx.tables(rows), oracles.scatter_tables(ictx, rows)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), name
            rows = rows[:4]  # the set semantics is slow on many objects
            ctx = co.state_context(ictx, rows)
            for s, state in enumerate(map(unpack, rows)):
                for f in flags:
                    assert f.values(ctx)[s] == oracles.feature_value(f, gp, state), name
                for c in concepts:
                    got = _names(ctx.members(ctx.concept(c))[s], ictx)
                    assert got == oracles.naive_eval_state(c, gp, state), (name, co.render(c))
                for r in roles:
                    got = _pairs(ctx.members(ctx.role(r))[s], ictx)
                    assert got == oracles.naive_eval_state(r, gp, state), (name, co.render(r))
    assert seen == {("flag", True), ("flag", False), ("set", True), ("set", False)}
    assert kinds == {(arity, kind) for arity in range(4)
                     for kind in ("true", "false", "goal false")}


# Greedy runs past one word of objects, up to the sizes the delta rules are
# measured at: the clear towers are unstacked by `on_plus`, whose rows the
# closure rule keeps, and visitall's `Dist` keeps its searches by source.
SCALE_CASES = {
    "gripper": ("gripper", lambda: instances.gripper(62, random.Random(5), "gripper-62")),
    "visitall": ("visitall", lambda: instances.visitall(9, 8, (4, 3), "visitall-9x8")),
    "clear": ("clear", lambda: instances.clear_tower(70, random.Random(5), "clear-70")),
    "clear-100": ("clear", lambda: instances.clear_tower(100, random.Random(6), "clear-100")),
    "gripper-400": ("gripper", lambda: instances.gripper(400, random.Random(6), "gripper-400")),
    "visitall-28x28": ("visitall", lambda: instances.visitall(28, 28, (9, 20), "visitall-28x28")),
    "clear-150": ("clear", lambda: instances.clear_tower(150, random.Random(7), "clear-150")),
    "visitall-50x50": ("visitall", lambda: instances.visitall(50, 50, (17, 33), "visitall-50x50")),
}
# A random tie break evaluates every successor of a step, about 400 on
# gripper-400; by deltas, in a few seconds for the run.  visitall-50x50 is
# left out: its runs take 0.2-0.4 s, but the replay of each about 1.5 s.
SCALE_RUNS = [(tie_break, case) for tie_break in ("first", "random") for case in SCALE_CASES
              if case != "visitall-50x50"]


@pytest.mark.parametrize("tie_break,case", SCALE_RUNS, ids=map("-".join, SCALE_RUNS))
def test_greedy_plans_on_more_than_64_objects_replay_to_the_goal(tie_break, case):
    name, make = SCALE_CASES[case]
    inst = make()
    gp = _ground((ROOT / "benchmarks" / name / "domain.pddl").read_text(),
                 inst.pddl(), inst.goal_params)
    assert len(gp.objects) > 64
    pol = po.parse_policy((POLICY_DIR / f"{name}.txt").read_text())
    run = po.greedy_execute(pol, gp, tie_break=tie_break, seed=3)
    assert run.solved and run.steps == len(run.trajectory) > 60
    assert instances.replay(inst, run.trajectory) is None


# Greedy runs that must repeat those of the loop that evaluates every
# successor (`oracles.eager_greedy_execute`).  Gripper steps have up to 60
# successors; the clear tower's putdowns and stacks take the successor at
# position n - 2 near the end; visitall steps have at most 4 successors.
# The stuck policies pick one ball, then find no move among 17 successors,
# so every successor of that state is read, once through an inverse role.
EAGER_LOOP_CASES = {
    "gripper-30": ("gripper", lambda: instances.gripper(30, random.Random(1), "g"), None),
    "clear-52": ("clear", lambda: instances.clear_tower(52, random.Random(1), "c"), None),
    "visitall-6x5": ("visitall", lambda: instances.visitall(6, 5, (2, 2), "v"), None),
    "gripper-30-stuck": ("gripper", lambda: instances.gripper(30, random.Random(1), "g"),
                         "feature 0 3 num Exists(carry,Top)\nrule f0=0 -> f0++\n"),
    "gripper-30-stuck-inverse": (
        "gripper", lambda: instances.gripper(30, random.Random(1), "g"),
        "feature 0 3 num Exists(carry_inv,Top)\nrule f0=0 -> f0++\n"),
}


def _eager_loop_case(name):
    domain, make, text = EAGER_LOOP_CASES[name]
    inst = make()
    gp = _ground((ROOT / "benchmarks" / domain / "domain.pddl").read_text(),
                 inst.pddl(), inst.goal_params)
    return gp, po.parse_policy(text or (POLICY_DIR / f"{domain}.txt").read_text())


def _positions(gp, trajectory):
    """Per step of a run, the position of the action taken among the
    state's successors, and the number of successors of every state; the
    successors come from the mask test of `transitions`."""
    state, taken, counts = gp.init, [], []
    for action in trajectory:
        _, aids, succ = gp.transitions(state[None])
        taken.append([gp.actions[a] for a in aids].index(action))
        counts.append(len(aids))
        state = succ[taken[-1]]
    return taken, counts + [len(gp.transitions(state[None])[1])]


@pytest.mark.parametrize("name", list(EAGER_LOOP_CASES))
def test_greedy_execution_matches_the_eager_loop(name):
    gp, pol = _eager_loop_case(name)
    for tie_break, seed in [("first", 0), ("random", 0), ("random", 1),
                            ("random", 2), ("random", 3)]:
        got = po.greedy_execute(pol, gp, tie_break=tie_break, seed=seed)
        want = oracles.eager_greedy_execute(pol, gp, tie_break=tie_break, seed=seed)
        assert (got.status, got.steps, got.trajectory) == \
            (want.status, want.steps, want.trajectory), (tie_break, seed)
        if tie_break == "first":
            taken, counts = _positions(gp, got.trajectory)
            assert (taken, counts) == _positions(gp, want.trajectory)
            if name == "clear-52":
                assert max(taken) >= 48  # a move near the end of its list
            if name.startswith("gripper"):
                assert max(counts) > 16
            if name.startswith("gripper-30-stuck"):
                assert got.status == "no_compatible"
                assert counts[-1] > 16


def test_first_tie_break_evaluates_fewer_states(monkeypatch):
    evaluated = []
    successor = co.DeltaContext.successor

    def counting(self, aid):
        evaluated.append(aid)
        return successor(self, aid)

    gp, pol = _eager_loop_case("clear-52")
    with monkeypatch.context() as m:
        m.setattr(co.DeltaContext, "successor", counting)
        run = po.greedy_execute(pol, gp)
    assert run.solved
    # Each step reads its successors up to the one it takes, of all of them.
    taken, counts = _positions(gp, run.trajectory)
    assert taken == _positions(gp, oracles.eager_greedy_execute(pol, gp).trajectory)[0]
    assert len(evaluated) == sum(taken) + len(taken) < sum(counts)


def _delta_checked_run(pol, gp, monkeypatch, **kw):
    """(run, checked): `greedy_execute` of a policy, and the number of
    successors that it evaluated by deltas, each of which got the feature
    values that `Policy.evaluate` gives on its row, as did the first state."""
    rows, checked, made = {}, [], []
    successors, successor = gp.successors, co.DeltaContext.successor
    compatible, init = po.Policy.compatible, co.DeltaContext.__init__

    def listing(row):  # the successor rows from the mask test of `transitions`
        aids = successors(row)
        _, want, succ = gp.transitions(row[None])
        assert np.array_equal(aids, want)
        rows.clear()
        rows.update(zip(aids.tolist(), succ))
        return aids

    def evaluating(self, aid):
        checked.append([rows[aid]])
        return successor(self, aid)

    def testing(self, src, dst):  # one test per successor evaluated, of its values
        checked[-1].append(list(dst))
        return compatible(self, src, dst)

    def making(self, *args):
        made.append(args)
        init(self, *args)
        checked.append([gp.init, self.values()])

    with monkeypatch.context() as m:
        m.setattr(gp, "successors", listing)
        m.setattr(co.DeltaContext, "successor", evaluating)
        m.setattr(co.DeltaContext, "__init__", making)
        m.setattr(po.Policy, "compatible", testing)
        run = po.greedy_execute(pol, gp, **kw)
    assert len(made) == 1
    ictx = co.InstanceContext(gp)
    for lo in range(0, len(checked), 256):
        block = checked[lo:lo + 256]
        assert [values for _, values in block] == \
            pol.evaluate(ictx, np.stack([row for row, _ in block])).tolist()
    return run, len(checked) - 1


# Gripper runs by deltas: perfbench's gripper-100 of two seeds, the scale
# cases and the eager-loop cases; (tie break, seed) of each run.
DELTA_CASES = {
    "perfbench-0": [("first", 0), ("random", 3)],
    "perfbench-7": [("first", 0), ("random", 3)],
    "gripper": [("first", 0), ("random", 3)],
    "gripper-400": [("first", 0)],
    "gripper-30": [("first", 0), ("random", 1)],
    "gripper-30-stuck": [("first", 0), ("random", 1)],
}


@pytest.mark.parametrize("name", list(DELTA_CASES))
def test_delta_path_values_equal_evaluate_on_gripper_runs(name, monkeypatch):
    if name.startswith("perfbench-"):
        case = workloads.run_cases(ROOT, int(name.split("-")[1]))[0]
        gp, pol = workloads._ground(case), case.policy
    elif name in EAGER_LOOP_CASES:
        gp, pol = _eager_loop_case(name)
    else:
        inst = SCALE_CASES[name][1]()
        gp = _ground((ROOT / "benchmarks" / "gripper" / "domain.pddl").read_text(),
                     inst.pddl(), inst.goal_params)
        pol = po.parse_policy((POLICY_DIR / "gripper.txt").read_text())
    for tie_break, seed in DELTA_CASES[name]:
        run, checked = _delta_checked_run(pol, gp, monkeypatch, tie_break=tie_break, seed=seed)
        assert checked >= run.steps + (run.status == "no_compatible")
        if name != "gripper-400":  # the eager loop evaluates ~400 successors a step
            want = oracles.eager_greedy_execute(pol, gp, tie_break=tie_break, seed=seed)
            assert (run.status, run.steps, run.trajectory) == \
                (want.status, want.steps, want.trajectory), (tie_break, seed)


def _with_free_features(text: str, free) -> po.Policy:
    """The policy `text` with the features `free`, (kind, expression) pairs,
    added, each free to keep or change its value in every alternative: the
    moves stay those of `text`, and every move reads the added values."""
    pol = po.parse_policy(text)
    k = len(pol.features)
    lines = [line for line in text.splitlines() if line.startswith("feature ")]
    lines += [f"feature {k + i} 1 {kind} {expr}" for i, (kind, expr) in enumerate(free)]
    changes = [["", f"f{j}++", f"f{j}--"] if kind == "num" else ["", f"f{j}", f"!f{j}"]
               for j, (kind, _) in enumerate(free, k)]
    for line in text.splitlines():
        if line.startswith("rule "):
            body, alts = line[len("rule "):].split("->")
            alts = [" ".join(t for t in (alt.strip(), *more) if t and t != "nop") or "nop"
                    for alt in alts.split("|") for more in itertools.product(*changes)]
            lines.append(f"rule {body.strip()} -> {' | '.join(alts)}")
    return po.parse_policy("\n".join(lines) + "\n")


# Free features that each delta rule keeps, per domain: a closure of a
# functional role (`on`), of a role that is not (`at_inv`), and of a
# static one; inverse roles, and inverse closures; `Dist` over a static
# role and restriction, from a fixed source (only its targets change) and
# from the robot, and over a dynamic restriction or role; `Atom`.
FREE_FEATURES = {
    "clear": [("num", "Exists(on_inv_plus,Nominal(goal0))"), ("num", "Exists(on_inv,Top)"),
              ("num", "Forall(on_plus,Not(clear))"), ("bool", "Atom(arm-empty)"),
              ("num", "Dist(Nominal(goal0),on,Top,on-table)"),
              ("num", "Dist(clear,on_plus,Not(holding),Nominal(goal0))"),
              ("num", "Not(Equal(on_plus,on_g_plus))")],
    "gripper": [("num", "Exists(at_inv_plus,Top)"), ("num", "Exists(carry_inv_plus,Top)"),
                ("num", "Exists(at,Exists(at_inv,Exists(at_g,at-robby)))"),
                ("num", "Dist(at-robby,at_inv,free,Exists(at_g,Not(at-robby)))")],
    "visitall": [("num", "Dist(Nominal(goal0),connected,Top,Not(visited))"),
                 ("num", "Dist(at-robot,connected,Not(visited),Not(visited))"),
                 ("num", "Dist(at-robot,connected_plus,Top,Not(visited))"),
                 ("num", "Exists(connected_inv,visited)")],
}


# Runs by deltas of every kind of rule: perfbench's clear and visitall
# runs of two seeds, by (index in `workloads.run_cases`, seed), and runs of
# the fixed policies with their domain's `FREE_FEATURES`, by (domain,
# instance, goal parameters, (tie break, seed) of each run).
KIND_CASES = {
    "perfbench-0-clear": (1, 0), "perfbench-7-clear": (1, 7),
    "perfbench-0-visitall": (2, 0), "perfbench-7-visitall": (2, 7),
    "clear-12-free": ("clear", lambda: instances.clear_tower(12, random.Random(2), "c"), (),
                      [("first", 0), ("random", 1), ("random", 2)]),
    "clear-30-free": ("clear", lambda: instances.clear_tower(30, random.Random(3), "c"), (),
                      [("first", 0)]),
    "gripper-8-free": ("gripper", lambda: instances.gripper(8, random.Random(3), "g"), (),
                       [("first", 0), ("random", 1), ("random", 2)]),
    "visitall-6x5-free": ("visitall", lambda: instances.visitall(6, 5, (2, 2), "v"),
                          ["loc-5-4"], [("first", 0), ("random", 1), ("random", 2)]),
    "visitall-9x8-free": ("visitall", lambda: instances.visitall(9, 8, (4, 3), "v"),
                          ["loc-0-0"], [("first", 0)]),
}


@pytest.mark.parametrize("name", list(KIND_CASES))
def test_delta_path_values_equal_evaluate_on_runs_of_every_rule(name, monkeypatch):
    if name.startswith("perfbench-"):
        i, seed = KIND_CASES[name]
        case = workloads.run_cases(ROOT, seed)[i]
        gp, pol, runs = workloads._ground(case), case.policy, [("first", 0), ("random", 3)]
    else:
        domain, make, goal_params, runs = KIND_CASES[name]
        inst = make()
        gp = _ground((ROOT / "benchmarks" / domain / "domain.pddl").read_text(),
                     inst.pddl(), goal_params or inst.goal_params)
        pol = _with_free_features((POLICY_DIR / f"{domain}.txt").read_text(),
                                  FREE_FEATURES[domain])
    for tie_break, seed in runs:
        run, checked = _delta_checked_run(pol, gp, monkeypatch, tie_break=tie_break, seed=seed)
        assert run.solved and checked >= run.steps
        want = oracles.eager_greedy_execute(pol, gp, tie_break=tie_break, seed=seed)
        assert (run.status, run.steps, run.trajectory) == \
            (want.status, want.steps, want.trajectory), (tie_break, seed)


def _delta_vocabulary(gp):
    """The atomic concepts and roles of a ground problem's domain: Top, Bot,
    types, nominals (constants and goal parameters), and each unary and
    binary predicate and its goal version."""
    dom = gp.domain
    atoms = [co.Top(), co.Bot(), *map(co.TypeConcept, dom.types),
             *(co.Nominal(c) for c, _ in dom.constants),
             *(co.Nominal(f"goal{i}") for i in range(len(gp.instance.goal_params)))]
    roles = []
    for p in sorted(dom.predicates.values(), key=lambda p: p.name):
        if p.arity == 1:
            atoms += [co.PrimitiveConcept(p.name), co.GoalConcept(p.name)]
        elif p.arity == 2:
            roles += [co.PrimitiveRole(p.name), co.GoalRole(p.name)]
    return atoms, roles


def _random_role(rng, roles, depth):
    """A random role over `roles`: one of them, or, `depth` deep at most,
    the inverse or the closure of a random role."""
    k = rng.randrange(4) if depth else 0
    if k in (1, 2):
        return (co.InverseRole, co.ClosureRole)[k - 1](_random_role(rng, roles, depth - 1))
    return rng.choice(roles)


def _random_concept(rng, atoms, roles, depth):
    """A random concept over `atoms` and `roles`, at most `depth`
    constructors deep; an Equal mostly pairs a role with its goal version."""
    k = rng.randrange(6) if depth else 5
    child = lambda: _random_concept(rng, atoms, roles, depth - 1)
    if k == 0:
        return co.Not(child())
    if k == 1:
        return co.And(child(), child())
    if k in (2, 3) and roles:
        return (co.Exists, co.Forall)[k - 2](_random_role(rng, roles, 2), child())
    if k == 4 and roles:
        r = rng.choice(roles)
        twin = (co.GoalRole if type(r) is co.PrimitiveRole else co.PrimitiveRole)(r.name)
        return co.RoleEqual(r, _random_role(rng, roles, 2) if rng.random() < 0.3 else twin)
    return rng.choice(atoms)


def _random_feature(rng, gp, atoms, roles):
    """(kind, expression) of a random feature of the whole grammar: the
    count of a random concept, bool or num, an `Atom` of a random predicate
    of arity 0 or above 2, or a `Dist` of random concepts and a random role."""
    k = rng.randrange(6)
    flags = sorted(p.name for p in gp.domain.predicates.values() if p.arity not in (1, 2))
    if k == 0 and flags:
        return "bool", f"Atom({rng.choice(flags)})"
    if k == 1 and roles:
        s, x, t = (_random_concept(rng, atoms, roles, 2) for _ in range(3))
        return "num", f"Dist({co.render(s)},{co.render(_random_role(rng, roles, 2))}," \
                      f"{co.render(x)},{co.render(t)})"
    return rng.choice(["bool", "num"]), co.render(_random_concept(rng, atoms, roles, 3))


def _delta_walk(pol, gp, rng, steps: int) -> int:
    """Walks `steps` random steps, self loops skipped and states revisited,
    evaluating every successor of each step by deltas (`_moves` of a
    policy that accepts them all), and checks their values, and those of
    the first state, against `Policy.evaluate`; returns the number of
    successors checked."""
    ictx = co.InstanceContext(gp)
    kept = co.DeltaContext(ictx, gp.init, pol.features)
    state, src = gp.init, kept.values()
    assert [src] == pol.evaluate(ictx, gp.init[None]).tolist()
    checked = 0
    for _ in range(steps):
        _, aids, succ = gp.transitions(state[None])
        options = list(po._moves(pol, kept, src, gp.successors(state)))
        assert [aid for aid, _, _ in options] == aids.tolist()
        assert [dst for _, dst, _ in options] == pol.evaluate(ictx, succ).tolist()
        checked += len(aids)
        moves = [i for i in range(len(aids)) if (succ[i] != state).any()]
        if not moves:
            break
        i = rng.choice(moves)
        _, src, change = options[i]
        kept.apply(change)
        state = succ[i]
    return checked


def _nodes(expr):
    yield expr
    for f in expr.children:
        yield from _nodes(getattr(expr, f))


# Count features that read inverse rows of `at` on gripper with three
# rooms: the balls in the robot's room, and those of a goal room that the
# robot is not in.  A drop puts a ball in a row of the inverse of `at` that
# did not hold it, and a move then reads the rows of two rooms only, which
# need not include the ball's first room.
GRIPPER_WALK_CONCEPTS = ["Exists(at,at-robby)", "Forall(at,Not(at-robby))",
                         "Exists(at_g,Not(at-robby))", "Not(Equal(at,at_g))"]
GRIPPER_ROOMS_INSTANCE = """
(define (problem rooms) (:domain gripper)
  (:objects r1 r2 r3 - room b1 b2 b3 b4 b5 b6 - ball left right - gripper)
  (:init (at-robby r1) (free left) (free right) (at b1 r1) (at b2 r1)
         (at b3 r2) (at b4 r2) (at b5 r3) (at b6 r1))
  (:goal (and (at b1 r3) (at b2 r3) (at b3 r3) (at b4 r1))))
"""

# Features of the walks on the benchmark domains and on the ring, whose
# `link` closes cycles and has two edges out of o0 (`domains.RING_DOMAIN`).
WALK_FEATURES = {
    "ring": [("num", "Exists(link_plus,Top)"), ("num", "Forall(link_plus,Exists(link_inv_plus,Top))"),
             ("num", "Exists(link_inv_plus,Nominal(goal0))"),
             ("num", "Dist(Nominal(goal0),link,Top,Not(Exists(link,Top)))"),
             ("num", "Dist(Nominal(goal0),next_plus,Exists(link_inv,Top),Exists(link_plus,Top))")],
}


def _delta_walk_cases():
    """(ground problem, features, steps) of each random walk: random
    features of the whole grammar on seeded random STRIPS problems, every
    other one with a goal parameter, and on one problem of 69 objects (two
    words per set) with a dynamic binary predicate; `GRIPPER_WALK_CONCEPTS`
    and gripper's `FREE_FEATURES` on a gripper instance of three rooms; and
    the `FREE_FEATURES` and `WALK_FEATURES` of blocksworld, visitall and
    the ring."""
    rng = random.Random(29)
    problems = [(random.Random(seed), 5, ["o0"] if seed % 2 else []) for seed in range(150)]
    problems.append((random.Random(24), 100, []))
    for prng, max_objects, goal_params in problems:
        domain, instance = domains.random_strips_problem(prng, max_objects)
        gp = _ground(domain, instance, goal_params)
        atoms, roles = _delta_vocabulary(gp)
        free = [_random_feature(rng, gp, atoms, roles) for _ in range(rng.randint(1, 4))]
        yield gp, free, 30 if max_objects == 5 else 6
    gp = _ground((ROOT / "benchmarks" / "gripper" / "domain.pddl").read_text(),
                 GRIPPER_ROOMS_INSTANCE)
    yield gp, [("num", c) for c in GRIPPER_WALK_CONCEPTS] + FREE_FEATURES["gripper"], 300
    tower = instances.clear_tower(9, random.Random(4), "c")
    yield (_ground((ROOT / "benchmarks" / "clear" / "domain.pddl").read_text(),
                   tower.pddl(), tower.goal_params), FREE_FEATURES["clear"], 300)
    yield (_ground(domains.VISITALL_DOMAIN, domains.visitall_instance(4, 3, (1, 1)),
                   ["loc-3-2"]), FREE_FEATURES["visitall"], 100)
    yield _ground(domains.RING_DOMAIN, domains.ring_instance(6), ["o3"]), WALK_FEATURES["ring"], 30


def _walk_marks(gp, feats):
    """What the walks must cover, besides each class: the kinds, static
    operands, a Forall over an empty row, an Equal of a role and its goal
    version, closures of a functional and of another role in the first
    state, `Dist` over a static and over a dynamic role or restriction, and
    `Atom` of a dynamic and of a static predicate."""
    ctx = co.state_context(co.InstanceContext(gp), gp.init[None])
    static = gp.domain.static_predicates()
    marks = set()
    for f in feats:
        marks.add("bool" if f.is_boolean else "num")
        if isinstance(f, features.NullaryFeature) and f.pred in gp.domain.predicates:
            marks.add("static Atom" if f.pred in static else "dynamic Atom")
        if isinstance(f, features.DistanceFeature):
            marks.add("static Dist" if co.state_independent(f.role, static)
                      and co.state_independent(f.restrict, static) else "dynamic Dist")
        for e in _nodes(f):
            marks.add(type(e).__name__)
            if isinstance(e, (co.PrimitiveConcept, co.PrimitiveRole)) and e.name in static:
                marks.add("static")
            if isinstance(e, co.Forall) and not ctx.role(e.role)[0].any(axis=-1).all():
                marks.add("Forall over an empty row")
            if isinstance(e, co.RoleEqual) and {type(e.left), type(e.right)} == {
                    co.PrimitiveRole, co.GoalRole} and e.left.name == e.right.name:
                marks.add("Equal of a role and its goal version")
            if isinstance(e, co.ClosureRole):
                functional = oracles.functional(ctx.role(e.base))
                marks.add("functional closure" if functional else "closure")
    return marks


def test_delta_path_values_equal_evaluate_on_random_walks():
    rng = random.Random(29)
    seen, wide, total = set(), 0, 0
    for gp, free, steps in _delta_walk_cases():
        pol = _with_free_features("rule true -> nop\n", free)
        checked = _delta_walk(pol, gp, rng, steps)
        if not checked:
            continue
        total += checked
        seen |= _walk_marks(gp, pol.features)
        if len(gp.objects) > 64:
            wide += checked
    assert seen >= {"bool", "num", "static", "Forall over an empty row",
                    "Equal of a role and its goal version", "functional closure", "closure",
                    "static Dist", "dynamic Dist", "static Atom", "dynamic Atom"} | {
        cls.__name__ for forms in co.FORMS.values() for cls in forms}
    assert wide > 1000 and total > 5000


POLICY_TEXTS = [(POLICY_DIR / f"{n}.txt").read_text()
                for n in ("clear", "gripper", "visitall", "visitall-bad")] + [
    "feature 0 1 num clear\nfeature 1 1 bool holding\nrule f0>0 -> f0--\n",
    "feature 0 1 num clear\nrule true -> nop | f0--\n",
    "feature 0 1 bool holding\nrule f0 -> !f0 | f0 !f0\nrule !f0 -> f0\n",
]


@pytest.mark.parametrize("text", POLICY_TEXTS)
def test_compatible_mask_matches_compatible(text):
    pol = po.parse_policy(text)
    rng = np.random.default_rng(7)
    src = rng.integers(0, 3, size=(2000, len(pol.features)))
    dst = np.where(rng.random(src.shape) < 0.5, src,
                   rng.integers(0, 3, size=src.shape))
    want = [oracles._allows(pol, a, b) for a, b in zip(src.tolist(), dst.tolist())]
    assert pol.compatible_mask(src, dst).tolist() == want
    assert any(want) and not all(want)
    # `compatible` is the one-row case, and a bool.
    got = [pol.compatible(a, b) for a, b in zip(src[:200].tolist(), dst[:200].tolist())]
    assert got == want[:200] and {type(ok) for ok in got} == {bool}


def _random_tokens(rng, forms, n) -> list:
    """Tokens of `forms` (``{}`` the feature id) for some of n features,
    now and then one feature twice."""
    picked = [i for i in range(n) if rng.random() < 0.4]
    picked += [i for i in picked if rng.random() < 0.3]
    return [rng.choice(forms).format(i) for i in picked]


def _random_policy_text(rng) -> str:
    """A policy of 0-4 features and 0-4 rules: bodies may be empty, an
    alternative may be nop, set and clear may act on numeric features, a
    feature may be both conditioned on and changed, and a body or an
    alternative may name a feature twice."""
    kinds = [rng.choice(["bool holding", "num clear"]) for _ in range(rng.randrange(5))]
    lines = [f"feature {i} 1 {kind}" for i, kind in enumerate(kinds)]
    for _ in range(rng.randrange(5) if kinds else rng.randrange(2)):
        body = _random_tokens(rng, ["f{}", "!f{}", "f{}>0", "f{}=0"], len(kinds))
        alts = [" ".join(_random_tokens(rng, ["f{}", "!f{}", "f{}++", "f{}--"], len(kinds)))
                or "nop" for _ in range(rng.randint(1, 3))]
        lines.append(f"rule {' '.join(body) or 'true'} -> {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def test_compatible_mask_matches_the_oracle_on_random_policies():
    rng = random.Random(5)
    values = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        pol = po.parse_policy(_random_policy_text(rng))
        n = rng.randint(1, 6)  # values up to n + 1, the unreachable distance
        src = values.integers(0, n + 2, size=(200, len(pol.features)))
        dst = np.where(values.random(src.shape) < 0.6, src,
                       values.integers(0, n + 2, size=src.shape))
        want = [oracles._allows(pol, a, b) for a, b in zip(src.tolist(), dst.tolist())]
        assert pol.compatible_mask(src, dst).tolist() == want
        seen.add((len(pol.features) > 0, len(pol.rules) > 0, any(want), all(want)))
    # Zero features and zero rules came up, as did mixed verdicts.
    assert {(False, False, False, False), (False, True, True, True),
            (True, False, False, False), (True, True, True, False)} <= seen


# Each unknown name and its message, unchanged since the names were first
# checked.
UNKNOWN_NAMES = {
    "Nominal(nosuch)":
        "nominal 'nosuch' is not a constant or goal parameter of instance "
        "'visitall-3x2'",
    "vsited": "unknown unary predicate 'vsited'",
    "vsited_g": "unknown unary predicate 'vsited'",
    "type(nosuch)": "unknown type 'nosuch'",
    "Atom(nosuch)": "unknown predicate 'nosuch'",
    "Exists(conected,Top)": "unknown binary predicate 'conected'",
    "Exists(conected_g,Top)": "unknown binary predicate 'conected'",
    "Dist(at-robot,connected,Top,Nominal(goal0))":
        "nominal 'goal0' is not a constant or goal parameter of instance "
        "'visitall-3x2'",
}


@pytest.mark.parametrize("text", list(UNKNOWN_NAMES))
def test_unknown_names_raise_the_per_state_error(text, tmp_path, capsys):
    gp = _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(3, 2, (0, 0)))
    sp = space.expand_labeled(gp)
    kind = "bool" if text.startswith("Atom(") else "num"  # an atom is bool
    pol = po.Policy([features.parse_feature(2, "num", "Not(visited)"),
                     features.parse_feature(3, kind, text)], [])
    with pytest.raises(GenpolError) as raised:
        pol.evaluate(co.InstanceContext(gp), sp.states)
    assert str(raised.value) == UNKNOWN_NAMES[text]

    domain = tmp_path / "domain.pddl"
    domain.write_text(domains.VISITALL_DOMAIN)
    instance = tmp_path / "instance.pddl"
    instance.write_text(domains.visitall_instance(3, 2, (0, 0)))
    policy_file = tmp_path / "policy.txt"
    policy_file.write_text(f"feature 0 2 num Not(visited)\nfeature 1 3 {kind} {text}\n"
                           f"rule f0>0 -> f0--\n")
    for command in ("verify", "run"):
        rc = cli.main([command, "--domain", str(domain), "--instance", str(instance),
                       "--policy", str(policy_file)])
        assert rc == 2, command
        assert capsys.readouterr().err == f"error: {UNKNOWN_NAMES[text]}\n", command
