"""The benchmark's tracer (perfbench/tracing.py) still finds and wraps every
function it traces, where the callers look each one up, and the wrapped
names still carry the work: verification evaluates features through
`concepts.state_context` and `Policy.evaluate`, and a greedy run, by
deltas, evaluates its first state through `concepts.state_context` only
and tests its moves through `Policy.compatible`.

A renamed or moved function would make `perfbench/run.py --trace 1` fail
at install time, or silently record no span for a layer.  `learn` runs one
MaxSAT search across its constraint-generation rounds, and each round must
still enter it through the traced `maxsat.solve_wcnf`.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

import domains  # noqa: E402
from genpol import pddl, pipeline, policy as po, space  # noqa: E402

CLEAR_POLICY = """\
feature 0 4 num Exists(on_plus,Nominal(goal0))
feature 1 1 bool holding
rule f0>0 !f1 -> f1 f0--
rule f1 -> !f1
"""


def test_tracer_wraps_every_traced_name_and_records_the_space_spans():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(domains.clear_tower_instance(4),
                                              dom, ["b1"]))
    originals = [vars(owner)[attr] for owner, attr, *_ in tracing.TRACED]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises KeyError for a traced name that is gone
        assert all(vars(owner)[attr].__wrapped__ is fn for (owner, attr, *_), fn
                   in zip(tracing.TRACED, originals))
        pol = po.parse_policy(CLEAR_POLICY)
        tracer.begin_op(0)
        sp = space.expand_labeled(gp)
        assert po.verify_exhaustive(pol, gp).ok
        tracer.begin_op(1)
        assert po.greedy_execute(pol, gp).solved
        moves = [pol.compatible((2, 0), (1, 1)), pol.compatible((2, 0), (2, 0))]
        tracer.begin_op(2)
        grounded = pddl.ground(dom, gp.instance)
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, *_ in tracing.TRACED] == originals

    calls = Counter((tracer.names[i], op) for i, op in zip(tracer.name, tracer.op))
    # once directly, once through policy's own reference
    assert calls["space.expand_labeled", 0] == 2
    assert calls["space.expand", 0] == calls["space.label", 0] == 2
    assert calls["policy.verify_exhaustive", 0] == 1
    assert tracer.counters[0]["space.states"] == 2 * sp.n_states
    assert tracer.counters[0]["space.transitions"] == 2 * sp.n_transitions
    # Feature values are evaluated through the traced names in both parts;
    # the greedy run keeps them by deltas after its first state.
    for op in (0, 1):
        assert calls["concepts.state_context", op] >= 1
    assert calls["policy.evaluate", 0] >= 1 and calls["policy.evaluate", 1] == 0
    assert tracer.counters[1]["policy.greedy_steps"] == 5
    # One successor generation per greedy step, through the traced name.
    assert calls["pddl.successors", 1] == 5
    assert moves == [True, False] and all(type(ok) is bool for ok in moves)
    # Each step tests its successors up to its first move, then the two above.
    assert calls["policy.compatible", 1] >= 5 + 2
    assert tracer.counters[1]["policy.compatible_true"] == 5 + 1
    assert calls["pddl.ground", 2] == 1
    assert tracer.counters[2]["pddl.ground_actions"] == len(grounded.actions) == 40


def test_tracer_records_a_greedy_run_by_deltas():
    # A greedy run keeps its feature values by deltas: the first state is
    # evaluated once, through `state_context` only, and every successor
    # read is tested through `compatible`.
    dom = pddl.parse_domain(domains.GRIPPER_DOMAIN)
    gp = pddl.ground(dom, pddl.parse_instance(domains.gripper_instance(4), dom))
    pol = po.parse_policy((ROOT / "perfbench" / "policies" / "gripper.txt").read_text())
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        run = po.greedy_execute(pol, gp)
    finally:
        tracer.uninstall()
    assert run.solved and run.steps > 4
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert calls["pddl.successors"] == run.steps
    assert tracer.counters[0]["policy.greedy_steps"] == run.steps
    assert calls["policy.evaluate"] == 0 and calls["concepts.state_context"] >= 1
    # The first move of each step is a compatible one.
    assert calls["policy.compatible"] >= run.steps
    assert tracer.counters[0]["policy.compatible_true"] == run.steps


def test_tracer_records_every_round_of_a_learn_run():
    visitall = ROOT / "benchmarks" / "visitall"
    config = pipeline.RunConfig(domain_path=str(visitall / "domain.pddl"),
                                training_paths=[str(visitall / "prob3x3.pddl")],
                                max_feature_weight=6)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        res = pipeline.learn(config)
    finally:
        tracer.uninstall()
    rounds = res.facts["iterations"]
    assert res.status == "ok" and rounds == 2
    names = [tracer.names[i] for i in tracer.name]
    parent = list(tracer.parent)
    # One theory built and one search entered per round, in that order.
    assert [n for n in names if n in ("encoding.build_theory", "maxsat.solve_wcnf")] \
        == ["encoding.build_theory", "maxsat.solve_wcnf"] * rounds
    assert tracer.counters[0]["pipeline.rounds"] == rounds

    def inside_search(i):
        while i >= 0 and names[i] != "maxsat.solve_wcnf":
            i = parent[i]
        return i >= 0

    sat_calls = [i for i, n in enumerate(names) if n == "sat.solve"]
    assert sat_calls and all(inside_search(i) for i in sat_calls)
