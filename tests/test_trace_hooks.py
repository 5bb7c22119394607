"""The benchmark's tracer (perfbench/tracing.py) still finds and wraps every
function it traces, where the callers look each one up, and the wrapped
names still carry the work: verification and greedy execution evaluate
features through `concepts.state_context` and `Policy.evaluate`.

A renamed or moved function would make `perfbench/run.py --trace 1` fail
at install time, or silently record no span for a layer.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

import domains  # noqa: E402
from genpol import pddl, policy as po, space  # noqa: E402

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
    # Feature values are evaluated through the traced names in both parts.
    for op in (0, 1):
        assert calls["concepts.state_context", op] >= 1
        assert calls["policy.evaluate", op] >= 1
    assert tracer.counters[1]["policy.greedy_steps"] == 5
    assert moves == [True, False] and all(type(ok) is bool for ok in moves)
    assert calls["policy.compatible", 1] == 2
    assert tracer.counters[1]["policy.compatible_true"] == 1
    assert calls["pddl.ground", 2] == 1
    assert tracer.counters[2]["pddl.ground_actions"] == len(grounded.actions) == 40
