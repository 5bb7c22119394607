"""The benchmark's tracer (perfbench/tracing.py) still finds and wraps every
function it traces, where the callers look each one up.

A renamed or moved function would make `perfbench/run.py --trace 1` fail
at install time, or silently record no span for a layer.
"""

import sys
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
        tracer.begin_op(0)
        sp = space.expand_labeled(gp)
        assert po.verify_exhaustive(po.parse_policy(CLEAR_POLICY), gp).ok
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, *_ in tracing.TRACED] == originals

    calls = {}
    for i in tracer.name:
        calls[tracer.names[i]] = calls.get(tracer.names[i], 0) + 1
    # once directly, once through policy's own reference
    assert calls["space.expand_labeled"] == 2
    assert calls["space.expand"] == calls["space.label"] == 2
    assert calls["policy.verify_exhaustive"] == 1
    assert tracer.counters[0]["space.states"] == 2 * sp.n_states
    assert tracer.counters[0]["space.transitions"] == 2 * sp.n_transitions
