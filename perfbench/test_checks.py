"""Smoke test of the benchmark's own checks: correct outputs pass, and a
tampered cost, verdict or plan is counted as a failed pass.

    python3 -m pytest -q perfbench/test_checks.py
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import instances  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402


def test_learn_check_counts_a_tampered_cost_or_policy():
    case = w.learn_cases(ROOT, 0)[0]            # clear, the quickest learn
    out = w.learn_run(case)
    assert w.learn_check(case, out) == []
    assert w.learn_check(case, dict(out, cost=out["cost"] + 1))
    assert w.learn_check(case, dict(out, verify_ok=False))
    assert w.learn_check(case, dict(out, policy=out["policy"].replace("f2--", "f2++")))


def test_verify_check_counts_a_flipped_verdict():
    cases = w.verify_cases(ROOT, 0)
    assert [c.ok for c in cases] == [True, True, True, False]
    for case in cases:
        assert w.verify_check(case, {"ok": case.ok, "states": case.states}) == []
        assert w.verify_check(case, {"ok": not case.ok, "states": case.states})
        assert w.verify_check(case, {"ok": case.ok, "states": case.states - 1})


def test_run_check_replays_the_plan():
    for case in w.small_cases(ROOT, 0):
        out = w.run_run(case)
        plan = out["plan"]
        assert w.run_check(case, out) == [], case.name
        assert w.run_check(case, dict(out, status="no_compatible"))
        short = dict(out, plan=plan[:-1], steps=len(plan) - 1)
        assert w.run_check(case, short), case.name
        # No action of these domains can be applied twice in a row.
        doubled = dict(out, plan=plan[:1] + plan, steps=len(plan) + 1)
        assert w.run_check(case, doubled), case.name


def test_replay_rejects_inapplicable_steps():
    inst = instances.clear_tower(3, random.Random(0), "t")
    assert instances.replay(inst, ["pickup(b1)"]) is not None
    assert instances.replay(inst, ["fly(b1)"]) is not None
    assert instances.replay(inst, []) is not None      # goal is not clear yet


def test_a_tampered_output_fails_its_pass():
    cases = w.verify_cases(ROOT, 0)
    lie = lambda case: {"ok": True, "states": case.states}
    with speed.HostSpeed() as host:
        errors = run.run_pass(cases, lie, w.verify_check, host).errors
    assert len(errors) == 1 and "visitall-4x4-bad" in errors[0]

    def boom(case):
        raise RuntimeError("solver crashed")
    with speed.HostSpeed() as host:
        errors = run.run_pass(cases, boom, w.verify_check, host).errors
    assert len(errors) == len(cases) and "solver crashed" in errors[0]


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main(["-q", __file__]))
