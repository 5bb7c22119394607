"""The three workloads: what one pass does, its inputs, and its checks.

A pass is the unit of timing on every workload.  `cases(root, seed)` builds
a pass's inputs from the seed (generation and policy parsing are set-up, not
timed); `run(case)` is the timed work on one case and returns a plain dict;
`check(case, out)` returns the list of failed checks, empty when the output
is correct.  The checks take only the dict, so a tampered output can be fed
to them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from genpol import pddl, pipeline, policy

import instances

HERE = Path(__file__).resolve().parent
POLICY_FILES = ("clear", "gripper", "visitall", "visitall-bad")


def fixed_policies() -> dict:
    """Policy texts that `learn` outputs at the commit that defined the
    benchmark; `verify` and `run` read them, so learning changes cannot change
    their inputs."""
    return {n: (HERE / "policies" / f"{n}.txt").read_text() for n in POLICY_FILES}


# ---------------------------------------------------------------------------
# learn: one pass learns the three checked-in training instances
# ---------------------------------------------------------------------------

# (domain dir, training instance, goal parameters, max feature weight, cost)
LEARN_SPECS = [
    ("clear", "prob05", ["b1"], 4, 8),       # 8 = weights 1+3+4
    ("gripper", "prob04", [], 8, 10),
    ("visitall", "prob3x3", [], 6, 7),
]


@dataclass
class LearnCase:
    name: str
    config: object
    cost: int
    policy_text: str


def learn_cases(root: Path, seed: int) -> list:
    texts = fixed_policies()
    out = []
    for name, prob, goal_params, k, cost in LEARN_SPECS:
        d = root / "benchmarks" / name
        cfg = pipeline.RunConfig(domain_path=str(d / "domain.pddl"),
                                 training_paths=[str(d / f"{prob}.pddl")],
                                 goal_params=goal_params, max_feature_weight=k,
                                 seed=seed)
        out.append(LearnCase(name, cfg, cost, texts[name]))
    return out


def learn_run(case: LearnCase) -> dict:
    res = pipeline.learn(case.config)
    return {"status": res.status, "cost": res.cost, "verify_ok": res.verify_ok,
            "policy": None if res.policy is None else res.policy.dump()}


def learn_check(case: LearnCase, out: dict) -> list:
    errors = []
    if out["status"] != "ok":
        errors.append(f"status {out['status']}, expected ok")
    if out["cost"] != case.cost:
        errors.append(f"cost {out['cost']}, expected {case.cost}")
    if not out["verify_ok"]:
        errors.append("learned policy fails verification on its training space")
    if out["policy"] != case.policy_text:
        errors.append("policy differs from the fixed policy file")
    return errors


# ---------------------------------------------------------------------------
# verify: exhaustive verification one size step past training
# ---------------------------------------------------------------------------

@dataclass
class InstanceCase:
    name: str
    domain_text: str
    instance: object       # instances.Instance
    problem_text: str
    policy: object         # parsed policy.Policy
    ok: bool = True        # verify: known verdict
    states: int = 0        # verify: known size of the reachable space


# 4x4 visitall: every start cell of one symmetry class gives the same space,
# so the seed varies the instance without varying the work.  Edge cells
# (68,773 states) sit between corners (54,425) and centre cells (79,931).
EDGE_CELLS = [(1, 0), (2, 0), (0, 1), (0, 2), (3, 1), (3, 2), (1, 3), (2, 3)]
VISITALL_4X4_CORNER_STATES = 54_425
VISITALL_4X4_EDGE_STATES = 68_773
GRIPPER_10_STATES = 68_608    # 2 * (2^10 + 20 * 2^9 + 90 * 2^8)
BLOCKS_7_STATES = 65_990      # 37,633 tower sets + 7 * 4,051 with one held


def _case(root, policies, inst, policy_name, **kw) -> InstanceCase:
    domain = {"gripper": "gripper", "blocksworld": "clear",
              "grid-visit-all": "visitall"}[inst.domain]
    return InstanceCase(inst.name,
                        (root / "benchmarks" / domain / "domain.pddl").read_text(),
                        inst, inst.pddl(),
                        policy.parse_policy(policies[policy_name]), **kw)


def verify_cases(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    pol = fixed_policies()
    start = rng.choice(EDGE_CELLS)
    return [
        _case(root, pol, instances.visitall(4, 4, start, "visitall-4x4"),
              "visitall", states=VISITALL_4X4_EDGE_STATES),
        _case(root, pol, instances.gripper(10, rng, "gripper-10"), "gripper",
              states=GRIPPER_10_STATES),
        _case(root, pol, instances.clear_towers(7, rng, "clear-7"), "clear",
              states=BLOCKS_7_STATES),
        # Pinned: with the f0-- f1++ alternative removed, an alive state has
        # no compatible transition, so a verifier that always says ok fails.
        _case(root, pol, instances.visitall(4, 4, (0, 0), "visitall-4x4-bad"),
              "visitall-bad", ok=False, states=VISITALL_4X4_CORNER_STATES),
    ]


def _ground(case: InstanceCase):
    dom = pddl.parse_domain(case.domain_text)
    inst = pddl.parse_instance(case.problem_text, dom, case.instance.goal_params)
    return pddl.ground(dom, inst)


def verify_run(case: InstanceCase) -> dict:
    res = policy.verify_exhaustive(case.policy, _ground(case))
    return {"ok": res.ok, "states": res.n_states}


def verify_check(case: InstanceCase, out: dict) -> list:
    errors = []
    if out["ok"] != case.ok:
        errors.append(f"verdict ok={int(out['ok'])}, expected ok={int(case.ok)}")
    if out["states"] != case.states:
        errors.append(f"{out['states']} states, expected {case.states}")
    return errors


# ---------------------------------------------------------------------------
# run: greedy execution on instances too large to expand
# ---------------------------------------------------------------------------

def run_cases(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    pol = fixed_policies()
    return [
        _case(root, pol, instances.gripper(100, rng, "gripper-100"), "gripper"),
        _case(root, pol, instances.clear_tower(50, rng, "clear-50"), "clear"),
        _case(root, pol, instances.visitall(
            14, 14, (rng.randrange(14), rng.randrange(14)), "visitall-14x14"),
            "visitall"),
    ]


def run_run(case: InstanceCase) -> dict:
    res = policy.greedy_execute(case.policy, _ground(case))
    return {"status": res.status, "steps": res.steps, "plan": res.trajectory}


def run_check(case: InstanceCase, out: dict) -> list:
    errors = []
    if out["status"] != "goal":
        errors.append(f"status {out['status']}, expected goal")
    if len(out["plan"]) != out["steps"]:
        errors.append(f"{len(out['plan'])} actions for {out['steps']} steps")
    bad = instances.replay(case.instance, out["plan"])
    if bad:
        errors.append(f"replay: {bad}")
    return errors


def small_cases(root: Path, seed: int) -> list:
    """Warm-up inputs for verify and run: the fixed policies on instances
    a few hundred states large."""
    rng = random.Random(seed)
    pol = fixed_policies()
    return [
        _case(root, pol, instances.visitall(3, 2, (0, 0), "visitall-3x2"), "visitall"),
        _case(root, pol, instances.gripper(3, rng, "gripper-3"), "gripper"),
        _case(root, pol, instances.clear_towers(4, rng, "clear-4"), "clear"),
    ]


# name -> (cases, warm-up cases, run one case, check one output)
WORKLOADS = {
    "learn": (learn_cases, lambda root, seed: learn_cases(root, seed)[:1],
              learn_run, learn_check),
    "verify": (verify_cases, small_cases, verify_run, verify_check),
    "run": (run_cases, small_cases, run_run, run_check),
}
