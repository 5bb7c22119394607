"""Seeded token-mutation fuzz of the PDDL front end: whatever the input,
parsing and grounding end in a result or in a `GenpolError`.  The 3,000
inputs take about a second."""

import random
import re
from pathlib import Path

import pytest

from genpol import pddl
from genpol.errors import GenpolError

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
CASES = {"clear": "prob05.pddl", "gripper": "prob04.pddl", "visitall": "prob3x3.pddl"}
TOKEN = re.compile(r"[()]|[^\s()]+")
# Tokens that steer the parser into its other branches.
EXTRA = ["(", ")", "-", "?x", "?y", "and", "not", "or", "forall", "when", "=",
         "either", "object", ":action", ":parameters", ":precondition", ":effect",
         ":types", ":constants", ":predicates", ":objects", ":init", ":goal",
         ":functions", ":metric", ":domain", "define", "domain", "problem", ";"]
MUTANTS = 1000  # per domain, half of them mutate the domain, half the instance


def _mutate(tokens: list, rng: random.Random) -> str:
    out = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        op = rng.randrange(4)
        if op == 0:
            del out[i]
        elif op == 1:
            out.insert(i, rng.choice(out))
        elif op == 2:
            j = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = rng.choice(EXTRA)
        if not out:
            break
    return " ".join(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_pddl_raises_only_genpol_errors(name):
    domain_text = (BENCHMARKS / name / "domain.pddl").read_text()
    instance_text = (BENCHMARKS / name / CASES[name]).read_text()
    domain_tokens = TOKEN.findall(domain_text)
    instance_tokens = TOKEN.findall(instance_text)
    dom0 = pddl.parse_domain(domain_text)
    rng = random.Random(f"fuzz-{name}")
    outcomes = {"ok": 0, "error": 0}
    for k in range(MUTANTS):
        mutate_domain = k % 2 == 0
        text = _mutate(domain_tokens if mutate_domain else instance_tokens, rng)
        try:
            dom = pddl.parse_domain(text) if mutate_domain else dom0
            inst = pddl.parse_instance(instance_text if mutate_domain else text, dom)
            pddl.ground(dom, inst, max_actions=10_000)
            outcomes["ok"] += 1
        except GenpolError:
            outcomes["error"] += 1
    assert outcomes["ok"] and outcomes["error"], outcomes
