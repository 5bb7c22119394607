"""Policy representation, extraction, greedy execution, and verification."""

import hashlib
import re
from pathlib import Path

import pytest

import domains
import oracles
from genpol import concepts as co
from genpol import cli, encoding, features, maxsat, pddl, pipeline, policy as po, space
from genpol.errors import (GenpolError, InternalInvariantError,
                           LimitExceededError, PolicyError)

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

# Blocks-clearing policy over n = blocks above the target and H = holding:
# unstack the tower above the target, putting aside whatever is picked up.
CLEAR_POLICY = """\
feature 0 4 num Exists(on_plus,Nominal(goal0))
feature 1 1 bool holding
rule f0>0 !f1 -> f1 f0--
rule f1 -> !f1
"""


def _ground(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    return pddl.ground(dom, inst)


def _learn_clear(n_blocks=5, k=4):
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(n_blocks),
                 ("b1",))
    sample = space.SampleSet([space.expand_labeled(gp)])
    pool, matrix = features.generate_pool(sample, max_weight=k)
    classes, class_of = encoding.compute_classes(sample, matrix)
    pairs = encoding.initial_pairs(classes, class_of, sample)
    theory = encoding.build_theory(sample, pool, matrix, classes, class_of,
                                   pairs=pairs)
    res = maxsat.solve_wcnf(theory.wcnf)
    assert res.status == maxsat.OPTIMUM
    phi, goods = encoding.decode(theory, res.model)
    assert encoding.validate_solution(classes, phi, goods) == []
    return pool, phi, classes, goods, gp


def test_hand_written_policy_clears_towers():
    pol = po.parse_policy(CLEAR_POLICY)
    for n in (3, 5, 6):
        gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(n),
                     ("b1",))
        report = po.verify_exhaustive(pol, gp)
        assert report.ok, (n, report.witness)
        assert report.complete and report.safe and report.acyclic
        run = po.greedy_execute(pol, gp)
        assert run.solved
        # Minimum plan: alternate unstack / put-aside for the n-1 blocks above.
        assert run.steps == 2 * (n - 1) - 1


def test_hand_written_policy_generalizes_to_random_instances():
    pol = po.parse_policy(CLEAR_POLICY)
    for seed in range(6):
        text, target = domains.clear_random_instance(6, seed)
        gp = _ground(domains.BLOCKS_DOMAIN, text, (target,))
        run = po.greedy_execute(pol, gp)
        assert run.solved, (seed, run.status)


def test_compatible_transition_semantics():
    pol = po.parse_policy(
        "feature 0 1 num clear\n"
        "feature 1 1 bool holding\n"
        "rule f0>0 -> f0--\n")
    assert pol.compatible((2, 0), (1, 0))
    assert not pol.compatible((2, 0), (2, 0))   # mentioned feature must move
    assert not pol.compatible((2, 0), (3, 0))   # wrong direction
    assert not pol.compatible((0, 0), (0, 0))   # body fails
    assert not pol.compatible((2, 0), (1, 1))   # unmentioned feature changed


def test_nop_alternative_requires_stasis():
    pol = po.parse_policy(
        "feature 0 1 num clear\n"
        "rule true -> nop | f0--\n")
    assert pol.compatible((3,), (3,))
    assert pol.compatible((3,), (2,))
    assert not pol.compatible((3,), (4,))


def test_policy_dump_parse_round_trip():
    pol = po.parse_policy(CLEAR_POLICY)
    text = pol.dump()
    again = po.parse_policy(text)
    assert again.dump() == text
    assert [f.render() for f in again.features] == \
        ["Exists(on_plus,Nominal(goal0))", "holding"]
    assert again.rules == pol.rules


def test_policy_parse_errors():
    with pytest.raises(PolicyError):
        po.parse_policy("rule f0 f1\n")  # no arrow
    with pytest.raises(PolicyError):
        po.parse_policy("feature 0 1 bool holding\nrule f1 -> f1\n")
    with pytest.raises(PolicyError):
        po.parse_policy("feature 1 1 bool holding\n")  # sparse ids
    with pytest.raises(PolicyError):
        po.parse_policy("nonsense line\n")


@pytest.mark.parametrize("token", ["f²", "f٣", "f0>1", "!f0++", "f0=0", "g0", "f", "f-1"])
def test_policy_rejects_malformed_effect_tokens(token):
    # Ids are ASCII digits: `f²` passes str.isdigit but is no id.  A
    # condition's form is no effect.
    with pytest.raises(PolicyError, match=f"^line 2: bad token '{re.escape(token)}'$"):
        po.parse_policy(f"feature 0 1 bool holding\nrule true -> {token}\n")


@pytest.mark.parametrize("token", ["f²", "f0++", "!f0>0", "f0>00", "nop"])
def test_policy_rejects_malformed_condition_tokens(token):
    with pytest.raises(PolicyError, match=f"^line 2: bad token '{re.escape(token)}'$"):
        po.parse_policy(f"feature 0 1 num clear\nrule {token} -> nop\n")


def test_cli_run_rejects_a_non_ascii_feature_id(tmp_path, capsys):
    paths = [tmp_path / name for name in ("domain.pddl", "instance.pddl", "policy.txt")]
    for path, text in zip(paths, (ONEWAY_DOMAIN, ONEWAY_INSTANCE,
                                  "feature 0 1 bool fresh\nrule f² -> nop\n")):
        path.write_text(text)
    assert cli.main(["run", "--domain", str(paths[0]), "--instance", str(paths[1]),
                     "--policy", str(paths[2])]) == 2
    assert capsys.readouterr().err == "error: line 2: bad token 'f²'\n"


def test_a_feature_named_twice_must_meet_both_tokens():
    # Every token holds: a body with f0 and !f0 never holds, and an
    # alternative that sets and clears f0 matches no move.
    contradicting = po.parse_policy("feature 0 1 bool holding\nrule f0 !f0 -> nop\n")
    assert not contradicting.compatible((0,), (0,))
    assert not contradicting.compatible((1,), (1,))
    flip = po.parse_policy("feature 0 1 bool holding\nrule true -> f0 !f0\n")
    assert not flip.compatible((1,), (0,)) and not flip.compatible((0,), (1,))
    # Repeats that agree narrow nothing; up and nonzero together narrow.
    both = po.parse_policy("feature 0 1 num clear\nrule f0>0 f0 -> f0-- f0\n")
    assert both.compatible((3,), (2,)) and not both.compatible((1,), (0,))
    assert not both.compatible((0,), (0,))


@pytest.mark.parametrize("line", [
    "feature 0 1 boolean holding",                      # no such kind
    "feature 0 1 Bool holding",
    "feature 0 1 num Atom(arm-empty)",                  # an atom is bool
    "feature 0 3 bool Dist(Nominal(b1),on,Top,clear)",  # a distance is num
])
def test_policy_rejects_unknown_and_contradicting_kinds(line):
    with pytest.raises(PolicyError, match=r"^line 1: bad feature: "):
        po.parse_policy(line + "\nrule true -> nop\n")


def test_extracted_policy_passes_exhaustive_verification():
    pool, phi, classes, goods, gp = _learn_clear()
    pol = po.extract_policy(pool, phi, classes, goods)
    # Invariants: distinct rule bodies, duplicate-free effect alternatives.
    bodies = [r.body for r in pol.rules]
    assert len(set(bodies)) == len(bodies)
    for r in pol.rules:
        assert len(set(r.alternatives)) == len(r.alternatives)
    report = po.verify_exhaustive(pol, gp)
    assert report.ok, report.witness
    # Byte-stable serialization.
    assert po.parse_policy(pol.dump()).dump() == pol.dump()
    # And it generalizes: a taller tower and a random 7-block configuration.
    big = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(8),
                  ("b1",))
    assert po.greedy_execute(pol, big).solved
    text, target = domains.clear_random_instance(7, 3)
    rnd = _ground(domains.BLOCKS_DOMAIN, text, (target,))
    assert po.greedy_execute(pol, rnd).solved


def test_extraction_requires_separated_classes():
    pool, phi, classes, goods, gp = _learn_clear()
    if len(classes) > 1:
        with pytest.raises(InternalInvariantError):
            po.extract_policy(pool, [], classes, [0])


def test_greedy_execution_statuses():
    clear_pol = po.parse_policy(CLEAR_POLICY)

    solved_at_start = _ground(domains.BLOCKS_DOMAIN,
                              domains.clear_tower_instance(1), ("b1",))
    run = po.greedy_execute(clear_pol, solved_at_start)
    assert run.solved and run.steps == 0 and run.trajectory == []

    # A policy that insists on growing the tower has no compatible move.
    stuck = po.parse_policy(
        "feature 0 4 num Exists(on_plus,Nominal(goal0))\n"
        "rule f0>0 -> f0++\n")
    gp3 = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                  ("b1",))
    run = po.greedy_execute(stuck, gp3)
    assert run.status == "no_compatible"

    # Pick/drop in a one-ball gripper revisits the initial state.
    churn = po.parse_policy(
        "feature 0 3 num Exists(carry,Top)\n"
        "rule f0=0 -> f0++\nrule f0>0 -> f0--\n")
    ggp = _ground(domains.GRIPPER_DOMAIN, domains.gripper_instance(1))
    run = po.greedy_execute(churn, ggp)
    assert run.status == "cycle"

    run = po.greedy_execute(clear_pol, gp3, max_steps=1)
    assert run.status == "step_limit"
    assert len(run.trajectory) == 1

    run = po.greedy_execute(clear_pol, gp3, max_steps=0)
    assert run.status == "step_limit" and run.steps == 0
    with pytest.raises(GenpolError, match="max_steps must be non-negative"):
        po.greedy_execute(clear_pol, gp3, max_steps=-5)


def test_unknown_tie_break_is_rejected():
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",))
    with pytest.raises(GenpolError, match="unknown tie_break 'best'"):
        po.greedy_execute(po.parse_policy(CLEAR_POLICY), gp, tie_break="best")


def test_verify_reports_incompleteness():
    lazy = po.parse_policy(
        "feature 0 1 bool holding\n"
        "rule f0 -> !f0\n")
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                 ("b1",))
    report = po.verify_exhaustive(lazy, gp)
    assert not report.ok and not report.complete
    assert "no compatible transition" in report.witness


def test_verify_reports_unsafe_moves():
    reckless = po.parse_policy(
        "feature 0 1 bool Atom(fresh)\n"
        "rule f0 -> !f0\n")
    gp = _ground(ONEWAY_DOMAIN, ONEWAY_INSTANCE)
    report = po.verify_exhaustive(reckless, gp)
    assert report.complete and report.acyclic
    assert not report.safe and not report.ok
    assert "dead end" in report.witness


def test_verify_reports_cycles():
    # Treading water between already-visited cells is complete and safe but
    # cyclic: `nop` permits any move that keeps the unvisited count intact.
    wander = po.parse_policy(
        "feature 0 2 num Not(visited)\n"
        "rule true -> nop | f0--\n")
    gp = _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)))
    report = po.verify_exhaustive(wander, gp)
    assert report.complete and report.safe
    assert not report.acyclic and not report.ok
    assert "cycle" in report.witness


# (policy text, domain, instance, goal params) for each verdict: one policy
# passes, and each of the others breaks one certificate condition.
VERIFY_CASES = {
    "clear": (CLEAR_POLICY, domains.BLOCKS_DOMAIN,
              domains.clear_tower_instance(4), ("b1",)),
    "lazy": ("feature 0 1 bool holding\nrule f0 -> !f0\n",
             domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",)),
    "reckless": ("feature 0 1 bool Atom(fresh)\nrule f0 -> !f0\n",
                 ONEWAY_DOMAIN, ONEWAY_INSTANCE, ()),
    "wander": ("feature 0 2 num Not(visited)\nrule true -> nop | f0--\n",
               domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)),
               ()),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_exhaustive_equals_verify_space(name):
    text, domain_text, instance_text, goal_params = VERIFY_CASES[name]
    pol = po.parse_policy(text)
    gp = _ground(domain_text, instance_text, goal_params)
    sp = space.expand_labeled(gp)
    vals = [[oracles.feature_value(f, gp, s) for f in pol.features]
            for s in oracles.state_sets(sp)]
    assert pipeline.verify_space(pol, sp, vals) == po.verify_exhaustive(pol, gp)


def test_verify_complete_and_check_descending():
    pol = po.parse_policy(CLEAR_POLICY)
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                 ("b1",))
    report = po.verify_exhaustive(pol, gp)
    assert report.complete and report.witness is None

    above = co.parse("Exists(on_plus,Nominal(goal0))", co.CONCEPT)
    holding = co.parse("holding", co.CONCEPT)

    unpack = oracles.unpacker(gp)

    def n_then_h(row):
        state = unpack(row)
        return (len(oracles.naive_eval_state(above, gp, state)),
                len(oracles.naive_eval_state(holding, gp, state)))

    ok, witness = oracles.check_descending(pol, gp, n_then_h)
    assert ok and witness is None

    # The swapped tuple is not a termination certificate: picking a block up
    # raises H while n only drops in the second position.
    def h_then_n(row):
        return tuple(reversed(n_then_h(row)))

    ok, witness = oracles.check_descending(pol, gp, h_then_n)
    assert not ok and witness is not None

    lazy = po.parse_policy("feature 0 1 bool holding\nrule f0 -> !f0\n")
    report = po.verify_exhaustive(lazy, gp)
    assert not report.complete
    assert re.fullmatch(r"alive state \d+ has no compatible transition",
                        report.witness)


def test_check_descending_honours_the_state_cap():
    pol = po.parse_policy(CLEAR_POLICY)
    gp = _ground(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                 ("b1",))  # 125 reachable states
    with pytest.raises(LimitExceededError):
        oracles.check_descending(pol, gp, lambda s: (0,), max_states=124)
    # A constant tuple never descends.
    ok, witness = oracles.check_descending(pol, gp, lambda s: (0,), max_states=125)
    assert not ok and witness is not None


# The fixed visitall policy, Dist(at-robot,connected,Top,Not(visited)) over a
# static role; its trajectories and values are pinned to those of the BFS
# evaluator that read no distance tables.
VISITALL_POLICY = (Path(__file__).resolve().parents[1] / "perfbench" / "policies"
                   / "visitall.txt").read_text()


def _visitall(width, height, start):
    return _ground(domains.VISITALL_DOMAIN, domains.visitall_instance(width, height, start))


@pytest.mark.parametrize("tie_break,seed,steps,digest", [
    ("first", 0, 99, "2227243f50a165eaca205a822aa3f35c62b327430865f979b9e99dbf2d67f872"),
    ("random", 3, 124, "6ac122c91781579bcd3e78553d2c91a31da44b1d8f031585819e7ee40b7337ac"),
], ids=["first", "random"])
def test_visitall_greedy_trajectory_is_pinned(tie_break, seed, steps, digest):
    res = po.greedy_execute(po.parse_policy(VISITALL_POLICY), _visitall(10, 10, (3, 6)),
                            tie_break=tie_break, seed=seed)
    assert (res.status, res.steps) == ("goal", steps)
    assert hashlib.sha256("\n".join(res.trajectory).encode()).hexdigest() == digest


def test_visitall_policy_values_are_pinned():
    gp = _visitall(4, 4, (1, 0))
    sp = space.expand(gp)
    vals = po.parse_policy(VISITALL_POLICY).evaluate(co.InstanceContext(gp), sp.states)
    assert vals.shape == (68_773, 2)
    assert hashlib.sha256(vals.astype("<i8").tobytes()).hexdigest() == \
        "37811fb1a45e5422e17de5ef50a39b8b1a6d690290f616628340a86978b8a057"
