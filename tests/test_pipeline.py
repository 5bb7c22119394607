"""End-to-end pipeline behavior and the command line interface."""

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import domains
from genpol import cli, encoding, maxsat, pipeline, policy as po, space
from genpol.errors import GenpolError


@pytest.fixture
def clear_files(tmp_path):
    dom = tmp_path / "domain.pddl"
    dom.write_text(domains.BLOCKS_DOMAIN)
    train = tmp_path / "train.pddl"
    train.write_text(domains.clear_tower_instance(5))
    return str(dom), str(train)


def _clear_config(clear_files, **kw):
    dom, train = clear_files
    base = dict(domain_path=dom, training_paths=[train], goal_params=["b1"],
                max_feature_weight=4)
    base.update(kw)
    return pipeline.RunConfig(**base)


def test_learn_clear_end_to_end(clear_files):
    result = pipeline.learn(_clear_config(clear_files))
    assert result.status == "ok" and result.exit_code == 0
    assert result.cost == 8
    assert result.verify_ok
    assert result.facts["iterations"] == 1
    pol = result.policy
    assert sorted(f.render() for f in pol.features) == [
        "And(Nominal(goal0),holding)",
        "Exists(on_plus,Nominal(goal0))",
        "holding",
    ]
    lines = result.machine().splitlines()
    assert all("=" in line for line in lines)
    report = dict(line.split("=", 1) for line in lines)
    assert report["status"] == "ok"
    assert report["optimum_cost"] == "8"
    assert report["n_selected"] == "3"
    assert report["instance.0.states"] == "866"
    assert report["n_alive_transitions"] == "1161"
    assert report["verify.0.ok"] == "1"
    # The human report carries the same headline facts.
    assert "optimum cost" in result.human()
    assert "pass" in result.human()


def test_learn_is_deterministic(clear_files):
    a = pipeline.learn(_clear_config(clear_files))
    b = pipeline.learn(_clear_config(clear_files))
    assert a.machine() == b.machine()
    assert a.policy.dump() == b.policy.dump()


def test_learn_matches_manual_stage_composition(clear_files):
    cfg = _clear_config(clear_files)
    result = pipeline.learn(cfg)

    prep = pipeline.prepare(cfg)
    theory = pipeline.build_theory(prep, pipeline.start_pairs(prep, cfg), cfg)
    res = maxsat.solve_wcnf(theory.wcnf)
    assert res.cost == result.cost
    phi, goods = encoding.decode(theory, res.model)
    manual = po.extract_policy(prep.pool, phi, prep.classes, goods)
    assert manual.dump() == result.policy.dump()


def test_rounds_continue_one_search(monkeypatch):
    # Visitall 3x3 takes two rounds.  The second continues the first's
    # search on one solver, and finds the optimum a fresh search finds on
    # the whole theory of that round.  The search of both rounds is pinned
    # as `PINNED_SEARCH` pins a fresh one: the model's sha256 and the SAT
    # calls, conflicts, decisions and propagations summed over the
    # Cdcl.solve calls that return.
    made = []
    counts = [0, 0, 0, 0]

    class Counted(maxsat.Cdcl):
        def __init__(self):
            super().__init__()
            made.append(self)

        def solve(self, *args, **kwargs):
            before = (0, self.conflicts, self.decisions, self.propagations)
            result = super().solve(*args, **kwargs)
            after = (1, self.conflicts, self.decisions, self.propagations)
            counts[:] = [n + b - a for n, a, b in zip(counts, before, after)]
            return result

    monkeypatch.setattr(maxsat, "Cdcl", Counted)
    visitall = Path(__file__).resolve().parent.parent / "benchmarks" / "visitall"
    cfg = pipeline.RunConfig(domain_path=str(visitall / "domain.pddl"),
                             training_paths=[str(visitall / "prob3x3.pddl")],
                             max_feature_weight=6)
    prep = pipeline.prepare(cfg)
    fix = pipeline.solve_fixpoint(prep, pipeline.start_pairs(prep, cfg), cfg)
    assert fix.iterations == 2 and len(made) == 1
    assert len(fix.theory.pairs) == 936
    model = hashlib.sha256(bytes(fix.result.model)).hexdigest()
    assert (model, *counts) == (
        "818b1944103663292591c5a41ed21fd5db942e174220e3dfd474010b5f7a8531",
        8, 18, 5958, 18081)
    assert fix.result.cost == maxsat.solve_wcnf(fix.theory.wcnf).cost == 7


def test_learn_reports_unsat_for_weak_feature_pool(clear_files):
    result = pipeline.learn(_clear_config(clear_files, max_feature_weight=1))
    assert result.status == "unsat" and result.exit_code == 1
    assert "no policy in feature space" in result.message
    assert result.policy is None
    assert "status=unsat" in result.machine()


def _random_problem_files(tmp_path, seed):
    """Domain and instance files of `domains.random_strips_problem` at `seed`."""
    paths = tmp_path / "domain.pddl", tmp_path / "instance.pddl"
    for path, text in zip(paths, domains.random_strips_problem(random.Random(seed))):
        path.write_text(text)
    return [str(p) for p in paths]


@pytest.mark.parametrize("goal_params", ["B1", " b1 ", "b1,"])
def test_goal_parameters_are_names_in_any_case(tmp_path, goal_params):
    # PDDL names are read lower-cased, and so are goal parameters; the
    # spaces around one are not part of it.
    clear = Path(__file__).resolve().parents[1] / "benchmarks" / "clear"
    outs = []
    for i, params in enumerate(["b1", goal_params]):
        rc = cli.main(["learn", "--domain", str(clear / "domain.pddl"),
                       "--training", str(clear / "prob05.pddl"), "--goal-params", params,
                       "--max-feature-weight", "4", "--out", str(tmp_path / str(i))])
        assert rc == 0
        outs.append([(tmp_path / str(i) / name).read_bytes()
                     for name in ("report.kv", "policy.txt")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("seed,is_goal", [(1, False), (3, True)])
def test_learn_with_an_empty_pool(tmp_path, capsys, seed, is_goal):
    # Each space is one state, a dead end at seed 1 and a goal at seed 3, so
    # every candidate feature is constant and the pool is empty.  A dead-end
    # initial state is refused: the theory constrains alive states only, so
    # nothing would be learned or checked.  At the goal, no alive state
    # needs a move and no goal state needs telling from a non-goal one, so
    # selecting nothing satisfies the theory: an empty policy at cost 0 that
    # passes verification.  A goal and a non-goal state would end in
    # `unsat` (test_encoding's empty-pool witness).
    domain, instance = _random_problem_files(tmp_path, seed)
    out = tmp_path / "out"
    rc = cli.main(["learn", "--domain", domain, "--training", instance,
                   "--ignore-high-arity", "--max-feature-weight", "4",
                   "--out", str(out)])
    if not is_goal:
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: initial state of training instance 'rnd-807952' is a dead end: "
            "no goal is reachable\n")
        return
    assert rc == 0
    report = dict(line.split("=", 1) for line in (out / "report.kv").read_text().splitlines())
    assert (report["status"], report["instance.0.states"], report["pool_size"],
            report["optimum_cost"], report["n_rules"], report["verify.0.ok"]) == (
        "ok", "1", "0", "0", "0", "1")
    assert report["n_hard"] == "1"  # the goal state's value clause
    policy = po.parse_policy((out / "policy.txt").read_text())
    assert (policy.features, policy.rules) == ([], [])
    assert "Traceback" not in capsys.readouterr().err


def test_stages_refuse_a_dead_end_training_instance(tmp_path, capsys):
    # Seed 18's initial state is a dead end of a 520-state space with a
    # pool of 37 features; every stage that prepares a sample names it.
    domain, instance = _random_problem_files(tmp_path, 18)
    flags = ["--domain", domain, "--training", instance, "--ignore-high-arity",
             "--max-feature-weight", "4"]
    model = tmp_path / "model.txt"
    model.write_text("v 1\n")
    for argv in (["learn", *flags], ["features", *flags],
                 ["encode", *flags, "--out-prefix", str(tmp_path / "theory")],
                 ["extract", *flags, "--model", str(model)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: initial state of training instance 'rnd-")
        assert captured.err.endswith("' is a dead end: no goal is reachable\n")
    assert not (tmp_path / "theory.wcnf").exists()


def test_a_dead_end_initial_state_is_reported_once(tmp_path):
    # Through a subprocess, as a user sees it: the warning goes through
    # `logging` to stderr, which the test run's own capture would take.
    # Training refuses the instance with the error alone; verification
    # goes on, warns once and checks the policy on the space.
    domain, instance = _random_problem_files(tmp_path, 18)
    policy = tmp_path / "policy.txt"
    policy.write_text("rule true -> nop\n")
    src = str(Path(__file__).resolve().parents[1] / "src")

    def genpol(*argv):
        return subprocess.run([sys.executable, "-m", "genpol.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))

    learn = genpol("learn", "--domain", domain, "--training", instance,
                   "--ignore-high-arity", "--max-feature-weight", "4")
    assert (learn.returncode, learn.stdout, learn.stderr) == (
        2, "", "error: initial state of training instance 'rnd-272009' is a dead end: "
               "no goal is reachable\n")
    verify = genpol("verify", "--domain", domain, "--instance", instance,
                    "--policy", str(policy))
    assert verify.returncode == 0 and verify.stdout.startswith("states=520\n")
    assert verify.stderr == "initial state of 'rnd-272009' is a dead end: no goal is reachable\n"


def test_learn_on_random_problems_ends_in_a_report_or_a_typed_error(tmp_path):
    # 100 seeded random problems, about two thirds of them with an empty
    # pool: `learn` returns a result or raises a GenpolError.
    seen = set()
    for seed in range(100):
        domain, instance = _random_problem_files(tmp_path, seed)
        config = pipeline.RunConfig(domain_path=domain, training_paths=[instance],
                                    max_feature_weight=4, ignore_high_arity=True)
        try:
            result = pipeline.learn(config)
        except GenpolError:
            seen.add("error")
            continue
        seen.add((result.status, result.facts["pool_size"] == 0))
    assert {("ok", True), ("ok", False), ("unsat", False)} <= seen


_SAMPLE_KV = """\
v_slack=2
n_instances=1
instance.0.name=clear-5
instance.0.states=866
instance.0.alive_transitions=1161
instance.0.max_goal_distance=7
n_states=866
n_alive_transitions=1161
max_goal_distance=7
"""

# Complete report.kv of the clear-5 fixture at each max_feature_weight:
# a policy (4), an infeasible pool (1), an unsatisfiable theory (3).
_EXPECTED_KV = {
    4: "status=ok\nseed=0\nmax_feature_weight=4\n" + _SAMPLE_KV + """\
pool_size=38
n_classes=46
n_vars=2323
n_hard=6678
n_soft=38
n_clauses_full=6716
n_pairs=1035
iterations=1
optimum_cost=8
n_selected=3
selected=holding:1;And(Nominal(goal0),holding):3;Exists(on_plus,Nominal(goal0)):4
n_rules=3
verify.0.ok=1
verify.0.complete=1
verify.0.safe=1
verify.0.acyclic=1
""",
    1: "status=unsat\nseed=0\nmax_feature_weight=1\n" + _SAMPLE_KV + """\
pool_size=3
n_classes=4
n_vars=2246
n_hard=1
n_soft=3
n_clauses_full=16
n_pairs=0
iterations=1
message=no policy in feature space: goal state 20 and non-goal state 1 have identical feature values
""",
    3: "status=unsat\nseed=0\nmax_feature_weight=3\n" + _SAMPLE_KV + """\
pool_size=15
n_classes=30
n_vars=2284
n_hard=5475
n_soft=15
n_clauses_full=5490
n_pairs=435
iterations=1
message=no policy in feature space: theory is unsatisfiable
""",
}


@pytest.mark.parametrize("weight", sorted(_EXPECTED_KV))
def test_learn_reports_pinned(clear_files, weight):
    result = pipeline.learn(_clear_config(clear_files,
                                          max_feature_weight=weight))
    assert result.machine() == _EXPECTED_KV[weight]
    ok = result.status == "ok"
    assert result.verify_ok == ok and (result.policy is not None) == ok
    assert result.cost == (8 if ok else None)
    if not ok:
        assert result.message in result.machine()
    # report.txt lists the stage times in stage order.
    times = [line.split()[1] for line in result.human().splitlines()
             if line.startswith("time ")]
    stages = ["expand", "pool", "solve"] + (["verify", "tests"] if ok else [])
    assert times == stages + ["total"]


def test_run_config_validation(clear_files):
    with pytest.raises(GenpolError):
        pipeline.learn(_clear_config(clear_files, max_feature_weight=0))
    with pytest.raises(GenpolError):
        pipeline.learn(_clear_config(clear_files, v_slack=0))
    with pytest.raises(GenpolError):
        pipeline.learn(_clear_config(clear_files, tie_break="best"))
    dom, _train = clear_files
    with pytest.raises(GenpolError):
        pipeline.learn(pipeline.RunConfig(domain_path=dom, training_paths=[]))


def test_negative_max_steps_is_rejected_before_any_stage(clear_files, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "prepare",
                        lambda config: pytest.fail("a stage ran"))
    with pytest.raises(GenpolError, match="max_steps must be non-negative"):
        pipeline.learn(_clear_config(clear_files, max_steps=-3))
    dom, train = clear_files
    pol = tmp_path / "policy.txt"
    pol.write_text("feature 0 1 bool holding\nrule f0 -> !f0\n")
    for argv in (["learn", "--domain", dom, "--training", train, "--goal-params",
                  "b1", "--max-steps", "-3", "--test", train],
                 ["run", "--domain", dom, "--instance", train, "--goal-params",
                  "b1", "--policy", str(pol), "--max-steps", "-5"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "max_steps must be non-negative" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("field,value,bad", [
    ("max_pool", 0, "max_pool must be at least 1, got 0"),
    ("max_pool", -1, "max_pool must be at least 1, got -1"),
    ("max_states", 0, "max_states must be at least 1, got 0"),
    ("max_transitions", -1, "max_transitions must be non-negative, got -1"),
])
def test_caps_are_rejected_before_any_stage(clear_files, monkeypatch, field, value, bad):
    monkeypatch.setattr(pipeline, "load_domain", lambda path: pytest.fail("a stage ran"))
    config = _clear_config(clear_files, **{field: value})
    with pytest.raises(GenpolError, match=f"^{bad}$"):
        config.validate()
    with pytest.raises(GenpolError, match=f"^{bad}$"):
        pipeline.learn(config)


def test_cli_rejects_a_pool_cap_below_one(clear_files, tmp_path, capsys):
    dom, train = clear_files
    # Both reject it before they read a file: `learn` does not report the
    # missing domain.
    for argv, cap in ((["features", "--domain", dom, "--training", train,
                        "--goal-params", "b1", "--max-pool", "-1"], -1),
                      (["learn", "--domain", str(tmp_path / "missing.pddl"),
                        "--training", train, "--max-pool", "0"], 0)):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: max_pool must be at least 1, got {cap}\n"
        assert captured.out == ""
    assert cli.main(["features", "--domain", dom, "--training", train,
                     "--goal-params", "b1", "--max-feature-weight", "1",
                     "--max-pool", "1"]) == 2
    assert "feature pool exceeds cap of 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, bad_flag, rest, bad", [
    ("features", ["--max-feature-weight", "0"], [], "max_feature_weight must be at least 1"),
    ("encode", ["--v-slack", "0"], ["--out-prefix"], "v_slack must be at least 1"),
    ("extract", ["--v-slack", "0"], ["--model"], "v_slack must be at least 1"),
])
def test_stage_commands_validate_their_config(clear_files, tmp_path, monkeypatch,
                                             capsys, command, bad_flag, rest, bad):
    # Each stage command rejects a bad value before any stage runs, with the
    # message `learn` prints for it.
    monkeypatch.setattr(pipeline, "load_domain", lambda path: pytest.fail("a stage ran"))
    dom, train = clear_files
    common = ["--domain", dom, "--training", train, "--goal-params", "b1", *bad_flag]
    for argv in ([command, *common, *rest, *[str(tmp_path / "out")] * len(rest)],
                 ["learn", *common]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}\n")


def test_cli_learn_flags_set_every_run_config_field():
    parse = lambda argv: cli._config_from(cli.build_parser().parse_args(argv))
    cfg = parse(["learn", "--domain", "d.pddl", "--training", "a.pddl", "b.pddl",
                 "--goal-params", "b1,b2", "--test", "t1.pddl", "t2.pddl",
                 "--max-feature-weight", "5", "--ignore-high-arity",
                 "--max-pool", "99", "--max-states", "1234", "--v-slack", "3",
                 "--seed", "7", "--solver-time-limit", "2.5",
                 "--solver-backend", "mysolver", "--tie-break", "random",
                 "--max-steps", "42"])
    assert cfg == pipeline.RunConfig(
        domain_path="d.pddl", training_paths=["a.pddl", "b.pddl"],
        test_paths=["t1.pddl", "t2.pddl"], goal_params=["b1", "b2"],
        max_feature_weight=5, v_slack=3, seed=7, max_states=1234, max_pool=99,
        solver_time_limit=2.5, solver_backend="mysolver",
        ignore_high_arity=True, tie_break="random", max_steps=42)
    # Every field with a flag is off its default above; only
    # max_transitions has none.
    bare = pipeline.RunConfig(domain_path="", training_paths=[])
    assert [f.name for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) == getattr(bare, f.name)] == ["max_transitions"]
    # Flags left unset keep the defaults.
    assert parse(["learn", "--domain", "d.pddl", "--training", "a.pddl"]) == \
        pipeline.RunConfig(domain_path="d.pddl", training_paths=["a.pddl"])


def test_learn_runs_heldout_tests(clear_files, tmp_path):
    dom, train = clear_files
    t1 = tmp_path / "test1.pddl"
    t1.write_text(domains.clear_tower_instance(7))
    # Held-out instances share the lifted goal parameter, so pick a random
    # configuration whose clearing target is the training one.
    text = next(t for t, target in
                (domains.clear_random_instance(6, s) for s in range(20))
                if target == "b1")
    t2 = tmp_path / "test2.pddl"
    t2.write_text(text)
    cfg = _clear_config(clear_files, test_paths=[str(t1), str(t2)])
    result = pipeline.learn(cfg)
    assert [result.facts[f"test.{i}.status"] for i in range(2)] == ["goal", "goal"]
    assert "tests.solved=2" in result.machine()


def test_cli_expand(clear_files, capsys):
    dom, train = clear_files
    rc = cli.main(["expand", "--domain", dom, "--instance", train,
                   "--goal-params", "b1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("\n") > 800  # one line per state plus transitions


def test_cli_learn_writes_artifacts(clear_files, tmp_path, capsys):
    dom, train = clear_files
    test1 = tmp_path / "t.pddl"
    test1.write_text(domains.clear_tower_instance(6))
    out = tmp_path / "out"
    rc = cli.main(["learn", "--domain", dom, "--training", train,
                   "--goal-params", "b1", "--max-feature-weight", "4",
                   "--test", str(test1), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "optimum cost" in stdout
    report = (out / "report.kv").read_text()
    assert "status=ok" in report and "tests.solved=1" in report
    assert (out / "report.txt").read_text() == stdout
    pol = po.parse_policy((out / "policy.txt").read_text())
    assert len(pol.features) == 3


def test_cli_learn_unsat_exit_code(clear_files, capsys):
    dom, train = clear_files
    rc = cli.main(["learn", "--domain", dom, "--training", train,
                   "--goal-params", "b1", "--max-feature-weight", "1"])
    assert rc == 1
    assert "no policy in feature space" in capsys.readouterr().out


def _learn_result(status, *verified):
    facts = {"status": status, "n_instances": len(verified)}
    facts.update((f"instance.{i}.name", f"i{i}") for i in range(len(verified)))
    facts.update((f"verify.{i}.ok", int(ok)) for i, ok in enumerate(verified))
    return pipeline.LearnResult(facts)


def test_learn_exit_code_needs_a_verified_policy():
    assert _learn_result("ok", True).exit_code == 0
    assert _learn_result("ok", False).exit_code == 1
    assert _learn_result("ok", True, False).exit_code == 1
    assert _learn_result("unsat").exit_code == 1


def test_cli_learn_returns_the_result_exit_code(clear_files, monkeypatch, capsys):
    dom, train = clear_files
    result = _learn_result("ok", False)
    monkeypatch.setattr(pipeline, "learn", lambda config: result)
    assert cli.main(["learn", "--domain", dom, "--training", train]) == 1
    assert capsys.readouterr().out == result.human()
    assert "verification  FAIL" in result.human()


@pytest.mark.parametrize("limit", [0, -1.5, float("nan"), float("inf")])
def test_solver_time_limit_must_be_positive(clear_files, tmp_path, capsys, limit):
    with pytest.raises(GenpolError, match="solver time limit must be positive and finite"):
        _clear_config(clear_files, solver_time_limit=limit).validate()
    dom, train = clear_files
    wcnf = tmp_path / "ok.wcnf"
    wcnf.write_text("p wcnf 1 1 5\n5 1 0\n")
    for argv in (["solve", "--wcnf", str(wcnf), "--time-limit", str(limit)],
                 ["learn", "--domain", dom, "--training", train, "--goal-params", "b1",
                  "--solver-time-limit", str(limit)]):
        assert cli.main(argv) == 2
        assert "solver time limit must be positive and finite" in capsys.readouterr().err


# Stage command stdout on the clear-5 fixture (maximum feature weight 4) and
# the unseen clear-7 tower, taken byte for byte from the stage printers.
_ENCODE_STATS = """\
n_alive_transitions=1161
n_clauses_full=6716
n_hard=6678
n_pairs=1035
n_soft=38
n_states=866
n_vars=2323
"""
_VERIFY_LEARNED = """\
states=65990
compatible_transitions=68983
complete=1
safe=1
acyclic=1
ok=1
"""
# `holding` flips forever: every state is covered, but not acyclically.
_CYCLIC_POLICY = "feature 0 1 bool holding\nrule f0 -> !f0\nrule !f0 -> f0\n"
_VERIFY_CYCLIC = """\
states=65990
compatible_transitions=115363
complete=1
safe=1
acyclic=0
ok=0
witness=compatible cycle through state 1
"""
_RUN_RANDOM_3 = """\
unstack(b7,b6)
putdown(b7)
unstack(b6,b5)
stack(b6,b7)
unstack(b5,b4)
putdown(b5)
unstack(b4,b3)
stack(b4,b5)
unstack(b3,b2)
putdown(b3)
unstack(b2,b1)
status=goal
steps=11
"""


def test_cli_stagewise_chain(clear_files, tmp_path, capsys):
    """encode -> solve -> extract -> verify -> run reproduces `learn`."""
    dom, train = clear_files
    prefix = str(tmp_path / "clear")
    rc = cli.main(["encode", "--domain", dom, "--training", train,
                   "--goal-params", "b1", "--max-feature-weight", "4",
                   "--out-prefix", prefix])
    assert rc == 0
    assert capsys.readouterr().out == _ENCODE_STATS
    tags = (tmp_path / "clear.tags").read_text().splitlines()
    assert len(tags) == 6678  # one per hard clause

    rc = cli.main(["solve", "--wcnf", prefix + ".wcnf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "s OPTIMUM FOUND" in out and "o 8" in out
    vline = next(line for line in out.splitlines() if line.startswith("v "))
    model_path = tmp_path / "model.txt"
    model_path.write_text(vline + "\n")

    rc = cli.main(["extract", "--domain", dom, "--training", train,
                   "--goal-params", "b1", "--max-feature-weight", "4",
                   "--model", str(model_path)])
    assert rc == 0
    policy_text = capsys.readouterr().out
    pol_path = tmp_path / "policy.txt"
    pol_path.write_text(policy_text)
    learned = pipeline.learn(_clear_config(clear_files))
    assert policy_text == learned.policy.dump()

    unseen = tmp_path / "seven.pddl"
    unseen.write_text(domains.clear_tower_instance(7))
    instance = ["--domain", dom, "--instance", str(unseen), "--goal-params", "b1"]
    rc = cli.main(["verify", *instance, "--policy", str(pol_path)])
    assert rc == 0 and capsys.readouterr().out == _VERIFY_LEARNED

    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text(_CYCLIC_POLICY)
    rc = cli.main(["verify", *instance, "--policy", str(cyclic)])
    assert rc == 1 and capsys.readouterr().out == _VERIFY_CYCLIC

    rc = cli.main(["run", *instance, "--policy", str(pol_path),
                   "--tie-break", "random", "--seed", "3"])
    assert rc == 0 and capsys.readouterr().out == _RUN_RANDOM_3


def _extract(monkeypatch, capsys, flags, model, model_path):
    """(exit code, stderr, error raised) of `genpol extract` on `model`, 0/1
    per variable, written as one line of signed literals."""
    model_path.write_text("v " + " ".join(str(v if on else -v)
                                          for v, on in enumerate(model) if v) + "\n")
    raised = []
    extract = cli.cmd_extract

    def spy(args):
        try:
            return extract(args)
        except GenpolError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(cli, "cmd_extract", spy)
    rc = cli.main(["extract", *flags, "--model", str(model_path)])
    return rc, capsys.readouterr().err, (raised or [None])[0]


def test_cli_extract_refuses_a_model_violating_the_theory(clear_files, tmp_path,
                                                          monkeypatch, capsys):
    dom, train = clear_files
    flags = ["--domain", dom, "--training", train, "--goal-params", "b1",
             "--max-feature-weight", "4"]
    path = tmp_path / "model.txt"
    path.write_text("v 0\n")
    rc = cli.main(["extract", *flags, "--model", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: model violates hard clause 0 (goalsep)\n"

    # learn's model extracts to learn's policy; clearing every value label
    # of state 0 breaks the clause that asks for one.
    cfg = _clear_config(clear_files)
    prep = pipeline.prepare(cfg)
    fix = pipeline.solve_fixpoint(prep, pipeline.start_pairs(prep, cfg), cfg)
    rc, err, _ = _extract(monkeypatch, capsys, flags, fix.result.model, path)
    assert rc == 0 and err == ""
    labels = range(fix.theory.v_first[0], fix.theory.v_first[0] + fix.theory.v_count[0])
    assert any(fix.result.model[v] for v in labels)
    unlabeled = list(fix.result.model)
    for v in labels:
        unlabeled[v] = 0
    rc, err, _ = _extract(monkeypatch, capsys, flags, unlabeled, path)
    assert rc == 2 and re.fullmatch(r"error: model violates hard clause \d+ \(value\)\n", err)


def test_cli_extract_refuses_any_model_of_an_infeasible_pool(clear_files, tmp_path,
                                                             capsys):
    # At weight 1 no feature tells goal state 20 from state 1: `extract`
    # says so, as `learn` does, whatever the model.
    dom, train = clear_files
    path = tmp_path / "model.txt"
    path.write_text("v 0\n")
    rc = cli.main(["extract", "--domain", dom, "--training", train, "--goal-params",
                   "b1", "--max-feature-weight", "1", "--model", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no policy in feature space: goal state 20 and non-goal state 1 "
        "have identical feature values\n")


def test_cli_extract_refuses_an_unseparated_model(tmp_path, monkeypatch, capsys):
    # The optimum of gripper's pair-free theory satisfies every hard clause
    # that `extract` builds, but leaves good and bad classes unseparated:
    # a plain input error, not an internal one.
    gripper = Path(__file__).resolve().parent.parent / "benchmarks" / "gripper"
    flags = ["--domain", str(gripper / "domain.pddl"),
             "--training", str(gripper / "prob04.pddl"), "--max-feature-weight", "8"]
    cfg = cli._config_from(cli.build_parser().parse_args(["extract", *flags, "--model", "-"]))
    prep = pipeline.prepare(cfg)
    theory = pipeline.build_theory(prep, [], cfg)
    res = maxsat.solve_wcnf(theory.wcnf)
    assert res.status == maxsat.OPTIMUM
    assert maxsat.evaluate(theory.wcnf, res.model)[0]
    bad = encoding.validate_solution(prep.classes, *encoding.decode(theory, res.model))
    assert len(bad) == 54
    rc, err, exc = _extract(monkeypatch, capsys, flags, res.model, tmp_path / "model.txt")
    assert rc == 2 and err == f"error: model leaves 54 class pairs unseparated, first {bad[0]}\n"
    assert type(exc) is GenpolError


# `holding` nested inside `depth` Nots; an even number keeps its values.
def _nested(depth):
    return "Not(" * depth + "holding" + ")" * depth


@pytest.mark.parametrize("text,depth", [
    (_nested(600), 600), (_nested(2000), 2000),
    ("Exists(on" + "_inv" * 2000 + ",Nominal(goal0))", 2002)],
    ids=["not-600", "not-2000", "inv-2000"])
def test_cli_rejects_deeply_nested_policy_features(clear_files, tmp_path,
                                                    capsys, text, depth):
    dom, train = clear_files
    pol = tmp_path / "deep.txt"
    pol.write_text(f"feature 0 1 bool {text}\nrule f0 -> !f0\n")
    for cmd in ("verify", "run"):
        rc = cli.main([cmd, "--domain", dom, "--instance", train,
                       "--goal-params", "b1", "--policy", str(pol)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: line 1: bad feature: nesting depth "
                                f"{depth} exceeds 100\n")
        assert captured.out == ""


def test_policy_feature_at_the_nesting_bound_verifies(clear_files, tmp_path,
                                                      capsys):
    dom, train = clear_files
    learned = pipeline.learn(_clear_config(clear_files)).policy.dump()
    pol = tmp_path / "deep.txt"
    pol.write_text(learned.replace(" bool holding\n",
                                   f" bool {_nested(100)}\n", 1))
    assert _nested(100) in pol.read_text()
    rc = cli.main(["verify", "--domain", dom, "--instance", train,
                   "--goal-params", "b1", "--policy", str(pol)])
    assert rc == 0 and capsys.readouterr().out.endswith("ok=1\n")


def test_cli_verify_rejects_bad_policy(clear_files, tmp_path, capsys):
    dom, train = clear_files
    bad = tmp_path / "bad.txt"
    bad.write_text("feature 0 1 bool holding\nrule f0 -> !f0\n")
    rc = cli.main(["verify", "--domain", dom, "--instance", train,
                   "--goal-params", "b1", "--policy", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "complete=0" in out and "witness=" in out


@pytest.mark.parametrize("feature,error", [
    ("1 num nonsense", "unknown unary predicate 'nonsense'"),
    ("1 num Exists(link,Top)", "unknown binary predicate 'link'"),
    ("1 bool Nominal(nowhere)", "nominal 'nowhere' is not a constant or goal parameter"),
    ("1 bool Atom(holding)", "Atom(holding) needs a predicate of arity 0 or above 2"),
])
def test_verify_rejects_a_bad_feature_before_expanding(clear_files, tmp_path, capsys,
                                                       monkeypatch, feature, error):
    # The features are evaluated on the initial state first, so a name or
    # arity error is raised without expanding the space.
    expanded = []
    monkeypatch.setattr(space, "expand", lambda *a, **kw: expanded.append(a))
    dom, train = clear_files
    pol = tmp_path / "bad.txt"
    pol.write_text(f"feature 0 {feature}\nrule true -> nop\n")
    gp = pipeline.load_problem(pipeline.load_domain(dom), train, ["b1"])
    with pytest.raises(GenpolError, match=re.escape(error)):
        po.verify_exhaustive(po.parse_policy(pol.read_text()), gp)
    rc = cli.main(["verify", "--domain", dom, "--instance", train,
                   "--goal-params", "b1", "--policy", str(pol)])
    captured = capsys.readouterr()
    assert rc == 2 and error in captured.err and captured.out == ""
    assert expanded == []


def test_cli_input_errors_exit_2(tmp_path, capsys):
    rc = cli.main(["expand", "--domain", str(tmp_path / "missing.pddl"),
                   "--instance", str(tmp_path / "missing2.pddl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.wcnf"
    bad.write_text("p cnf oops\n")
    rc = cli.main(["solve", "--wcnf", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    for text in ("p wcnf 2 1 5\n5 1 x 0\n",
                 "p wcnf 2 2 5\n5 1 0\np wcnf 2 1 5\n5 2 0\n",  # concatenated
                 "p wcnf 2 7 5\n5 1 0\n",  # truncated
                 "p wcnf -4 0 5\n",  # negative variable count
                 "p wcnf 1 1 5\n5 3 0\n"):  # literal beyond the declared count
        bad.write_text(text)
        rc = cli.main(["solve", "--wcnf", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["learn", "--domain", "x"])  # missing required --training
    assert exc.value.code == 2
