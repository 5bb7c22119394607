"""End-to-end pipeline behavior and the command line interface."""

import pytest

import domains
from genpol import cli, encoding, maxsat, pipeline, policy as po
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
    assert result.iterations == 1
    pol = result.policy
    assert sorted(f.render() for f in pol.features) == [
        "And(Nominal(goal0),holding)",
        "Exists(on_plus,Nominal(goal0))",
        "holding",
    ]
    lines = result.report_machine.splitlines()
    assert all("=" in line for line in lines)
    report = dict(line.split("=", 1) for line in lines)
    assert report["status"] == "ok"
    assert report["optimum_cost"] == "8"
    assert report["n_selected"] == "3"
    assert report["instance.0.states"] == "866"
    assert report["n_alive_transitions"] == "1161"
    assert report["verify.0.ok"] == "1"
    # The human report carries the same headline facts.
    assert "optimum cost" in result.report_human
    assert "pass" in result.report_human


def test_learn_is_deterministic(clear_files):
    a = pipeline.learn(_clear_config(clear_files))
    b = pipeline.learn(_clear_config(clear_files))
    assert a.report_machine == b.report_machine
    assert a.policy.dump() == b.policy.dump()


def test_learn_matches_manual_stage_composition(clear_files):
    cfg = _clear_config(clear_files)
    result = pipeline.learn(cfg)

    prep = pipeline.prepare(cfg)
    pairs = encoding.initial_pairs(prep.classes, prep.class_of, prep.sample,
                                   extra_per_class=cfg.extra_pairs_per_class,
                                   seed=cfg.seed)
    theory = encoding.build_theory(prep.sample, prep.pool, prep.matrix,
                                   prep.classes, prep.class_of,
                                   v_slack=cfg.v_slack, pairs=pairs)
    res = maxsat.solve_wcnf(theory.wcnf)
    assert res.cost == result.cost
    phi, goods, _ = encoding.decode(theory, res.model)
    manual = po.extract_policy(prep.pool, phi, prep.classes, goods)
    assert manual.dump() == result.policy.dump()


def test_learn_reports_unsat_for_weak_feature_pool(clear_files):
    result = pipeline.learn(_clear_config(clear_files, max_feature_weight=1))
    assert result.status == "unsat" and result.exit_code == 1
    assert "no policy in feature space" in result.message
    assert result.policy is None
    assert "status=unsat" in result.report_machine


_SAMPLE_KV = """\
v_slack=2
merge_classes=1
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
n_hard=10019
n_soft=38
n_clauses_full=10057
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
n_soft=0
n_clauses_full=13
n_pairs=0
iterations=1
message=no policy in feature space: goal state 20 and non-goal state 1 have identical feature values
""",
    3: "status=unsat\nseed=0\nmax_feature_weight=3\n" + _SAMPLE_KV + """\
pool_size=15
n_classes=30
n_vars=2284
n_hard=8816
n_soft=15
n_clauses_full=8831
n_pairs=435
iterations=1
message=no policy in feature space: theory is unsatisfiable
""",
}


@pytest.mark.parametrize("weight", sorted(_EXPECTED_KV))
def test_learn_reports_pinned(clear_files, weight):
    result = pipeline.learn(_clear_config(clear_files,
                                          max_feature_weight=weight))
    assert result.report_machine == _EXPECTED_KV[weight]
    ok = result.status == "ok"
    assert result.verify_ok == ok and (result.policy is not None) == ok
    assert result.cost == (8 if ok else None)
    if not ok:
        assert result.message in result.report_machine
    # report.txt lists the stage times in stage order.
    times = [line.split()[1] for line in result.report_human.splitlines()
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
    assert [t.status for t in result.tests] == ["goal", "goal"]
    assert "tests.solved=2" in result.report_machine


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


def test_cli_stagewise_chain(clear_files, tmp_path, capsys):
    """encode -> solve -> extract -> verify -> run reproduces `learn`."""
    dom, train = clear_files
    prefix = str(tmp_path / "clear")
    rc = cli.main(["encode", "--domain", dom, "--training", train,
                   "--goal-params", "b1", "--max-feature-weight", "4",
                   "--out-prefix", prefix])
    assert rc == 0
    stats = dict(line.split("=") for line in
                 capsys.readouterr().out.splitlines())
    assert int(stats["n_vars"]) > 0 and int(stats["n_hard"]) > 0
    tags = (tmp_path / "clear.tags").read_text().splitlines()
    assert int(stats["n_hard"]) == len(tags)

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
    assert len(po.parse_policy(policy_text).features) == 3

    unseen = tmp_path / "seven.pddl"
    unseen.write_text(domains.clear_tower_instance(7))
    rc = cli.main(["verify", "--domain", dom, "--instance", str(unseen),
                   "--goal-params", "b1", "--policy", str(pol_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "ok=1" in out

    rc = cli.main(["run", "--domain", dom, "--instance", str(unseen),
                   "--goal-params", "b1", "--policy", str(pol_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "status=goal" in out


def test_cli_verify_rejects_bad_policy(clear_files, tmp_path, capsys):
    dom, train = clear_files
    bad = tmp_path / "bad.txt"
    bad.write_text("feature 0 1 bool holding\nrule f0 -> !f0\n")
    rc = cli.main(["verify", "--domain", dom, "--instance", train,
                   "--goal-params", "b1", "--policy", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "complete=0" in out and "witness=" in out


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

    bad.write_text("p wcnf 2 1 5\n5 1 x 0\n")
    rc = cli.main(["solve", "--wcnf", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["learn", "--domain", "x"])  # missing required --training
    assert exc.value.code == 2
