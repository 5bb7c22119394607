"""Weighted partial MaxSAT: exact optima, WCNF serialization, model parsing."""

import random
import stat
import sys
import tempfile
import textwrap

import pytest

import oracles
from genpol import maxsat
from genpol.errors import GenpolError, SolverTimeoutError
from genpol.maxsat import (WcnfProblem, evaluate, format_wcnf, parse_model,
                           parse_wcnf, solve_wcnf, solve_wcnf_external)


def random_wcnf(rng, max_vars=12):
    n = rng.randint(2, max_vars)
    p = WcnfProblem(nvars=n)
    for _ in range(rng.randint(0, 3 * n)):
        k = rng.randint(1, 3)
        p = oracles.add_hard(p, [rng.choice([-1, 1]) * rng.randint(1, n)
                                 for _ in range(k)])
    for _ in range(rng.randint(1, 2 * n)):
        k = rng.randint(1, 3)
        clause = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(k)]
        p = oracles.add_soft(p, rng.randint(1, 9), clause)
    return p


def test_random_problems_match_brute_force():
    rng = random.Random(42)
    optima, unsat = 0, 0
    for _ in range(200):
        p = random_wcnf(rng)
        want = oracles.brute_force_wcnf(p)
        got = solve_wcnf(p)
        if want is None:
            assert got.status == maxsat.UNSATISFIABLE
            unsat += 1
        else:
            assert got.status == maxsat.OPTIMUM
            assert got.cost == want, format_wcnf(p)
            hard_ok, cost = evaluate(p, got.model)
            assert hard_ok and cost == got.cost
            optima += 1
    assert optima > 100 and unsat > 10


def test_positive_cost_and_weight_aggregation():
    # Mutually exclusive unit softs with distinct weights: optimum keeps the
    # heaviest one.
    p = WcnfProblem()
    p = oracles.add_hard(p, [-1, -2])
    p = oracles.add_hard(p, [-2, -3])
    p = oracles.add_hard(p, [-1, -3])
    p = oracles.add_soft(p, 3, [1])
    p = oracles.add_soft(p, 5, [2])
    p = oracles.add_soft(p, 4, [3])
    res = solve_wcnf(p)
    assert res.status == maxsat.OPTIMUM
    assert res.cost == 7
    assert res.model[2] == 1


def test_cardinality_ladder_costs():
    # Pairwise-conflicting variables, all softly wanted: exactly one can be
    # true, so cost is n - 1.  Exercises repeated cores and the counting
    # circuitry rather than single-step refutations.
    for n in (4, 6, 8):
        p = WcnfProblem()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                p = oracles.add_hard(p, [-i, -j])
        for i in range(1, n + 1):
            p = oracles.add_soft(p, 1, [i])
        res = solve_wcnf(p)
        assert res.status == maxsat.OPTIMUM
        assert res.cost == n - 1
        assert sum(res.model[1:n + 1]) == 1


def test_hard_unsatisfiable_reported():
    p = WcnfProblem()
    p = oracles.add_hard(p, [1])
    p = oracles.add_hard(p, [-1])
    p = oracles.add_soft(p, 2, [2])
    assert solve_wcnf(p).status == maxsat.UNSATISFIABLE


def test_empty_soft_clause_pays_its_weight():
    p = WcnfProblem()
    p = oracles.add_hard(p, [1])
    p = oracles.add_soft(p, 3, [])
    p = oracles.add_soft(p, 2, [1])
    res = solve_wcnf(p)
    assert res.cost == 3


def test_wcnf_round_trip_is_byte_exact():
    frozen = "p wcnf 3 2 5\n5 1 -2 0\n4 -3 0\n"
    p = parse_wcnf(frozen)
    assert p.nvars == 3
    assert p.hard.tolist() == [[1, -2]]
    assert p.soft.tolist() == [[-3]] and p.weights.tolist() == [4]
    assert format_wcnf(p) == frozen

    rng = random.Random(9)
    for _ in range(50):
        p = random_wcnf(rng)
        text = format_wcnf(p)
        again = format_wcnf(parse_wcnf(text))
        assert again == text


def test_parse_wcnf_rejects_malformed_input():
    with pytest.raises(GenpolError):
        parse_wcnf("1 2 0\n")  # clause before problem line
    with pytest.raises(GenpolError):
        parse_wcnf("")  # no problem line
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf 2 1\n")  # missing top
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf 2 1 5\n5 1 2\n")  # missing terminating 0
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf 2 1 5\n9 1 0\n")  # weight above top
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf 2 1 5\n5 1 x 0\n")  # non-integer literal
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf x 1 5\n")  # non-integer variable count
    with pytest.raises(GenpolError, match="second problem line at line 3"):
        parse_wcnf("p wcnf 2 2 5\n5 1 0\np wcnf 2 1 5\n5 2 0\n")
    with pytest.raises(GenpolError, match="declares 7 clauses, found 1"):
        parse_wcnf("p wcnf 2 7 5\n5 1 0\n")
    with pytest.raises(GenpolError, match="declares 1 clauses, found 2"):
        parse_wcnf("p wcnf 2 1 5\n5 1 0\n3 2 0\n")
    with pytest.raises(GenpolError):
        parse_wcnf("p wcnf 2 x 5\n")  # non-integer clause count
    with pytest.raises(GenpolError, match="negative variable count -4 at line 1"):
        parse_wcnf("p wcnf -4 0 5\n")
    with pytest.raises(GenpolError, match="literal 3 beyond the declared 1 variables at line 2"):
        parse_wcnf("p wcnf 1 1 5\n5 3 0\n")
    with pytest.raises(GenpolError, match="literal -2 beyond the declared 1 variables at line 3"):
        parse_wcnf("p wcnf 1 2 5\n5 1 0\n2 -1 -2 0\n")
    # Comments and blank lines are fine.
    p = parse_wcnf("c a comment\n\np wcnf 2 1 5\nc more\n5 1 -2 0\n")
    assert p.hard.tolist() == [[1, -2]]


def test_problem_construction_guards():
    p = WcnfProblem()
    with pytest.raises(GenpolError):
        oracles.add_soft(p, 0, [1])
    with pytest.raises(GenpolError):
        oracles.add_soft(p, -2, [1])
    with pytest.raises(GenpolError):
        oracles.add_hard(p, [1, 0])
    p = oracles.add_hard(p, [4])
    assert p.nvars == 4
    p = oracles.add_soft(p, 1, [-6])
    assert p.nvars == 6
    assert p.top == 2


def test_parse_model_formats():
    signed = "c comment\ns OPTIMUM FOUND\nv 1 -2 3 0\n"
    assert parse_model(signed, 3) == [0, 1, 0, 1]
    multiline = "v 1 -2\nv 3 0\n"
    assert parse_model(multiline, 3) == [0, 1, 0, 1]
    binary = "s OPTIMUM FOUND\nv 101\n"
    assert parse_model(binary, 3) == [0, 1, 0, 1]
    with pytest.raises(GenpolError):
        parse_model("s OPTIMUM FOUND\n", 3)
    with pytest.raises(GenpolError):
        parse_model("v 1 -2 zz", 3)


def test_evaluate_counts_falsified_soft_weight():
    p = parse_wcnf("p wcnf 3 4 9\n9 1 2 0\n4 -1 0\n3 3 0\n1 2 0\n")
    model = [0, 1, 0, 0]  # x1 true only
    hard_ok, cost = evaluate(p, model)
    assert hard_ok
    assert cost == 4 + 3 + 1
    hard_ok, _ = evaluate(p, [0, 0, 0, 1])
    assert not hard_ok


def test_evaluate_matches_clause_by_clause_check():
    rng = random.Random(23)
    for i in range(200):
        p = random_wcnf(rng)
        if i % 3 == 0:
            p = oracles.add_hard(p, [])
        if i % 4 == 0:
            p = oracles.add_soft(p, rng.randint(1, 9), [])
        for _ in range(5):
            model = [0] + [rng.randint(0, 1) for _ in range(p.nvars)]
            assert evaluate(p, model) == oracles.evaluate_wcnf(p, model)


def test_time_limit_raises_with_progress_bound():
    p = WcnfProblem()
    n = 9
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = oracles.add_hard(p, [-i, -j])
        p = oracles.add_soft(p, 1, [i])
    with pytest.raises(SolverTimeoutError):
        solve_wcnf(p, time_limit=1e-9)


@pytest.mark.parametrize("limit", [0, -1.0, float("nan"), float("inf")])
def test_solve_rejects_a_time_limit_that_is_not_positive(tmp_path, limit):
    p = WcnfProblem()
    p = oracles.add_hard(p, [1])
    script = _write_script(tmp_path, """
        print('s OPTIMUM FOUND')
        print('v 1 0')
    """)
    # One meaning on both backends: 0 is no budget, never "no limit".
    for backend in ("embedded", script):
        with pytest.raises(GenpolError, match="must be positive and finite"):
            maxsat.solve(p, backend, time_limit=limit)
    # Below the check only None means no limit: no budget times out at once.
    assert solve_wcnf(p, time_limit=None).status == maxsat.OPTIMUM
    if limit == 0:
        with pytest.raises(SolverTimeoutError):
            solve_wcnf(p, time_limit=0)


def _write_script(tmp_path, body):
    path = tmp_path / "fake_solver.py"
    path.write_text("#!" + sys.executable + "\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_solver_round_trip(tmp_path, monkeypatch):
    # A stub solver that brute-forces the WCNF and answers in the standard
    # output format; checks the file hand-off, parsing, and re-evaluation,
    # and that the hand-off files are removed afterwards.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    script = _write_script(tmp_path, """
        import itertools, sys
        hard, soft, top, n = [], [], None, 0
        for line in open(sys.argv[1]):
            parts = line.split()
            if not parts or parts[0] == 'c':
                continue
            if parts[0] == 'p':
                n, top = int(parts[2]), int(parts[4])
                continue
            w, cl = int(parts[0]), [int(x) for x in parts[1:-1]]
            (hard if w == top else soft).append((w, cl))
        best = None
        for bits in itertools.product((0, 1), repeat=n):
            def ok(cl):
                return any(bits[abs(l) - 1] == (l > 0) for l in cl)
            if not all(ok(cl) for _, cl in hard):
                continue
            cost = sum(w for w, cl in soft if not ok(cl))
            if best is None or cost < best[0]:
                best = (cost, bits)
        if best is None:
            print('s UNSATISFIABLE')
        else:
            print('s OPTIMUM FOUND')
            print('o', best[0])
            print('v', ' '.join(str(i if b else -i)
                                for i, b in enumerate(best[1], 1)), 0)
    """)
    rng = random.Random(17)
    for _ in range(10):
        p = random_wcnf(rng, max_vars=8)
        want = oracles.brute_force_wcnf(p)
        res = solve_wcnf_external(p, script)
        if want is None:
            assert res.status == maxsat.UNSATISFIABLE
        else:
            assert res.status == maxsat.OPTIMUM
            assert res.cost == want
    assert list(scratch.iterdir()) == []


def test_external_solver_lies_are_caught(tmp_path):
    bad_model = _write_script(tmp_path, """
        print('s OPTIMUM FOUND')
        print('v -1 -2 0')
    """)
    p = WcnfProblem()
    p = oracles.add_hard(p, [1])
    p = oracles.add_soft(p, 1, [2])
    with pytest.raises(GenpolError):
        solve_wcnf_external(p, bad_model)

    no_status = _write_script(tmp_path, "print('hello')\n")
    with pytest.raises(GenpolError):
        solve_wcnf_external(p, no_status)

    with pytest.raises(GenpolError):
        solve_wcnf_external(p, str(tmp_path / "missing_binary"))
