"""Weighted partial MaxSAT: exact optima, WCNF serialization, model parsing."""

import dataclasses
import itertools
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
from genpol.sat import Cdcl


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


def ladder(n):
    """Pairwise-conflicting variables 1..n, all softly wanted: exactly one
    can be true, so the optimum is n - 1."""
    p = WcnfProblem()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = oracles.add_hard(p, [-i, -j])
    for i in range(1, n + 1):
        p = oracles.add_soft(p, 1, [i])
    return p


def test_cardinality_ladder_costs():
    # Exercises repeated cores and the counting circuitry rather than
    # single-step refutations.
    for n in (4, 6, 8):
        p = ladder(n)
        res = solve_wcnf(p)
        assert res.status == maxsat.OPTIMUM
        assert res.cost == n - 1
        assert sum(res.model[1:n + 1]) == 1


def test_a_continued_search_matches_fresh_solves():
    # One search continued over rounds of appended hard clauses finds each
    # round's optimum, as brute force and a fresh search do.  Half the
    # clauses added negate a soft literal, so optima rise between rounds.
    rng = random.Random(20)
    later = rises = 0
    for _ in range(150):
        p = random_wcnf(rng, max_vars=9)
        oll, last = maxsat.Oll(), None
        for _ in range(rng.randint(2, 3)):
            want = oracles.brute_force_wcnf(p)
            got, fresh = solve_wcnf(p, oll=oll), solve_wcnf(p)
            assert got.status == fresh.status
            if want is None:
                assert got.status == maxsat.UNSATISFIABLE
                break
            assert got.cost == fresh.cost == want, format_wcnf(p)
            assert evaluate(p, got.model) == (True, want)
            if last is not None:
                later += 1
                rises += want > last
            last = want
            for _ in range(rng.randint(1, 2)):
                soft = p.soft.lits.tolist()
                p = oracles.add_hard(p, [-rng.choice(soft)] if soft and rng.random() < 0.5
                                     else [rng.choice([-1, 1]) * rng.randint(1, p.nvars)
                                           for _ in range(rng.randint(1, 3))])
    assert later > 80 and rises > 15, (later, rises)


def test_a_continued_search_takes_only_appended_hard_clauses():
    p = oracles.add_hard(ladder(4), [1, 2])
    for other in (oracles.add_soft(p, 1, [3]), ladder(4),
                  oracles.add_hard(ladder(4), [1, 3]),
                  dataclasses.replace(p, nvars=5)):
        oll = maxsat.Oll()
        solve_wcnf(p, oll=oll)
        with pytest.raises(GenpolError, match="only hard clauses appended"):
            solve_wcnf(other, oll=oll)
    oll = maxsat.Oll()
    assert solve_wcnf(p, oll=oll).cost == solve_wcnf(p, oll=oll).cost == 3


@pytest.mark.parametrize("n, m, bound", [(6, 2, 3), (8, 3, 4)])
def test_at_most_m_of_n_extends_a_sum_past_bound_two(monkeypatch, n, m, bound):
    # n unit softs of which at most m can hold (a clause against every m + 1
    # of them): later cores hold a sum's bound, which is then extended.
    # The ladder (m = 1) never gets past bound 2: its cores are pairs.  With
    # weights, the optimum holds only if each new bound is charged the
    # weight its sum was created with.
    bounds = []
    extend = maxsat._Sum.extend

    def spy(self, solver, bound):
        bounds.append(bound)
        return extend(self, solver, bound)

    monkeypatch.setattr(maxsat._Sum, "extend", spy)
    p = WcnfProblem()
    for group in itertools.combinations(range(1, n + 1), m + 1):
        p = oracles.add_hard(p, [-v for v in group])
    unit = p
    for v in range(1, n + 1):
        unit = oracles.add_soft(unit, 1, [v])
    assert solve_wcnf(unit).cost == n - m
    assert max(bounds) == bound
    rng = random.Random(n)
    for _ in range(10):
        weighted = p
        for v in range(1, n + 1):
            weighted = oracles.add_soft(weighted, rng.randint(1, 9), [v])
        bounds.clear()
        assert solve_wcnf(weighted).cost == oracles.brute_force_wcnf(weighted)
        assert max(bounds) > 2


@pytest.mark.parametrize("k", [2, 3, 17, 175, 1000])
def test_a_new_sum_loads_clauses_linear_in_its_inputs(k):
    solver = Cdcl()
    solver.ensure_vars(k)
    total = maxsat._Sum(solver, list(range(1, k + 1)), 1)
    assert total.size == k and len(total.outs) == 2
    # k - 1 merges, each with two outputs: at most 2 + 3 clauses.
    assert solver.nvars - k <= 2 * (k - 1)
    assert len(solver.clauses) <= 5 * (k - 1)


def test_sum_outputs_count_their_inputs():
    # Under every input assignment, output j is forced true exactly when at
    # least j inputs are, at each bound the sum is extended to.
    k = 5
    solver = Cdcl()
    solver.ensure_vars(k)
    total = maxsat._Sum(solver, list(range(1, k + 1)), 1)
    for bound in range(2, k + 1):
        total.extend(solver, bound)
        assert len(total.outs) == bound
        for bits in itertools.product((0, 1), repeat=k):
            inputs = [v if b else -v for v, b in enumerate(bits, 1)]
            for j, out in enumerate(total.outs, 1):
                assert solver.solve(inputs + [-out]) == (sum(bits) < j)


def test_a_later_round_times_out_above_the_last_optimum():
    # The lower bound carries over: a round out of time at once still
    # reports the last round's optimum, where a fresh search reports 0.
    p = ladder(9)
    oll = maxsat.Oll()
    assert solve_wcnf(p, oll=oll).cost == 8
    p = oracles.add_hard(oracles.add_hard(p, [-1]), [-2])
    with pytest.raises(SolverTimeoutError) as fresh:
        solve_wcnf(p, time_limit=1e-9)
    assert fresh.value.best_cost == 0
    with pytest.raises(SolverTimeoutError) as later:
        solve_wcnf(p, time_limit=1e-9, oll=oll)
    assert later.value.best_cost >= 8
    # The timed-out round can be continued, with its own time budget.
    assert solve_wcnf(p, time_limit=60, oll=oll).cost == 8


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
    with pytest.raises(SolverTimeoutError):
        solve_wcnf(ladder(9), time_limit=1e-9)


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

    # The status comes from an 's ' line only, not from a comment that
    # quotes one: this optimum stands.
    quoted = _write_script(tmp_path, """
        print('c s UNSATISFIABLE was ruled out')
        print('s OPTIMUM FOUND')
        print('v 1 2 0')
    """)
    res = solve_wcnf_external(p, quoted)
    assert (res.status, res.cost) == (maxsat.OPTIMUM, 0)

    # A model that is not proven optimal is no optimum: this one costs 1,
    # where the optimum is 0.
    unproven = _write_script(tmp_path, """
        print('s SATISFIABLE')
        print('v 1 -2 0')
    """)
    with pytest.raises(GenpolError, match="did not prove it optimal"):
        solve_wcnf_external(p, unproven)

    with pytest.raises(GenpolError):
        solve_wcnf_external(p, str(tmp_path / "missing_binary"))
