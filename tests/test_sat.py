"""Conflict-driven clause-learning solver, fuzzed against brute force."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

import oracles
from genpol.errors import SolverTimeoutError
from genpol.sat import UNASSIGNED, Cdcl, _luby


def brute_force_sat(n_vars, clauses, fixed=()):
    """All-assignments check; returns one satisfying assignment or None."""
    fixed_set = set(fixed)
    for bits in itertools.product((False, True), repeat=n_vars):
        def holds(lit):
            return bits[abs(lit) - 1] == (lit > 0)
        if not all(holds(l) for l in fixed_set):
            continue
        if all(any(holds(l) for l in cl) for cl in clauses):
            return bits
    return None


def random_formula(rng, n_vars, n_clauses, width=3):
    clauses = []
    for _ in range(n_clauses):
        k = rng.randint(1, width)
        cl = [rng.choice([-1, 1]) * rng.randint(1, n_vars) for _ in range(k)]
        clauses.append(cl)
    return clauses


def _load(clauses, n_vars):
    s = Cdcl()
    s.ensure_vars(n_vars)
    ok = True
    for cl in clauses:
        ok = s.add_clause(cl) and ok
    return s, ok


def _model_satisfies(model, clauses):
    return all(any((model[abs(l)] == 1) == (l > 0) for l in cl)
               for cl in clauses)


def test_plain_solving_matches_brute_force():
    rng = random.Random(100)
    sat = unsat = 0
    for _ in range(600):
        n = rng.randint(2, 9)
        clauses = random_formula(rng, n, rng.randint(1, 4 * n))
        solver, ok = _load(clauses, n)
        got = ok and solver.solve()
        want = brute_force_sat(n, clauses) is not None
        assert got == want, (n, clauses)
        if got:
            sat += 1
            assert _model_satisfies(solver.model(), clauses)
        else:
            unsat += 1
    assert sat > 50 and unsat > 50


def test_assumptions_and_cores_match_brute_force():
    rng = random.Random(200)
    cores_seen = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        clauses = random_formula(rng, n, rng.randint(1, 3 * n))
        solver, ok = _load(clauses, n)
        assumptions = sorted({rng.choice([-1, 1]) * rng.randint(1, n)
                              for _ in range(rng.randint(0, 3))})
        got = ok and solver.solve(assumptions=assumptions)
        want = brute_force_sat(n, clauses, fixed=assumptions) is not None
        assert got == want, (clauses, assumptions)
        if got:
            model = solver.model()
            assert _model_satisfies(model, clauses)
            for a in assumptions:
                assert (model[abs(a)] == 1) == (a > 0)
        elif ok:
            core = solver.core
            assert set(core) <= set(assumptions)
            # The core must already be jointly inconsistent with the clauses.
            assert brute_force_sat(n, clauses, fixed=core) is None
            if core:
                cores_seen += 1
    assert cores_seen > 20


def test_incremental_clause_addition():
    rng = random.Random(300)
    for _ in range(120):
        n = rng.randint(2, 7)
        solver = Cdcl()
        solver.ensure_vars(n)
        so_far = []
        ok = True
        for _round in range(4):
            batch = random_formula(rng, n, rng.randint(1, n))
            for cl in batch:
                ok = solver.add_clause(cl) and ok
            so_far.extend(batch)
            got = ok and solver.solve()
            want = brute_force_sat(n, so_far) is not None
            assert got == want, so_far
            if got:
                assert _model_satisfies(solver.model(), so_far)
            if not want:
                break


def test_solved_state_is_reusable_after_assumptions():
    # An UNSAT answer under assumptions must not poison later solves.
    s = Cdcl()
    s.ensure_vars(3)
    s.add_clause([1, 2])
    s.add_clause([-1, 3])
    assert s.solve(assumptions=[-2, -1]) is False
    assert set(s.core) <= {-2, -1} and s.core
    assert s.solve() is True
    assert s.solve(assumptions=[-2]) is True
    model = s.model()
    assert model[2] == 0 and model[1] == 1


def test_root_level_unsat_is_sticky():
    s = Cdcl()
    s.ensure_vars(2)
    assert s.add_clause([1])
    assert s.add_clause([-1]) is False
    assert s.solve() is False
    assert s.add_clause([2]) is False
    assert s.solve(assumptions=[2]) is False
    assert s.core == []


def test_tautologies_and_duplicates():
    s = Cdcl()
    s.ensure_vars(2)
    assert s.add_clause([1, -1])          # tautology: no constraint
    assert s.add_clause([2, 2])           # duplicate literals collapse
    assert s.solve()
    assert s.model()[2] == 1
    assert s.solve(assumptions=[-2]) is False


def test_empty_clause_unsatisfiable():
    s = Cdcl()
    assert s.add_clause([]) is False
    assert s.solve() is False


def test_pigeonhole_unsat_with_restarts():
    # n+1 pigeons in n holes: needs several hundred conflicts, so learning,
    # clause reduction and the restart schedule all come into play.
    n = 6
    s = Cdcl()
    var = lambda p, h: p * n + h + 1
    s.ensure_vars((n + 1) * n)
    for p in range(n + 1):
        s.add_clause([var(p, h) for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                s.add_clause([-var(p1, h), -var(p2, h)])
    assert s.solve() is False
    assert s.conflicts > 100  # restart schedule actually exercised


def test_luby_restart_sequence():
    def reference(i):
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        return reference(i - ((1 << k) - 1))

    assert [_luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    for i in range(1, 3000):
        assert _luby(i) == reference(i)


def test_conflict_limit_aborts_then_recovers():
    # Exhausting the conflict budget raises; the solver stays usable and a
    # fresh unlimited solve still matches brute force.
    n = 6
    s = Cdcl()
    var = lambda p, h: p * n + h + 1
    s.ensure_vars((n + 1) * n)
    for p in range(n + 1):
        s.add_clause([var(p, h) for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                s.add_clause([-var(p1, h), -var(p2, h)])
    with pytest.raises(SolverTimeoutError):
        s.solve(conflict_limit=10)
    assert s.solve() is False


def planted_3sat(rng, n_vars, n_clauses):
    """Random clauses of 3 distinct variables, each kept only when a hidden
    random assignment satisfies it, so the formula is satisfiable."""
    hidden = [None] + [rng.random() < 0.5 for _ in range(n_vars)]
    clauses = []
    while len(clauses) < n_clauses:
        cl = [v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, n_vars + 1), 3)]
        if any(hidden[abs(l)] == (l > 0) for l in cl):
            clauses.append(cl)
    return clauses


def test_restart_heavy_formulas_match_brute_force():
    # The solver restarts after 100 conflicts (times a Luby factor), which
    # the cheap fuzz above never reaches.  Small formulas are checked
    # against brute force; planted 3-SAT of 120-150 variables at clause
    # ratio 4.26, near the phase transition, takes hundreds of conflicts.
    rng = random.Random(400)
    for _ in range(25):
        n = rng.randint(10, 13)
        clauses = random_formula(rng, n, int(4.3 * n))
        solver, ok = _load(clauses, n)
        got = ok and solver.solve()
        want = brute_force_sat(n, clauses) is not None
        assert got == want, (n, clauses)
        if got:
            assert _model_satisfies(solver.model(), clauses)
    restarted = 0
    for _ in range(10):
        n = rng.randint(120, 150)
        clauses = planted_3sat(rng, n, round(4.26 * n))
        solver, ok = _load(clauses, n)
        assert ok and solver.solve(), n
        assert _model_satisfies(solver.model(), clauses)
        restarted += solver.conflicts > 100
    assert restarted > 0


def random_clauses(rng, n_vars, n_clauses):
    """Clauses of 0-4 literals, some with a repeated literal or a literal and
    its negation."""
    clauses = []
    for _ in range(n_clauses):
        cl = [rng.choice([-1, 1]) * rng.randint(1, n_vars)
              for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 3, 4]))]
        if cl and rng.random() < 0.1:
            cl.insert(rng.randrange(len(cl) + 1), cl[0])
        if cl and rng.random() < 0.1:
            cl.insert(rng.randrange(len(cl) + 1), -cl[0])
        clauses.append(cl)
    return clauses


def _state(s):
    return s.ok, s.nvars, s.watches, s.trail, s.heap, s.queued


def test_bulk_loader_matches_clause_by_clause():
    # Each formula goes on top of a solver that already holds clauses, has
    # level-0 units (so later clauses are satisfied or falsified at level 0)
    # and was left above level 0 by a solve; some name variables not created
    # yet.
    rng = random.Random(500)
    differs = empty = 0
    for _ in range(400):
        n = rng.randint(2, 10)
        before = random_clauses(rng, n, rng.randint(0, n))
        clauses = random_clauses(rng, n + 2, rng.randint(0, 4 * n))
        lits = [l for cl in clauses for l in cl]
        starts = np.cumsum([0] + [len(cl) for cl in clauses])
        assumptions = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(2)]
        solvers = []
        for bulk in (False, True):
            s = Cdcl()
            s.ensure_vars(n)
            for cl in before:
                s.add_clause(cl)
            s.solve(assumptions=assumptions[:1])
            if bulk:
                ok = s.add_clauses(lits, starts)
            else:
                ok = all([s.add_clause(cl) for cl in clauses]) and s.ok
            solvers.append((ok, s))
        (ok_one, one), (ok_bulk, bulk) = solvers
        assert ok_one == ok_bulk and _state(one) == _state(bulk), (before, clauses)
        differs += one.nvars > n
        empty += [] in clauses
        for _round in range(3):
            assumed = sorted({rng.choice([-1, 1]) * rng.randint(1, n)
                              for _ in range(rng.randint(0, 3))})
            got = one.solve(assumptions=assumed)
            assert bulk.solve(assumptions=assumed) == got
            if got:
                assert bulk.model() == one.model()
            assert bulk.core == one.core
            assert _state(one) == _state(bulk)
    assert differs > 50 and empty > 50


def test_bulk_loader_takes_no_clauses_and_stops_when_unsatisfiable():
    s = Cdcl()
    s.ensure_vars(2)
    assert s.add_clauses([], [0])
    assert s.add_clauses([1, 2, -1, 2], [0, 2, 3, 4])
    assert s.trail == [3, 4]  # -1, then 2 from 1 | 2 (codes 2v + sign)
    assert s.add_clauses([-2, 1, 2], [0, 1, 3]) is False
    assert not s.ok and s.add_clauses([1, 2], [0, 2]) is False


class ScannedCdcl(Cdcl):
    """Checks every branching choice against a scan of all variables."""

    def _decide_var(self):
        free = [v for v in range(1, self.nvars + 1)
                if self.lval[2 * v] == UNASSIGNED]
        want = min(free, key=lambda v: (-self.activity[v], v), default=0)
        got = super()._decide_var()
        assert got == want
        return got


def _search_state(s):
    """What the search has done and will read next, the heap aside."""
    return (s.ok, s.nvars, s.trail, s.trail_lim, s.qhead, s.level, s.reason,
            s.phase, s.activity, s.var_inc, s.learnts, s.watches,
            s.max_learnts, s.conflicts, s.decisions, s.propagations, s.core)


def _bulk(clauses):
    lits = [l for cl in clauses for l in cl]
    return lits, np.cumsum([0] + [len(cl) for cl in clauses])


def _session_calls(rng):
    """One random incremental session: (method, args, kwargs) calls that a
    solver and the reference both take.  It starts from random 3-SAT near
    the threshold, so that searches conflict and restart."""
    n = rng.choice([12, 25, 50, 90])
    three_sat = [[rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), 3)]
                 for _ in range(int(rng.uniform(3.8, 4.4) * n))]
    calls = [("ensure_vars", (rng.randint(0, n),), {}),
             ("add_clauses", _bulk(three_sat), {})]
    for _ in range(rng.randint(4, 12)):
        op = rng.choice(["clause", "clauses", "solve", "solve", "solve"])
        if op == "clause":
            calls.append(("add_clause", (random_clauses(rng, n + 2, 1)[0],), {}))
        elif op == "clauses":
            clauses = random_clauses(rng, n + 2, rng.randint(0, 4))
            calls.append(("add_clauses", _bulk(clauses), {}))
        else:
            assumed = [rng.choice([-1, 1]) * rng.randint(1, n)
                       for _ in range(rng.choice([0, 0, 1, 3, 8]))]
            limit = rng.choice([None, None, None, 3])
            calls.append(("solve", (), {"assumptions": assumed,
                                        "conflict_limit": limit}))
    return calls


def test_search_matches_reference_step_for_step():
    # The solver must search exactly as the reference copy of its earlier
    # version does: the same trail, reasons, learnt clauses, decisions,
    # counters, models and cores after every call.  Small learnt limits make
    # clause reduction run, and a large starting increment makes activities
    # rescale.
    rng = random.Random(600)
    seen = Counter()
    for _ in range(60):
        new, ref = ScannedCdcl(), oracles.ReferenceCdcl()
        max_learnts = rng.choice([4, 12, 4000])
        var_inc = rng.choice([1.0, 1e99])
        for s in (new, ref):
            s.max_learnts, s.var_inc = max_learnts, var_inc
        for name, args, kwargs in _session_calls(rng):
            results, before = [], new.conflicts
            for s in (new, ref):
                try:
                    results.append(getattr(s, name)(*args, **kwargs))
                except SolverTimeoutError:
                    results.append("timeout")
            assert results[0] == results[1], name
            assert _search_state(new) == _search_state(ref), name
            if name == "solve":
                seen[results[0]] += 1
                seen["restarted"] += new.conflicts - before > 100
                seen["core"] += bool(new.core)
                if results[0] is True:
                    assert new.model() == ref.model()
        seen["reduced"] += new.max_learnts > max_learnts
        seen["rescaled"] += new.var_inc < var_inc
    assert min(seen[k] for k in (True, False, "timeout", "core", "reduced",
                                 "rescaled", "restarted")) >= 5, seen
