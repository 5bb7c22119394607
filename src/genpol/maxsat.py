"""Weighted partial MaxSAT on top of the embedded CDCL solver.

Optimization uses core-guided search (OLL): all active soft clauses are
assumed satisfied; each unsatisfiable core raises the lower bound by the
core's minimum weight and introduces totalizer counting literals so that
additional violations inside the core are charged individually.  The first
satisfying call is optimal, so the cost of the returned model always equals
the proven lower bound.

Also provides WCNF serialization in the standard DIMACS-like format
("p wcnf <vars> <clauses> <top>", hard clauses carry weight = top) and a
subprocess adapter for external MaxSAT solvers speaking that format.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

from genpol.errors import GenpolError, SolverTimeoutError
from genpol.sat import Cdcl

OPTIMUM = "OPTIMUM"
UNSATISFIABLE = "UNSATISFIABLE"


@dataclass
class WcnfProblem:
    nvars: int = 0
    hard: list = field(default_factory=list)   # lists of signed ints
    soft: list = field(default_factory=list)   # (weight, clause) pairs

    def add_hard(self, clause):
        clause = list(clause)
        self.hard.append(clause)
        self._grow(clause)

    def add_soft(self, weight: int, clause):
        if weight <= 0:
            raise GenpolError(f"soft clause weight must be positive, got {weight}")
        clause = list(clause)
        self.soft.append((weight, clause))
        self._grow(clause)

    def _grow(self, clause):
        for lit in clause:
            if lit == 0:
                raise GenpolError("literal 0 is reserved for clause termination")
            if abs(lit) > self.nvars:
                self.nvars = abs(lit)

    @property
    def top(self) -> int:
        return 1 + sum(w for w, _ in self.soft)


@dataclass
class MaxSatResult:
    status: str
    cost: int | None = None
    model: list | None = None   # 0/1 per variable, index 0 unused


def format_wcnf(p: WcnfProblem) -> str:
    top = p.top
    lines = [f"p wcnf {p.nvars} {len(p.hard) + len(p.soft)} {top}"]
    for clause in p.hard:
        lines.append(" ".join([str(top)] + [str(l) for l in clause] + ["0"]))
    for w, clause in p.soft:
        lines.append(" ".join([str(w)] + [str(l) for l in clause] + ["0"]))
    return "\n".join(lines) + "\n"


def parse_wcnf(text: str) -> WcnfProblem:
    p = None
    top = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise GenpolError(f"malformed problem line {ln}: '{raw}'")
            nvars, top = _ints(parts[2::2], f"problem line {ln}")
            p = WcnfProblem(nvars=nvars)
            continue
        if p is None:
            raise GenpolError(f"clause before problem line at line {ln}")
        nums = _ints(line.split(), f"line {ln}")
        if nums[-1] != 0:
            raise GenpolError(f"clause at line {ln} lacks terminating 0")
        weight, clause = nums[0], nums[1:-1]
        if weight == top:
            p.add_hard(clause)
        elif 0 < weight < top:
            p.add_soft(weight, clause)
        else:
            raise GenpolError(f"clause weight {weight} out of range at line {ln}")
    if p is None:
        raise GenpolError("missing problem line")
    return p


def _ints(tokens, where: str) -> list:
    try:
        return [int(t) for t in tokens]
    except ValueError as e:
        raise GenpolError(f"{where}: {e}") from None


def parse_model(text: str, nvars: int) -> list:
    """Extracts an assignment from solver output 'v' lines.

    Accepts both the classic signed-integer form ('v 1 -2 3 0') and the
    binary-string form ('v 101').  Returns 0/1 values, index 0 unused.
    """
    model = [0] * (nvars + 1)
    seen_any = False
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if line == "v" or line.startswith("v "):
            tokens.extend(line[1:].split())
            seen_any = True
    if not seen_any:
        raise GenpolError("no 'v' line in solver output")
    if len(tokens) == 1 and len(tokens[0]) > 1 and set(tokens[0]) <= {"0", "1"}:
        bits = tokens[0]
        for i, ch in enumerate(bits[:nvars], 1):
            model[i] = int(ch)
        return model
    for lit in _ints(tokens, "'v' lines"):
        if lit == 0:
            continue
        v = abs(lit)
        if v <= nvars:
            model[v] = 1 if lit > 0 else 0
    return model


def evaluate(p: WcnfProblem, model: list) -> tuple:
    """(hard clauses all satisfied, total weight of falsified soft clauses)."""

    def sat(clause):
        return any((model[l] == 1) if l > 0 else (model[-l] == 0) for l in clause)

    hard_ok = all(sat(c) for c in p.hard)
    cost = sum(w for w, c in p.soft if not sat(c))
    return hard_ok, cost


def _totalizer_outputs(solver: Cdcl, lits: list) -> list:
    """Counting literals over `lits`: output j (1-based) is forced true when
    at least j inputs are true.  Only that direction is encoded, which is all
    the core-guided loop needs."""
    nodes = [[l] for l in lits]
    while len(nodes) > 1:
        merged = []
        for i in range(0, len(nodes) - 1, 2):
            a, b = nodes[i], nodes[i + 1]
            outs = [solver.new_var() for _ in range(len(a) + len(b))]
            for ia in range(len(a) + 1):
                for ib in range(len(b) + 1):
                    if ia + ib == 0:
                        continue
                    clause = [outs[ia + ib - 1]]
                    if ia > 0:
                        clause.append(-a[ia - 1])
                    if ib > 0:
                        clause.append(-b[ib - 1])
                    solver.add_clause(clause)
            merged.append(outs)
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def solve_wcnf(p: WcnfProblem, time_limit: float | None = None) -> MaxSatResult:
    """Exact optimum via OLL core-guided search on the embedded solver."""
    deadline = time.monotonic() + time_limit if time_limit else None
    solver = Cdcl()
    solver.ensure_vars(p.nvars)
    lower = 0
    for clause in p.hard:
        if not solver.add_clause(clause):
            return MaxSatResult(UNSATISFIABLE)

    active: dict = {}  # assumption literal -> remaining weight

    def charge(lit: int, weight: int):
        active[lit] = active.get(lit, 0) + weight
        if active[lit] == 0:
            del active[lit]

    for w, clause in p.soft:
        if not clause:
            lower += w
            continue
        if len(clause) == 1:
            charge(clause[0], w)
        else:
            r = solver.new_var()
            solver.add_clause(clause + [r])
            charge(-r, w)
    if not solver.ok:
        return MaxSatResult(UNSATISFIABLE)

    while True:
        budget = None
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise SolverTimeoutError("MaxSAT search exceeded time limit",
                                         best_cost=lower)
        assumptions = list(active.keys())
        try:
            sat = solver.solve(assumptions=assumptions, time_limit=budget)
        except SolverTimeoutError as e:
            raise SolverTimeoutError("MaxSAT search exceeded time limit",
                                     best_cost=lower) from e
        if sat:
            model = solver.model()
            hard_ok, cost = evaluate(p, model)
            if not hard_ok or cost != lower:
                raise GenpolError(
                    f"internal optimization error: model cost {cost} vs "
                    f"proven bound {lower} (hard_ok={hard_ok})")
            return MaxSatResult(OPTIMUM, cost=cost, model=model)
        core = solver.core
        if not core:
            return MaxSatResult(UNSATISFIABLE)

        core = _trim_core(solver, core, deadline)
        wmin = min(active[l] for l in core)
        lower += wmin
        for l in core:
            charge(l, -wmin)
        if len(core) > 1:
            outs = _totalizer_outputs(solver, [-l for l in core])
            for j in range(1, len(outs)):
                charge(-outs[j], wmin)


def _trim_core(solver: Cdcl, core: list, deadline) -> list:
    """Cheap core reduction: re-solve under the core itself a few times."""
    for _ in range(2):
        if len(core) <= 1:
            break
        budget = None
        if deadline is not None:
            budget = max(0.01, deadline - time.monotonic())
        try:
            sat = solver.solve(assumptions=core, time_limit=budget,
                               conflict_limit=20000)
        except SolverTimeoutError:
            break
        if sat:
            raise GenpolError("internal optimization error: core not a core")
        if len(solver.core) >= len(core):
            break
        core = solver.core
    return core


def solve(p: WcnfProblem, backend: str = "embedded",
          time_limit: float | None = None) -> MaxSatResult:
    """Solve with the embedded solver, or run `backend` as an external
    solver command."""
    if backend == "embedded":
        return solve_wcnf(p, time_limit=time_limit)
    return solve_wcnf_external(p, backend, time_limit=time_limit)


def solve_wcnf_external(p: WcnfProblem, command: str,
                        time_limit: float | None = None) -> MaxSatResult:
    """Runs an external MaxSAT solver on the WCNF serialization.

    The solver is invoked as `command <file>` and must print standard
    's'/'v' result lines.  The returned model is re-checked locally and the
    reported cost recomputed, so a buggy external solver cannot smuggle in
    an infeasible answer (it can still claim a non-optimal one).
    """
    with tempfile.NamedTemporaryFile("w", suffix=".wcnf", delete=False) as f:
        f.write(format_wcnf(p))
        path = f.name
    try:
        proc = subprocess.run([command, path], capture_output=True, text=True,
                              timeout=time_limit)
    except subprocess.TimeoutExpired as e:
        raise SolverTimeoutError(f"external solver exceeded {time_limit}s") from e
    except OSError as e:
        raise GenpolError(f"cannot run external solver '{command}': {e}") from e
    finally:
        os.unlink(path)
    out = proc.stdout
    if "s UNSATISFIABLE" in out:
        return MaxSatResult(UNSATISFIABLE)
    if "s OPTIMUM FOUND" not in out and "s SATISFIABLE" not in out:
        raise GenpolError(
            f"external solver '{command}' produced no status line; "
            f"stderr: {proc.stderr.strip()[:500]}")
    model = parse_model(out, p.nvars)
    hard_ok, cost = evaluate(p, model)
    if not hard_ok:
        raise GenpolError(f"external solver '{command}' returned a model "
                          f"violating hard clauses")
    return MaxSatResult(OPTIMUM, cost=cost, model=model)
