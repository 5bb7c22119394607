"""Weighted partial MaxSAT on top of the embedded CDCL solver.

Optimization uses core-guided search (OLL; Morgado et al., CP 2014): all
active soft clauses are assumed satisfied; each unsatisfiable core raises
the lower bound by the core's minimum weight and is relaxed into a sum, a
totalizer over the core whose "at least 2" output is assumed false with that
weight, so that further violations inside the core are charged.  Outputs
are built lazily (Martins et al., CP 2014; RC2, Ignatiev et al., JSAT 2019):
when a sum's bound b shows up in a core, every node gets its output b + 1
and the sum's new bound is assumed with the sum's weight.  The first
satisfying call is optimal, so the cost of the returned model always equals
the proven lower bound.  One search (`Oll`) can be continued on a problem
that appends hard clauses: added clauses only raise the optimum, so the
solver, its assumptions, the sums and the lower bound all carry over.

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
from itertools import chain

import numpy as np

from genpol.errors import GenpolError, SolverTimeoutError
from genpol.sat import Cdcl

OPTIMUM = "OPTIMUM"
UNSATISFIABLE = "UNSATISFIABLE"


def ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenated ranges first[i] .. first[i] + count[i] - 1."""
    total = int(count.sum())
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(total)


@dataclass(eq=False)
class Clauses:
    """Clauses in CSR form: clause i is lits[starts[i]:starts[i + 1]], signed
    DIMACS literals."""
    lits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    starts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))

    @classmethod
    def of(cls, lits, lengths) -> Clauses:
        """From the literals of all clauses in order and each clause's length."""
        starts = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=starts[1:])
        return cls(np.asarray(lits, np.int64), starts)

    @classmethod
    def from_lists(cls, clauses) -> Clauses:
        return cls.of(np.fromiter(chain.from_iterable(clauses), np.int64),
                      np.fromiter(map(len, clauses), np.int64, len(clauses)))

    @classmethod
    def join(cls, parts) -> Clauses:
        """The clauses of `parts`, one after the other."""
        return cls.of(np.concatenate([p.lits for p in parts]),
                      np.concatenate([p.lengths() for p in parts]))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.starts)

    def tolist(self) -> list:
        flat = self.lits.tolist()
        return [flat[a:b] for a, b in zip(self.starts[:-1].tolist(),
                                          self.starts[1:].tolist())]

    def take(self, order: np.ndarray) -> Clauses:
        """Clause order[i] as clause i."""
        lengths = self.lengths()[order]
        return Clauses.of(self.lits[ranges(self.starts[order], lengths)], lengths)

    def zip(self, tail: Clauses) -> Clauses:
        """Clause i followed by the literals of tail's clause i."""
        head = self.lengths()
        out = Clauses.of(np.empty(len(self.lits) + len(tail.lits), np.int64),
                         head + tail.lengths())
        at = ranges(out.starts[:-1], head)
        out.lits[at] = self.lits
        rest = np.ones(len(out.lits), bool)
        rest[at] = False
        out.lits[rest] = tail.lits
        return out

    def satisfied(self, model: np.ndarray) -> np.ndarray:
        """Per clause, whether `model` (bool per variable, index 0 unused,
        covering every literal) makes one of its literals true; false for
        the empty clause."""
        truth = np.concatenate([model, ~model[:0:-1]])  # truth[l], -n <= l <= n
        size = self.lengths()
        out = np.zeros(len(size), bool)
        some = size > 0
        if some.any():
            out[some] = np.logical_or.reduceat(truth[self.lits], self.starts[:-1][some])
        return out


@dataclass
class WcnfProblem:
    """Hard clauses, and soft clauses with one positive weight each."""
    nvars: int = 0
    hard: Clauses = field(default_factory=Clauses)
    soft: Clauses = field(default_factory=Clauses)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        """Rejects a weight below 1, weights summing beyond 64 bits and
        literal 0; grows nvars to cover every literal."""
        weights = self.weights
        if len(weights):
            if weights.min() <= 0:
                raise GenpolError(f"soft clause weight must be positive, got "
                                  f"{weights.min()}")
            if sum(weights.tolist()) >= np.iinfo(np.int64).max:
                raise GenpolError("soft clause weights sum beyond 64 bits")
        for part in (self.hard, self.soft):
            if len(part.lits):
                if not part.lits.all():
                    raise GenpolError("literal 0 is reserved for clause termination")
                self.nvars = max(self.nvars, int(part.lits.max()), -int(part.lits.min()))

    @property
    def top(self) -> int:
        return 1 + sum(self.weights.tolist())


@dataclass
class MaxSatResult:
    status: str
    cost: int | None = None
    model: list | None = None   # 0/1 per variable, index 0 unused


def _lines(weights, clauses: Clauses) -> str:
    """One 'weight lits 0' line per clause.  The token 0 only ever ends a
    clause, and a weight follows it, so ' 0 ' marks every line break."""
    ones = np.ones(len(clauses), np.int64)
    tokens = Clauses.of(weights, ones).zip(clauses).zip(Clauses.of(0 * ones, ones))
    return " ".join(map(str, tokens.lits.tolist())).replace(" 0 ", " 0\n")


def format_wcnf(p: WcnfProblem) -> str:
    top = p.top
    lines = [f"p wcnf {p.nvars} {len(p.hard) + len(p.soft)} {top}"]
    for weights, clauses in ((np.full(len(p.hard), top), p.hard),
                             (p.weights, p.soft)):
        if len(clauses):
            lines.append(_lines(weights, clauses))
    return "\n".join(lines) + "\n"


def parse_wcnf(text: str) -> WcnfProblem:
    """The problem of a WCNF text with exactly one problem line, which must
    declare as many clauses as follow it and a variable count that covers
    every literal."""
    nvars = top = None
    hard, soft, weights = [], [], []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise GenpolError(f"malformed problem line {ln}: '{raw}'")
            if nvars is not None:
                raise GenpolError(f"second problem line at line {ln}")
            nvars, declared, top = _ints(parts[2:], f"problem line {ln}")
            if nvars < 0:
                raise GenpolError(f"negative variable count {nvars} at line {ln}")
            continue
        if nvars is None:
            raise GenpolError(f"clause before problem line at line {ln}")
        nums = _ints(line.split(), f"line {ln}")
        if nums[-1] != 0:
            raise GenpolError(f"clause at line {ln} lacks terminating 0")
        weight, clause = nums[0], nums[1:-1]
        beyond = [lit for lit in clause if abs(lit) > nvars]
        if beyond:
            raise GenpolError(f"literal {beyond[0]} beyond the declared "
                              f"{nvars} variables at line {ln}")
        if weight == top:
            hard.append(clause)
        elif 0 < weight < top:
            soft.append(clause)
            weights.append(weight)
        else:
            raise GenpolError(f"clause weight {weight} out of range at line {ln}")
    if nvars is None:
        raise GenpolError("missing problem line")
    if len(hard) + len(soft) != declared:
        raise GenpolError(f"problem line declares {declared} clauses, "
                          f"found {len(hard) + len(soft)}")
    try:
        weights = np.array(weights, np.int64)
    except OverflowError:
        raise GenpolError("soft clause weight beyond 64 bits") from None
    return WcnfProblem(nvars, Clauses.from_lists(hard), Clauses.from_lists(soft),
                       weights)


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
    m = np.asarray(model, dtype=bool)
    if len(m) <= p.nvars:
        raise GenpolError(f"model of {len(m) - 1} variables for {p.nvars}")
    return (bool(p.hard.satisfied(m).all()),
            sum(p.weights[~p.soft.satisfied(m)].tolist()))


class _Sum:
    """A totalizer (Bailleux and Boufkhad, CP 2003) whose output j (1-based)
    is forced true when at least j inputs are; only that direction is
    encoded.  The tree merges neighbouring nodes level by level (an odd last
    node moves up unmerged).  A node is [outputs, inputs below it, left
    outputs, right outputs], a leaf [[its literal], 1]; output j of a merge
    of a and b gets the clauses out[j] | -a[ia] | -b[j - ia] (1-based,
    without the term for an index of 0)."""

    def __init__(self, solver: Cdcl, lits: list, weight: int):
        self.weight = weight  # of the assumption on each bound
        level = [[[lit], 1] for lit in lits]
        self.merges = []      # the inner nodes, children first
        while len(level) > 1:
            up = [[[], a[1] + b[1], a[0], b[0]] for a, b in zip(level[::2], level[1::2])]
            self.merges += up
            level = up + level[2 * len(up):]
        self.outs, self.size = level[0][:2]
        self.extend(solver, 2)

    def extend(self, solver: Cdcl, bound: int):
        """Builds the outputs up to `bound` in every node."""
        clauses, top = [], solver.nvars
        for out, size, a, b in self.merges:
            while len(out) < min(bound, size):
                top += 1
                out.append(top)
                j = len(out)
                for ia in range(max(0, j - len(b)), min(j, len(a)) + 1):
                    clauses.append([top] + [-a[ia - 1]] * (ia > 0)
                                   + [-b[j - ia - 1]] * (ia < j))
        solver.ensure_vars(top)
        added = Clauses.from_lists(clauses)
        solver.add_clauses(added.lits, added.starts)


class Oll:
    """One OLL search on the embedded solver, continued by `solve_wcnf` on
    each problem that appends hard clauses to the one loaded last."""

    def __init__(self):
        self.solver = Cdcl()
        self.problem = None  # the problem loaded last
        self.active = {}     # assumption literal -> remaining weight
        self.sums = {}       # the assumption -out[b] on a sum's top bound b -> the sum
        self.lower = 0

    def charge(self, lit: int, weight: int):
        active = self.active
        active[lit] = active.get(lit, 0) + weight
        if active[lit] == 0:
            del active[lit]

    def load(self, p: WcnfProblem):
        """Adds the clauses p has beyond the problem loaded last."""
        old, solver = self.problem, self.solver
        if old is not None and not (p.nvars == old.nvars and all(map(
                np.array_equal, (old.hard.starts, old.hard.lits, old.soft.lits,
                                 old.soft.starts, old.weights),
                (p.hard.starts[:len(old.hard) + 1], p.hard.lits[:len(old.hard.lits)],
                 p.soft.lits, p.soft.starts, p.weights)))):
            raise GenpolError("a continued MaxSAT search takes only hard clauses "
                              "appended to the last problem")
        self.problem = p
        solver.ensure_vars(p.nvars)
        solver.add_clauses(p.hard.lits, p.hard.starts[len(old.hard) if old else 0:])
        if old is not None:
            return
        # A unit soft clause is assumed as it is; a wider one gets a fresh
        # relaxation variable r (clause | r, assume -r); an empty one is paid.
        size = p.soft.lengths()
        wide = np.flatnonzero(size > 1)
        relax = solver.nvars + 1 + np.arange(len(wide))
        solver.ensure_vars(solver.nvars + len(wide))
        assumed = np.zeros(len(size), np.int64)
        assumed[size == 1] = p.soft.lits[p.soft.starts[:-1][size == 1]]
        assumed[wide] = -relax
        for w, lit in zip(p.weights.tolist(), assumed.tolist()):
            if lit:
                self.charge(lit, w)
            else:
                self.lower += w
        relaxed = p.soft.take(wide).zip(Clauses.of(relax, np.ones(len(wide), np.int64)))
        solver.add_clauses(relaxed.lits, relaxed.starts)

    def search(self, deadline) -> MaxSatResult:
        """The optimum of the problem loaded last: the first satisfying call
        is optimal, so the cost of its model must equal the lower bound."""
        solver, active = self.solver, self.active
        while True:
            budget = None
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise SolverTimeoutError("MaxSAT search exceeded time limit",
                                             best_cost=self.lower)
            try:
                sat = solver.solve(assumptions=list(active), time_limit=budget)
            except SolverTimeoutError as e:
                raise SolverTimeoutError("MaxSAT search exceeded time limit",
                                         best_cost=self.lower) from e
            if sat:
                model = solver.model()
                hard_ok, cost = evaluate(self.problem, model)
                if not hard_ok or cost != self.lower:
                    raise GenpolError(
                        f"internal optimization error: model cost {cost} vs "
                        f"proven bound {self.lower} (hard_ok={hard_ok})")
                return MaxSatResult(OPTIMUM, cost=cost, model=model)
            if not solver.core:
                return MaxSatResult(UNSATISFIABLE)

            core = _trim_core(solver, solver.core, deadline)
            wmin = min(active[l] for l in core)
            self.lower += wmin
            for l in core:  # a sum whose top bound b is in the core gets b + 1
                self.charge(l, -wmin)
                total = self.sums.pop(l, None)
                if total is not None and len(total.outs) < total.size:
                    total.extend(solver, len(total.outs) + 1)
                    self.sums[-total.outs[-1]] = total
                    self.charge(-total.outs[-1], total.weight)
            if len(core) > 1:
                total = _Sum(solver, [-l for l in core], wmin)
                self.sums[-total.outs[1]] = total
                self.charge(-total.outs[1], wmin)


def solve_wcnf(p: WcnfProblem, time_limit: float | None = None,
               oll: Oll | None = None) -> MaxSatResult:
    """Exact optimum via OLL core-guided search on the embedded solver,
    continuing the search `oll` when one is given."""
    deadline = None if time_limit is None else time.monotonic() + time_limit
    oll = Oll() if oll is None else oll
    oll.load(p)
    return oll.search(deadline)


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


def check_time_limit(time_limit: float | None):
    """Rejects a solver time limit that is not positive and finite; None is
    no limit."""
    if time_limit is not None and not 0 < time_limit < float("inf"):
        raise GenpolError(f"solver time limit must be positive and finite, "
                          f"got {time_limit}")


def solve(p: WcnfProblem, backend: str = "embedded",
          time_limit: float | None = None, oll: Oll | None = None) -> MaxSatResult:
    """Solve with the embedded solver, continuing the search `oll` when one
    is given, or run `backend` as an external solver command on the whole
    of p, within `time_limit` seconds (None: no limit)."""
    check_time_limit(time_limit)
    if backend == "embedded":
        return solve_wcnf(p, time_limit=time_limit, oll=oll)
    return solve_wcnf_external(p, backend, time_limit=time_limit)


def solve_wcnf_external(p: WcnfProblem, command: str,
                        time_limit: float | None = None) -> MaxSatResult:
    """Runs an external MaxSAT solver on the WCNF serialization.

    The solver is invoked as `command <file>` and must print standard
    's'/'v' result lines; the status is the first line that starts with
    's '.  The returned model is re-checked locally and the reported cost
    recomputed, so a buggy external solver cannot smuggle in an infeasible
    answer (it can still claim a non-optimal one).  'SATISFIABLE', a model
    not proven optimal, is an error: the cost must be an exact optimum.
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
    status = next((" ".join(line.split()[1:]) for line in out.splitlines()
                   if line.startswith("s ")), None)
    if status == "UNSATISFIABLE":
        return MaxSatResult(UNSATISFIABLE)
    if status == "SATISFIABLE":
        raise GenpolError(f"external solver '{command}' found a model "
                          f"but did not prove it optimal")
    if status != "OPTIMUM FOUND":
        raise GenpolError(
            f"external solver '{command}' reported no optimum; "
            f"stderr: {proc.stderr.strip()[:500]}")
    model = parse_model(out, p.nvars)
    hard_ok, cost = evaluate(p, model)
    if not hard_ok:
        raise GenpolError(f"external solver '{command}' returned a model "
                          f"violating hard clauses")
    return MaxSatResult(OPTIMUM, cost=cost, model=model)
