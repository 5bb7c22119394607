"""Conflict-driven clause learning SAT solver.

Self-contained CDCL with two-watched-literal propagation, first-UIP clause
learning with basic self-subsumption minimization, VSIDS branching with phase
saving, Luby restarts, and size-based learnt-clause reduction.  Supports
incremental clause addition between calls and solving under assumptions with
final-core extraction, which the MaxSAT layer relies on.

Variables are 1-based.  The public API takes signed DIMACS-style integers;
internally literal v is encoded as 2v (positive) or 2v+1 (negative).

Values are kept per literal, as in MiniSat (Een and Sorensson, SAT 2003):
`lval[code]` is 1 when literal `code` is true, 0 when it is false and
UNASSIGNED otherwise, so reading a literal's value is one index.

The branching heap holds (-activity, v) entries and keeps one live entry per
variable: `queued[v]` is the activity of v's live entry, or None once that
entry has been popped, and an entry at any other activity is stale and
skipped when popped.  A variable is pushed (when unassigned, bumped or
rescaled) only when it has no entry at its current activity.  Every
unassigned variable has a live entry at its activity, so the first live
entry of an unassigned variable popped is the unassigned variable of highest
activity, the lowest index on ties.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

from genpol.errors import SolverTimeoutError

UNASSIGNED = 2
BLOCK = 4096  # literals add_clauses examines at a time (or one clause)


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _dec(code: int) -> int:
    v = code >> 1
    return -v if code & 1 else v


class Cdcl:
    def __init__(self):
        self.nvars = 0
        self.clauses = []        # problem clauses (lists of encoded lits)
        self.learnts = []
        self.watches = [[], []]  # indexed by encoded literal
        self.lval = [UNASSIGNED, UNASSIGNED]  # indexed by encoded literal
        self.level = [0]
        self.reason = [None]     # invariant: reason[v][0] is v's literal
        self.phase = [0]
        self.activity = [0.0]
        self.queued = [None]     # activity of v's live heap entry, or None
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.heap = []
        self.var_inc = 1.0
        self.ok = True
        self.core = []           # failed assumptions after an UNSAT call
        self.max_learnts = 4000
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        # Entry c is the int c: attached clauses share these objects rather
        # than holding one int object per literal.
        self.code_ints = np.zeros(0, object)

    # -- variables -----------------------------------------------------

    def ensure_vars(self, n: int):
        """Creates variables nvars + 1 .. n, unassigned at activity 0."""
        k = n - self.nvars
        if k <= 0:
            return
        first = self.nvars + 1
        self.nvars = n
        self.lval += [UNASSIGNED] * (2 * k)
        self.level += [0] * k
        self.reason += [None] * k
        self.phase += [0] * k
        self.activity += [0.0] * k
        self.queued += [0.0] * k
        self.watches += [[] for _ in range(2 * k)]
        # No entry is above (0.0, first), so appending keeps the heap order
        # (and is what pushing one by one would leave).
        self.heap += [(0.0, v) for v in range(first, n + 1)]

    # -- clause management ----------------------------------------------

    def add_clause(self, lits) -> bool:
        """Add a problem clause (signed ints).  False means the formula is
        now unsatisfiable at level 0."""
        if not self.ok:
            return False
        self._cancel_until(0)
        seen = set()
        clause = []
        for lit in lits:
            if abs(lit) > self.nvars:
                self.ensure_vars(abs(lit))
            code = _enc(lit)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            v = self.lval[code]
            if v == 1:
                return True  # satisfied at level 0
            if v == 0:
                continue     # falsified at level 0
            seen.add(code)
            clause.append(code)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self._attach(clause)
        self.clauses.append(clause)
        return True

    def add_clauses(self, lits, starts) -> bool:
        """Adds clause i = lits[starts[i]:starts[i + 1]] (signed ints) for
        each i in order, leaving the state add_clause on each in turn leaves:
        the same clause lists, watch order, level-0 trail and heap.

        A clause of two or more distinct variables, none of them assigned,
        is attached as it is, its literals encoded in numpy.  The others
        (units, empty clauses, repeated variables, and clauses over a
        variable assigned at level 0 by the time they are reached) go
        through add_clause in their turn.  Clauses are examined about BLOCK
        literals at a time, so the temporaries stay small beside the clause
        lists."""
        if not self.ok:
            return False
        lits = np.asarray(lits, np.int64)
        starts = np.asarray(starts, np.int64)
        n = len(starts) - 1
        if n <= 0:
            return True
        self._cancel_until(0)
        top = max(self.nvars, int(lits.max(initial=0)), -int(lits.min(initial=0)))
        assigned = np.zeros(top + 1, bool)  # the variables of trail[:marked]
        if len(self.code_ints) < 2 * top + 2:  # grown by doubling
            self.code_ints = np.arange(4 * top + 4).astype(object)
        marked = pos = 0
        while pos < n:
            end = max(pos + 1, int(np.searchsorted(starts, starts[pos] + BLOCK,
                                                   "right")) - 1)
            m = end - pos
            block = lits[starts[pos]:starts[end]]
            offsets = starts[pos:end + 1] - starts[pos]
            size = np.diff(offsets)
            var = np.abs(block)
            local = np.repeat(np.arange(m), size)
            # add_clause takes these whatever the assignment: units, empty
            # clauses and clauses naming a variable twice
            key = np.sort(local * (top + 1) + var)
            fixed = size < 2
            fixed[key[1:][key[1:] == key[:-1]] // (top + 1)] = True
            flat = self.code_ints[(var << 1) | (block < 0)].tolist()
            bounds = offsets.tolist()
            at = 0
            while at < m:
                if marked < len(self.trail):
                    assigned[[code >> 1 for code in self.trail[marked:]]] = True
                    marked = len(self.trail)
                special = fixed[at:].copy()
                rest = slice(bounds[at], None)
                special[local[rest][assigned[var[rest]]] - at] = True
                for stop in (np.flatnonzero(special) + at).tolist() + [m]:
                    if stop > at:
                        self.ensure_vars(int(var[bounds[at]:bounds[stop]].max()))
                        watches, clauses = self.watches, self.clauses
                        for a, b in zip(bounds[at:stop], bounds[at + 1:stop + 1]):
                            clause = flat[a:b]
                            watches[clause[0]].append(clause)
                            watches[clause[1]].append(clause)
                            clauses.append(clause)
                    at = stop
                    if stop == m:
                        break
                    if not self.add_clause(block[bounds[stop]:bounds[stop + 1]].tolist()):
                        return False
                    at = stop + 1
                    if len(self.trail) > marked:  # new level-0 values: look again
                        break
            pos = end
        return True

    def _attach(self, clause):
        # watches[lit] lists the clauses currently watching `lit`; a clause
        # is inspected exactly when one of its watched literals is falsified.
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- assignment -------------------------------------------------------

    def _enqueue(self, code: int, reason):
        v = code >> 1
        self.lval[code] = 1
        self.lval[code ^ 1] = 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = 1 ^ (code & 1)
        self.trail.append(code)

    def _cancel_until(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        lval, reason, heap = self.lval, self.reason, self.heap
        activity, queued = self.activity, self.queued
        for code in self.trail[bound:]:
            lval[code] = lval[code ^ 1] = UNASSIGNED
            v = code >> 1
            reason[v] = None
            a = activity[v]
            if queued[v] != a:
                queued[v] = a
                heappush(heap, (-a, v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound

    # -- propagation -----------------------------------------------------

    def _propagate(self):
        """Runs unit propagation; returns a conflicting clause or None.

        Each clause watching the falsified literal is visited in list order.
        Its other watch moves to c[0]; if that is not true, the watch moves
        to the first literal of c[2:] that is not false, and failing that
        c[0] is enqueued (or, when false, c is the conflict)."""
        trail, lval, watches = self.trail, self.lval, self.watches
        level, reason, phase = self.level, self.reason, self.phase
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        confl = None
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            keep = []
            ws = iter(watches[falsified])
            for c in ws:
                first = c[0]
                if first == falsified:
                    first = c[0] = c[1]
                    c[1] = falsified
                fv = lval[first]
                if fv == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if lval[lk]:  # true or unassigned
                        c[1] = lk
                        c[k] = falsified
                        watches[lk].append(c)
                        break
                else:
                    keep.append(c)
                    if fv:  # unassigned: enqueue first with reason c
                        v = first >> 1
                        lval[first] = 1
                        lval[first ^ 1] = 0
                        level[v] = lvl
                        reason[v] = c
                        phase[v] = 1 ^ (first & 1)
                        trail.append(first)
                    else:
                        keep.extend(ws)
                        confl = c
                        break
            watches[falsified] = keep
            if confl is not None:
                break
        self.propagations += qhead - start
        self.qhead = len(trail) if confl is not None else qhead
        return confl

    # -- learning ----------------------------------------------------------

    def _bump(self, v: int):
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            activity[:] = [a * 1e-100 for a in activity]
            self.var_inc *= 1e-100
            for u in range(1, self.nvars + 1):
                self._requeue(u)
        else:
            self._requeue(v)

    def _requeue(self, v: int):
        """Pushes unassigned v unless it has a live entry at its activity."""
        a = self.activity[v]
        if self.lval[2 * v] == UNASSIGNED and self.queued[v] != a:
            self.queued[v] = a
            heappush(self.heap, (-a, v))

    def _analyze(self, confl):
        """First-UIP conflict analysis.  Returns (learnt, backjump level)."""
        cur = len(self.trail_lim)
        seen = bytearray(self.nvars + 1)
        learnt = [0]
        counter = 0
        idx = len(self.trail) - 1
        p = None
        c = confl
        while True:
            for q in (c if p is None else c[1:]):
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            c = self.reason[p >> 1]
        learnt[0] = p ^ 1

        out = [learnt[0]]
        for q in learnt[1:]:
            r = self.reason[q >> 1]
            if r is None:
                out.append(q)
                continue
            for x in r[1:]:
                if not seen[x >> 1] and self.level[x >> 1] > 0:
                    out.append(q)
                    break
        learnt = out
        if len(learnt) == 1:
            return learnt, 0
        m = max(range(1, len(learnt)), key=lambda i: self.level[learnt[i] >> 1])
        learnt[1], learnt[m] = learnt[m], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _analyze_final(self, failed_code: int, assumption_set) -> list:
        """Assumptions responsible for forcing `failed_code` true (which
        contradicts the assumption failed_code ^ 1).  Signed literals."""
        core = [_dec(failed_code ^ 1)]
        v0 = failed_code >> 1
        if self.level[v0] == 0:
            return core
        seen = bytearray(self.nvars + 1)
        seen[v0] = 1
        for i in range(len(self.trail) - 1, -1, -1):
            code = self.trail[i]
            v = code >> 1
            if not seen[v]:
                continue
            r = self.reason[v]
            if r is None:
                if code in assumption_set and code != (failed_code ^ 1):
                    core.append(_dec(code))
            else:
                for q in r[1:]:
                    if self.level[q >> 1] > 0:
                        seen[q >> 1] = 1
            seen[v] = 0
        return core

    # -- search ------------------------------------------------------------

    def _decide_var(self) -> int:
        """The unassigned variable of highest activity (lowest index on
        ties), its heap entry popped; 0 when every variable is assigned."""
        heap, queued, lval = self.heap, self.queued, self.lval
        while heap:
            act, v = heappop(heap)
            if queued[v] == -act:
                queued[v] = None
                if lval[2 * v] == UNASSIGNED:
                    return v
        return 0

    def _reduce_learnts(self):
        locked = {id(self.reason[code >> 1]) for code in self.trail
                  if self.reason[code >> 1] is not None}
        self.learnts.sort(key=len)
        removed = set()
        kept = []
        half = len(self.learnts) // 2
        for i, c in enumerate(self.learnts):
            if i >= half and len(c) > 2 and id(c) not in locked:
                removed.add(id(c))
            else:
                kept.append(c)
        if removed:
            self.learnts = kept
            for ws in self.watches:
                ws[:] = [c for c in ws if id(c) not in removed]

    def solve(self, assumptions=(), time_limit=None, conflict_limit=None) -> bool:
        """True iff satisfiable under `assumptions` (signed ints).  When False
        and assumptions were given, self.core is a subset of them jointly
        inconsistent with the clauses (empty core: unsatisfiable outright)."""
        self.core = []
        if not self.ok:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            return False
        codes = [_enc(a) for a in assumptions]
        self.ensure_vars(max(codes, default=0) >> 1)
        assumption_set = set(codes)
        deadline = None if time_limit is None else time.monotonic() + time_limit
        start_conflicts = self.conflicts
        since_restart = 0
        restart_idx = 1
        restart_limit = 100 * _luby(restart_idx)

        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    v = self.lval[learnt[0]]
                    if v == 0:
                        self.ok = False
                        return False
                    if v == UNASSIGNED:
                        self._enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self.learnts.append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                if since_restart >= restart_limit:
                    restart_idx += 1
                    restart_limit = 100 * _luby(restart_idx)
                    since_restart = 0
                    self._cancel_until(0)
                if len(self.learnts) >= self.max_learnts:
                    self._reduce_learnts()
                    self.max_learnts += 500
                if deadline is not None and self.conflicts % 256 == 0 \
                        and time.monotonic() > deadline:
                    raise SolverTimeoutError("SAT search exceeded time limit")
                if conflict_limit is not None \
                        and self.conflicts - start_conflicts > conflict_limit:
                    raise SolverTimeoutError("SAT search exceeded conflict limit")
                continue

            if len(self.trail_lim) < len(codes):
                code = codes[len(self.trail_lim)]
                v = self.lval[code]
                if v == 0:
                    self.core = self._analyze_final(code ^ 1, assumption_set)
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                if v == UNASSIGNED:
                    self.decisions += 1
                    self._enqueue(code, None)
                continue

            v = self._decide_var()
            if v == 0:
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue((v << 1) | (self.phase[v] ^ 1), None)

    def model(self) -> list:
        """Values after a satisfiable solve(); entry i is variable i (0/1)."""
        return [0] + [1 if x == 1 else 0 for x in self.lval[2::2]]


def _luby(i: int) -> int:
    """1-based Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i != (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)
