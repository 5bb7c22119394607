"""Propositional theory whose optimal models are minimum-cost general policies.

Variables:

* Select(f): feature f is part of the policy (soft: not selecting f saves w(f)),
* Good(c):   the transitions of equivalence class c are policy moves,
* V(s, d):   solvable state s is labeled with value d, where d may range over
             goal_dist(s) .. v_slack * goal_dist(s) (goals: exactly 0).

Hard constraints:

1. every alive state has a good outgoing class            (tag "cover")
2. every solvable state takes at least one value          (tag "value")
3. good transitions strictly decrease the value label     (tag "descend")
4. selected features separate goal from non-goal states   (tag "goalsep")
5. classes leading into dead-ends are never good          (tag "deadend")
6. selected features distinguish good from bad classes    (tag "separate")

Constraint 2 is "at least one": keeping each state's least label L(s) alone
leaves every clause satisfied, as the descend clause of L(s) on a good (s, t),
t alive, puts L(t) below L(s).  So "exactly one" has the same optimal policies.

Transitions are grouped into equivalence classes by their feature change
profile; constraints 1, 5 and 6 operate on class variables.  Constraint 6 is
built only for a pair set tau, which the learning loop grows on demand; the
others are always complete.

Everything here works on the arrays of the sample (`space.SampleSet`): the
change profiles of all alive transitions form one uint8 [transitions,
features] matrix, `compute_classes` numbers its distinct rows by first
occurrence, and `class_of` is an int64 array over the sample's alive
transitions.  The V(s, d) of a state are consecutive variables from
`Theory.v_first[s]`, d = goal_dist(s) first.  Each constraint family is
emitted from numpy as one `maxsat.Clauses` block, in the order the clauses
are numbered in the `.wcnf` file; `Theory.families` keeps each family's tag
and clause count, from which `genpol encode` writes the `.tags` file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from genpol.errors import GenpolError
from genpol.features import FeaturePool, boolean_matrix
from genpol.maxsat import Clauses, WcnfProblem, ranges
from genpol.space import SampleSet, group

FLAT, UP, DOWN = 0, 1, 2

# initial_pairs starts from all class pairs when there are at most this many;
# otherwise it adds this many seeded random pairs per class.
PAIR_FULL_LIMIT = 4000
EXTRA_PAIRS_PER_CLASS = 2

# Why an infeasible pool has no policy, given `Theory.infeasible`.
INFEASIBLE = ("no policy in feature space: goal state {} and non-goal state {} "
              "have identical feature values")


def _first_ids(rows: np.ndarray):
    """(ids, first): per row the id of its value, ids numbered by first
    occurrence, and per id the row where it first occurs (ascending)."""
    if not rows.shape[1]:  # zero-width rows are all equal
        return np.zeros(len(rows), dtype=np.int64), np.arange(min(1, len(rows)))
    # Keys equal exactly when the rows are: the bytes of each row.
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, inverse = group(keys)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return rank[inverse], first[order]


def _firsts(ids: np.ndarray, n_ids: int, side: np.ndarray) -> np.ndarray:
    """[2, n_ids]: per id, the first row i of that id with side[i] false
    (row 0) and true (row 1); len(ids) where there is none."""
    out = np.full((2, n_ids), len(ids))
    np.minimum.at(out, (side.astype(np.intp), ids), np.arange(len(ids)))
    return out


def _direction_codes(matrix: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """uint8 [transitions, features]: (source value > 0) << 2 | direction of
    the change from state src[i] to state dst[i]."""
    a, b = matrix[:, src].T, matrix[:, dst].T
    codes = (a > 0).astype(np.uint8) << 2  # FLAT unless set below
    codes[b > a] |= UP
    codes[b < a] |= DOWN
    return codes


@dataclass
class Classes:
    """Transition classes, numbered by first occurrence among the sample's
    alive transitions."""
    codes: np.ndarray     # uint8 [classes, features]: the members' change profile
    dst_dead: np.ndarray  # bool per class: some member leads into a dead end
    size: np.ndarray      # int64 per class: number of member transitions

    def __len__(self) -> int:
        return len(self.size)


def compute_classes(sample: SampleSet, matrix: np.ndarray):
    """Groups alive transitions indistinguishable by the full pool, so no two
    classes share a change profile.

    Returns (classes, class_of), class_of[i] the class of the sample's alive
    transition i.  Merging keeps the optimum: one class per transition gives
    the same cost (acceptance criterion 7, on the test oracle's singleton
    classes).
    """
    codes = _direction_codes(matrix, sample.src, sample.dst)
    class_of, first = _first_ids(codes)
    n = len(first)
    dead = sample.goal_dist[sample.dst] < 0
    return Classes(codes[first], np.bincount(class_of, weights=dead, minlength=n) > 0,
                   np.bincount(class_of, minlength=n)), class_of


def _out_classes(sample: SampleSet, class_of: np.ndarray, n_classes: int) -> Clauses:
    """One row per alive state, ascending: the distinct classes of its
    outgoing transitions, ascending."""
    n = max(n_classes, 1)
    key = np.unique(sample.src * n + class_of)
    return Clauses.of(key % n, np.unique(key // n, return_counts=True)[1])


@dataclass
class Theory:
    wcnf: WcnfProblem
    families: list            # (tag, clause count) per constraint family, in clause order
    n_select: int
    n_good: int
    goal_dist: np.ndarray     # per global state (the sample's)
    v_first: np.ndarray       # per global state: variable of V(s, goal_dist(s))
    v_count: np.ndarray       # per global state: number of admissible values
    pairs: list               # encoded tau (class index pairs a < b, as given)
    infeasible: tuple | None  # (goal state, non-goal state) with equal signature
    stats: dict


def _separation_clauses(matrix: np.ndarray, sample: SampleSet):
    """Minimal deduplicated goal/non-goal difference sets (one row of feature
    ids each), or a witness pair of states no feature can tell apart."""
    sigs = boolean_matrix(matrix).T  # per global state
    ids, first = _first_ids(sigs)
    n = len(ids)
    other, goal = _firsts(ids, len(first), sample.is_goal)  # per signature
    both = np.flatnonzero((goal < n) & (other < n))
    if len(both):
        s = both[np.argmin(goal[both])]
        return None, (int(goal[s]), int(other[s]))

    # Shapes are spelled out, as a pool may be empty: zero features.
    gsigs, osigs = sigs[goal[goal < n]], sigs[other[other < n]]
    diffs = (gsigs[:, None] != osigs[None]).reshape(len(gsigs) * len(osigs), sigs.shape[1])
    masks = diffs[_first_ids(diffs)[1]]
    # Fewest features first, then as binary numbers with feature f as bit f.
    order = np.lexsort(np.vstack([masks.T, masks.sum(axis=1)]))
    kept: list = []
    for mask in masks[order]:
        if not any((k <= mask).all() for k in kept):
            kept.append(mask)
    kept = np.array(kept, dtype=bool).reshape(len(kept), sigs.shape[1])
    return Clauses.of(np.nonzero(kept)[1], kept.sum(axis=1)), None


def build_theory(sample: SampleSet, pool: FeaturePool, matrix: np.ndarray,
                 classes: Classes, class_of: np.ndarray, v_slack: int = 2,
                 pairs: list | None = None) -> Theory:
    n_select = len(pool)
    n_good = len(classes)
    dist = sample.goal_dist
    v_count = np.where(dist >= 0, (v_slack - 1) * dist + 1, 0)
    v_first = n_select + n_good + 1 + np.cumsum(v_count) - v_count
    nvars = n_select + n_good + int(v_count.sum())
    good = lambda c: n_select + 1 + c  # the Good(c) variables
    # in the order given, so appending pairs appends hard clauses
    enc_pairs = list(dict.fromkeys((min(a, b), max(a, b))
                                   for a, b in pairs or () if a != b))
    soft = Clauses.of(-np.arange(1, n_select + 1), np.ones(n_select, np.int64))
    families = []

    # 4. goal separation (first: an infeasible pool is detected here)
    sep, witness = _separation_clauses(matrix, sample)
    if witness is not None:
        families.append(("goalsep", Clauses.of([], [0])))
        enc_pairs = []
    else:
        families.append(("goalsep", Clauses(sep.lits + 1, sep.starts)))  # Select(f)
        families += _state_families(sample, classes, class_of, good, v_first,
                                    v_count)
        families.append(("separate", _separate(classes, enc_pairs, good)))

    wcnf = WcnfProblem(nvars, Clauses.join([part for _, part in families]), soft,
                       np.asarray(pool.weights, np.int64))
    theory = Theory(wcnf, [(tag, len(part)) for tag, part in families], n_select,
                    n_good, dist, v_first, v_count, enc_pairs, witness, {})
    theory.stats = _stats(theory, sample)
    return theory


def _state_families(sample: SampleSet, classes: Classes, class_of: np.ndarray,
                    good, v_first: np.ndarray, v_count: np.ndarray) -> list:
    """The cover, value, deadend and descend clauses, in that order."""
    dist = sample.goal_dist

    # 1. alive states are covered by a good class
    out = _out_classes(sample, class_of, len(classes))
    cover = Clauses(good(out.lits), out.starts)

    # 2. at least one value per solvable state (see the module docstring)
    count = v_count[dist >= 0]
    value = Clauses.of(ranges(v_first[dist >= 0], count), count)

    # 5. dead-end targets are never good
    dead = good(np.flatnonzero(classes.dst_dead))
    deadend = Clauses.of(-dead, np.ones(len(dead), np.int64))

    # 3. good transitions descend: for transition (s, t) of class c and each
    # label d = goal_dist(s) + k of s, -Good(c) | -V(s, d) | the V(t, d2) with
    # d2 < d.  Dead-end targets are handled above; goal targets satisfy any
    # label.
    keep = sample.alive[sample.dst]
    count = v_count[sample.src[keep]]
    row = np.repeat(np.flatnonzero(keep), count)  # the transition of each clause
    k = ranges(np.zeros(len(count), np.int64), count)
    src, dst = sample.src[row], sample.dst[row]
    below = np.clip(dist[src] + k - dist[dst], 0, v_count[dst])
    heads = np.stack([-good(class_of[row]), -(v_first[src] + k)], axis=1)
    descend = Clauses.of(heads.ravel(), np.full(len(row), 2)).zip(
        Clauses.of(ranges(v_first[dst], below), below))
    return [("cover", cover), ("value", value), ("deadend", deadend),
            ("descend", descend)]


def _separate(classes: Classes, enc_pairs: list, good) -> Clauses:
    """6. D2 separation over the pairs: for (a, b), -Good(a) | Good(b) | the
    Select(f) of the features whose change differs, then the same with a and
    b swapped."""
    if not enc_pairs:
        return Clauses()
    lo, hi = np.array(enc_pairs).T
    # One row per clause: two head columns, then one per feature.
    cells = np.ones((2 * len(lo), 2 + classes.codes.shape[1]), dtype=bool)
    cells[:, 2:] = np.repeat(classes.codes[lo] != classes.codes[hi], 2, axis=0)
    lits = np.flatnonzero(cells)
    lits %= cells.shape[1]
    lits -= 1  # the Select(f) variable, f + 1, of column f + 2
    out = Clauses.of(lits, cells.sum(axis=1))
    out.lits[out.starts[:-1]] = -good(np.stack([lo, hi], axis=1).ravel())
    out.lits[out.starts[:-1] + 1] = good(np.stack([hi, lo], axis=1).ravel())
    return out


def _stats(theory: Theory, sample: SampleSet) -> dict:
    n_classes = theory.n_good
    full_sep = n_classes * (n_classes - 1)  # both directions of each pair
    base = len(theory.wcnf.hard) - dict(theory.families).get("separate", 0)
    return {
        "n_vars": theory.wcnf.nvars,
        "n_hard": len(theory.wcnf.hard),
        "n_soft": len(theory.wcnf.soft),
        "n_clauses_full": base + full_sep + len(theory.wcnf.soft),
        "n_pairs": len(theory.pairs),
        "n_states": sample.n_states,
        "n_alive_transitions": sample.n_alive_transitions(),
    }


def initial_pairs(classes: Classes, class_of: np.ndarray, sample: SampleSet,
                  seed: int = 0) -> list:
    """Starting tau: all pairs when the quadratic count is small; otherwise
    pairs of classes leaving a common state plus EXTRA_PAIRS_PER_CLASS seeded
    random pairs per class."""
    n = len(classes)
    if n * (n - 1) // 2 <= PAIR_FULL_LIMIT:
        return list(combinations(range(n), 2))

    pairs = set()
    for cs in _out_classes(sample, class_of, n).tolist():
        pairs.update(combinations(cs, 2))
    rng = random.Random(seed)
    want = len(pairs) + EXTRA_PAIRS_PER_CLASS * n
    attempts = 0
    while len(pairs) < want and attempts < 20 * want:
        a = rng.randrange(n)
        b = rng.randrange(n)
        attempts += 1
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def check_model(theory: Theory, classes: Classes, model: list):
    """Refuses a model read from outside (0/1 per variable, index 0 unused)
    unless it satisfies the hard clauses of `theory` and separates good from
    bad `classes` on every pair; the error names what it violates first."""
    if theory.infeasible is not None:
        raise GenpolError(INFEASIBLE.format(*theory.infeasible))
    held = theory.wcnf.hard.satisfied(np.asarray(model, dtype=bool))
    if not held.all():
        i = int(np.argmin(held))
        ends = np.cumsum([count for _, count in theory.families])
        tag = theory.families[int(np.searchsorted(ends, i, "right"))][0]
        raise GenpolError(f"model violates hard clause {i} ({tag})")
    bad = validate_solution(classes, *decode(theory, model))
    if bad:
        raise GenpolError(f"model leaves {len(bad)} class pairs unseparated, "
                          f"first {bad[0]}")


def decode(theory: Theory, model: list):
    """(selected feature ids, good class ids) of a model."""
    m = np.asarray(model, dtype=bool)
    n_select, n_good = theory.n_select, theory.n_good
    phi = np.flatnonzero(m[1:n_select + 1]).tolist()
    goods = np.flatnonzero(m[n_select + 1:n_select + n_good + 1]).tolist()
    return phi, goods


def validate_solution(classes: Classes, phi: list, goods: list) -> list:
    """All D2-separation violations of a candidate solution.

    Groups classes by their change profile restricted to the selected
    features; a group mixing good and bad classes yields violated pairs to
    be added to tau: its first good class with each of its bad classes, and
    its first bad class with each of its other good classes.
    """
    n = len(classes)
    ids, first = _first_ids(classes.codes[:, phi])
    good = np.zeros(n, dtype=bool)
    good[goods] = True
    firsts = _firsts(ids, len(first), good)  # per group: first bad, first good
    mixed = (firsts < n).all(axis=0)[ids]
    partner = firsts[(~good).astype(np.intp), ids]
    at = np.flatnonzero(mixed & (np.arange(n) != firsts[1, ids]))
    lo, hi = np.minimum(at, partner[at]), np.maximum(at, partner[at])
    key = np.unique(lo * n + hi)
    return list(zip((key // n).tolist(), (key % n).tolist()))
