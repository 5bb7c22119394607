"""Propositional theory whose optimal models are minimum-cost general policies.

Variables:

* Select(f): feature f is part of the policy (soft: not selecting f saves w(f)),
* Good(c):   the transitions of equivalence class c are policy moves,
* V(s, d):   solvable state s is labeled with value d, where d may range over
             goal_dist(s) .. v_slack * goal_dist(s) (goals: exactly 0).

Hard constraints:

1. every alive state has a good outgoing class            (tag "cover")
2. every solvable state takes exactly one value           (tag "value")
3. good transitions strictly decrease the value label     (tag "descend")
4. selected features separate goal from non-goal states   (tag "goalsep")
5. classes leading into dead-ends are never good          (tag "deadend")
6. selected features distinguish good from bad classes    (tag "separate")

Transitions are grouped into equivalence classes by their feature change
profile; constraints 1, 5 and 6 operate on class variables.  Constraint 6 is
built only for a pair set tau, which the learning loop grows on demand; the
others are always complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from genpol.errors import InternalInvariantError
from genpol.features import FeaturePool, boolean_matrix
from genpol.maxsat import WcnfProblem
from genpol.space import SampleSet

FLAT, UP, DOWN = 0, 1, 2

# initial_pairs starts from all class pairs when there are at most this many.
PAIR_FULL_LIMIT = 4000


@dataclass
class TransitionClass:
    index: int
    codes: bytes      # per feature: (source boolean << 2) | direction
    dst_dead: bool    # some member leads into a dead end (forces not-good)
    size: int = 1


def _direction_codes(matrix: np.ndarray, gsrc: int, gdst: int) -> np.ndarray:
    src = matrix[:, gsrc]
    dst = matrix[:, gdst]
    dirs = np.where(dst > src, UP, np.where(dst < src, DOWN, FLAT))
    return (((src > 0).astype(np.uint8) << 2) | dirs.astype(np.uint8))


def compute_classes(sample: SampleSet, matrix: np.ndarray, merge: bool = True):
    """Groups alive transitions indistinguishable by the full pool.

    Returns (classes, class_of) with class_of[(space_idx, transition_id)] set
    for every alive transition.  With merge=False every transition becomes a
    singleton class, which must yield the same optimum (the merged encoding
    is an equivalence-preserving simplification).
    """
    classes: list = []
    by_key: dict = {}
    class_of: dict = {}
    for k, t, gsrc, gdst in sample.iter_alive_transitions():
        sp = sample.spaces[k]
        dst_dead = bool(sp.goal_dist[sp.dst[t]] < 0)
        codes = _direction_codes(matrix, gsrc, gdst).tobytes()
        key = codes if merge else (k, t)
        cls = by_key.get(key)
        if cls is None:
            cls = TransitionClass(len(classes), codes, dst_dead)
            by_key[key] = cls
            classes.append(cls)
        else:
            cls.size += 1
            cls.dst_dead = cls.dst_dead or dst_dead
        class_of[(k, t)] = cls.index
    return classes, class_of


@dataclass
class Theory:
    wcnf: WcnfProblem
    tags: list                # formula tag per hard clause
    n_select: int
    n_good: int
    v_var: dict               # (global state, d) -> variable
    v_dom: dict               # global state -> list of admissible d
    pairs: list               # encoded tau (unordered class index pairs)
    infeasible: tuple | None  # (goal state, non-goal state) with equal signature
    stats: dict

    def select_var(self, f: int) -> int:
        return f + 1

    def good_var(self, c: int) -> int:
        return self.n_select + c + 1


def _value_domains(sample: SampleSet, v_slack: int):
    v_dom: dict = {}
    for off, sp in zip(sample.offsets, sample.spaces):
        for sid, dist in enumerate(sp.goal_dist.tolist()):
            if dist >= 0:  # dead ends take no value label; goals exactly 0
                v_dom[off + sid] = list(range(dist, v_slack * dist + 1))
    return v_dom


def _separation_clauses(pool: FeaturePool, matrix: np.ndarray, sample: SampleSet):
    """Minimal deduplicated goal/non-goal difference sets, or a witness pair
    of states no feature can tell apart."""
    bools = boolean_matrix(pool, matrix)
    goal_sigs: dict = {}
    other_sigs: dict = {}
    for g, sp, sid in sample.iter_states():
        col = bools[:, g].tobytes()
        bucket = goal_sigs if sp.is_goal[sid] else other_sigs
        bucket.setdefault(col, g)
    for sig, g in goal_sigs.items():
        if sig in other_sigs:
            return None, (g, other_sigs[sig])

    masks = set()
    for gsig in goal_sigs:
        a = np.frombuffer(gsig, dtype=np.uint8)
        for osig in other_sigs:
            b = np.frombuffer(osig, dtype=np.uint8)
            diff = np.nonzero(a != b)[0]
            mask = 0
            for f in diff:
                mask |= 1 << int(f)
            masks.add(mask)
    kept: list = []
    for mask in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if any(km & mask == km for km in kept):
            continue
        kept.append(mask)
    clauses = []
    for mask in kept:
        clause = []
        f = 0
        while mask:
            if mask & 1:
                clause.append(f)
            mask >>= 1
            f += 1
        clauses.append(clause)
    return clauses, None


def _diff_features(c1: TransitionClass, c2: TransitionClass) -> list:
    a = np.frombuffer(c1.codes, dtype=np.uint8)
    b = np.frombuffer(c2.codes, dtype=np.uint8)
    return np.nonzero(a != b)[0].tolist()


def build_theory(sample: SampleSet, pool: FeaturePool, matrix: np.ndarray,
                 classes: list, class_of: dict, v_slack: int = 2,
                 pairs: list | None = None) -> Theory:
    wcnf = WcnfProblem()
    tags: list = []
    n_select = len(pool)
    n_good = len(classes)

    def add(tag: str, clause: list):
        wcnf.add_hard(clause)
        tags.append(tag)

    v_dom = _value_domains(sample, v_slack)
    v_var: dict = {}
    next_var = n_select + n_good + 1
    for g in sorted(v_dom):
        for d in v_dom[g]:
            v_var[(g, d)] = next_var
            next_var += 1
    wcnf.nvars = max(wcnf.nvars, next_var - 1)
    theory = Theory(wcnf, tags, n_select, n_good, v_var, v_dom, [], None, {})
    sel, good = theory.select_var, theory.good_var

    # 4. goal separation (first: an infeasible pool is detected here)
    sep_clauses, witness = _separation_clauses(pool, matrix, sample)
    if witness is not None:
        add("goalsep", [])
        theory.infeasible = witness
        theory.stats = _stats(theory, sample)
        return theory
    for feats in sep_clauses:
        add("goalsep", [sel(f) for f in feats])

    # 1. alive states are covered by a good class
    out_classes: dict = {}
    for k, t, gsrc, gdst in sample.iter_alive_transitions():
        out_classes.setdefault(gsrc, []).append(class_of[(k, t)])
    for gsrc in sorted(out_classes):
        seen = sorted(set(out_classes[gsrc]))
        add("cover", [good(c) for c in seen])

    # 2. exactly one value per solvable state
    for g in sorted(v_dom):
        dom = v_dom[g]
        add("value", [v_var[(g, d)] for d in dom])
        for i in range(len(dom)):
            for j in range(i + 1, len(dom)):
                add("value", [-v_var[(g, dom[i])], -v_var[(g, dom[j])]])

    # 3. good transitions descend; 5. dead-end targets are never good
    for c in classes:
        if c.dst_dead:
            add("deadend", [-good(c.index)])
    for k, t, gsrc, gdst in sample.iter_alive_transitions():
        sp = sample.spaces[k]
        if not sp.alive[sp.dst[t]]:
            continue  # dead ends handled above; goal targets satisfy any label
        c = class_of[(k, t)]
        dst_dom = v_dom[gdst]
        for d in v_dom[gsrc]:
            clause = [-good(c), -v_var[(gsrc, d)]]
            clause += [v_var[(gdst, d2)] for d2 in dst_dom if d2 < d]
            add("descend", clause)

    # 6. D2 separation over the requested pairs
    enc_pairs: list = []
    if pairs:
        for c1, c2 in pairs:
            if c1 == c2:
                continue
            a, b = (c1, c2) if c1 < c2 else (c2, c1)
            enc_pairs.append((a, b))
        enc_pairs = sorted(set(enc_pairs))
        for a, b in enc_pairs:
            diff = [sel(f) for f in _diff_features(classes[a], classes[b])]
            add("separate", [-good(a), good(b)] + diff)
            add("separate", [-good(b), good(a)] + diff)

    for f in range(n_select):
        wcnf.add_soft(int(pool.weights[f]), [-sel(f)])

    theory.pairs = enc_pairs
    theory.stats = _stats(theory, sample)
    return theory


def _stats(theory: Theory, sample: SampleSet) -> dict:
    n_classes = theory.n_good
    built_sep = sum(1 for t in theory.tags if t == "separate")
    full_sep = n_classes * (n_classes - 1)  # both directions of each pair
    base = len(theory.tags) - built_sep
    return {
        "n_vars": theory.wcnf.nvars,
        "n_hard": len(theory.tags),
        "n_soft": len(theory.wcnf.soft),
        "n_clauses_full": base + full_sep + len(theory.wcnf.soft),
        "n_pairs": len(theory.pairs),
        "n_states": sample.n_states,
        "n_alive_transitions": sample.n_alive_transitions(),
    }


def initial_pairs(classes: list, class_of: dict, sample: SampleSet,
                  extra_per_class: int = 2, seed: int = 0) -> list:
    """Starting tau: all pairs when the quadratic count is small; otherwise
    pairs of classes leaving a common state plus seeded random extras.
    Classes with identical feature codes (possible when merging is disabled)
    are chained together so their label-equality constraints are present from
    the first round instead of trickling in through validation."""
    n = len(classes)
    if n * (n - 1) // 2 <= PAIR_FULL_LIMIT:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]

    pairs = set()
    by_codes: dict = {}
    for c in classes:
        by_codes.setdefault(c.codes, []).append(c.index)
    for group in by_codes.values():
        pairs.update((group[0], ci) for ci in group[1:])
    reps = sorted(group[0] for group in by_codes.values())
    if len(reps) * (len(reps) - 1) // 2 <= PAIR_FULL_LIMIT:
        # Distinguishability clauses between any two chained classes are
        # implied by the chain equalities plus the representative pair, so
        # covering every representative pair makes the starting set already
        # closed over all class pairs.
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                pairs.add((reps[i], reps[j]))
        return sorted(pairs)
    by_src: dict = {}
    for k, t, gsrc, gdst in sample.iter_alive_transitions():
        by_src.setdefault(gsrc, set()).add(class_of[(k, t)])
    for gsrc in sorted(by_src):
        cs = sorted(by_src[gsrc])
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                pairs.add((cs[i], cs[j]))
    rng = random.Random(seed)
    want = len(pairs) + extra_per_class * n
    attempts = 0
    while len(pairs) < want and attempts < 20 * want:
        a = rng.randrange(n)
        b = rng.randrange(n)
        attempts += 1
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def decode(theory: Theory, model: list):
    """(selected feature ids, good class ids, value labels per global state)."""
    phi = [f for f in range(theory.n_select) if model[theory.select_var(f)]]
    goods = [c for c in range(theory.n_good) if model[theory.good_var(c)]]
    values = {}
    for (g, d), var in theory.v_var.items():
        if model[var]:
            if g in values:
                raise InternalInvariantError(f"state {g} carries two value labels")
            values[g] = d
    return phi, goods, values


def validate_solution(classes: list, phi: list, goods: list) -> list:
    """All D2-separation violations of a candidate solution.

    Groups classes by their change profile restricted to the selected
    features (dead-end flag included); any group mixing good and bad classes
    yields violated pairs to be added to tau.
    """
    good_set = set(goods)
    groups: dict = {}
    for c in classes:
        arr = np.frombuffer(c.codes, dtype=np.uint8)
        key = arr[phi].tobytes() if phi else b""
        groups.setdefault(key, []).append(c.index)
    violations: list = []
    for members in groups.values():
        ins = [c for c in members if c in good_set]
        outs = [c for c in members if c not in good_set]
        if not ins or not outs:
            continue
        first_in, first_out = ins[0], outs[0]
        for c in outs:
            violations.append((min(first_in, c), max(first_in, c)))
        for c in ins:
            if c != first_in:
                violations.append((min(c, first_out), max(c, first_out)))
    return sorted(set(violations))
