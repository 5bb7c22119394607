"""Feature pools over description logic concepts.

A feature maps a state to a non-negative integer.  Three kinds exist:

* nullary-predicate features (weight 1, boolean),
* cardinality features |C| for a surviving concept C (boolean when the
  denotation has at most one element in every training state, numeric
  otherwise; weight = complexity of C),
* distance features Dist(C1,R,C,C2): minimum number of R-steps through
  targets restricted to C, from the (singleton) denotation of C1 to the
  denotation of C2; weight = sum of the component complexities; value
  m + 1 when unreachable, with m the number of objects.

Concepts and roles are enumerated by increasing complexity, candidates at
equal complexity in lexicographic order of their printable form, and an
expression is pruned when its denotation over *all* training states equals
that of an earlier one.  Feature values are deduplicated the same way.
Features whose weight exceeds the bound are dropped.

Feature values have two evaluators.  `Batch` evaluates over many states at
once with numpy: atomic denotations come from the states' atom ids, roles
and concepts are int64 bitset columns, and distances come from one
breadth-first search run in all states together.  Pool generation and
exhaustive verification (`feature_values`, in blocks of `BLOCK_STATES`
states) use it; it requires at most 62 objects per instance.  The
per-state `evaluate` methods serve greedy execution and larger instances,
and are the independent reference the batch path is tested against
(`evaluate_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from genpol import concepts as co
from genpol.errors import ArityError, GenpolError, LimitExceededError
from genpol.space import SampleSet


# ---------------------------------------------------------------------------
# Feature kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullaryFeature:
    pred: str
    weight: int = 1
    is_boolean: bool = True

    def render(self) -> str:
        return f"Atom({self.pred})"

    def evaluate(self, sctx: co.StateContext) -> int:
        self._check(sctx.ictx.gp.domain)
        return int(self.pred in sctx.nullary)

    def values(self, batch: Batch) -> np.ndarray:
        self._check(batch.domain)
        got = batch.flags.get(self.pred)
        return np.zeros(batch.n_states, dtype=np.int64) if got is None else got

    def _check(self, domain):
        if self.pred not in domain.predicates:
            raise GenpolError(f"unknown predicate '{self.pred}'")


@dataclass(frozen=True)
class CardinalityFeature:
    concept: object
    weight: int
    is_boolean: bool

    def render(self) -> str:
        return co.render(self.concept)

    def evaluate(self, sctx: co.StateContext) -> int:
        v = co.popcount(co.eval_concept(self.concept, sctx))
        if self.is_boolean:
            return int(v == 1)
        return v

    def values(self, batch: Batch) -> np.ndarray:
        counts = batch.popcounts(batch.concept(self.concept))
        return (counts == 1).astype(np.int64) if self.is_boolean else counts


@dataclass(frozen=True)
class DistanceFeature:
    source: object
    role: object
    restrict: object
    target: object
    weight: int
    is_boolean: bool = False

    def render(self) -> str:
        return (f"Dist({co.render(self.source)},{co.render(self.role)},"
                f"{co.render(self.restrict)},{co.render(self.target)})")

    def evaluate(self, sctx: co.StateContext) -> int:
        n = sctx.ictx.n
        return co.bfs_distance(
            co.eval_concept(self.source, sctx),
            co.eval_role(self.role, sctx),
            co.eval_concept(self.restrict, sctx),
            co.eval_concept(self.target, sctx),
            n)

    def values(self, batch: Batch) -> np.ndarray:
        dmap = batch.distance_map(batch.concept(self.source),
                                  batch.role(self.role),
                                  batch.concept(self.restrict))
        return batch.min_distance(dmap, batch.concept(self.target))


def parse_feature(weight: int, kind: str, text: str):
    """Rebuild a feature from its pool/policy file fields."""
    text = text.strip()
    boolean = kind == "bool"
    if text.startswith("Atom(") and text.endswith(")"):
        return NullaryFeature(text[5:-1].strip(), weight, True)
    if text.startswith("Dist(") and text.endswith(")"):
        args = co._split_args(text[5:-1])
        if len(args) != 4:
            raise co.ExpressionParseError(f"Dist takes 4 arguments: '{text}'")
        return DistanceFeature(co.parse_expression(args[0]), co.parse_role(args[1]),
                               co.parse_expression(args[2]), co.parse_expression(args[3]),
                               weight, False)
    return CardinalityFeature(co.parse_expression(text), weight, boolean)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    concepts: list      # atomic concept expressions
    roles: list         # atomic role expressions (primitive + goal versions)
    nullary: list       # nullary predicate names
    goal_binary: list   # binary predicates with a goal version (for Equal)


def primitive_vocabulary(sample: SampleSet, include_types: bool = True,
                         ignore_high_arity: bool = False) -> Vocabulary:
    dom = sample.spaces[0].gp.domain
    high = dom.high_arity_predicates()
    if high and not ignore_high_arity:
        raise ArityError(
            f"predicates of arity > 2 are not supported by feature generation: "
            f"{', '.join(high)} (pass ignore_high_arity to skip them)")

    goal_preds = set()
    for sp in sample.spaces:
        goal_preds.update(a[0] for a in sp.gp.instance.goal)

    atoms: list = [co.Bot(), co.Top()]
    roles: list = []
    nullary: list = []
    goal_binary: list = []
    for pred in sorted(dom.predicates.values(), key=lambda p: p.name):
        if pred.arity == 0:
            nullary.append(pred.name)
        elif pred.arity == 1:
            atoms.append(co.PrimitiveConcept(pred.name))
            if pred.name in goal_preds:
                atoms.append(co.GoalConcept(pred.name))
        elif pred.arity == 2:
            roles.append(co.PrimitiveRole(pred.name))
            if pred.name in goal_preds:
                roles.append(co.GoalRole(pred.name))
                goal_binary.append(pred.name)
    if include_types:
        for t in sorted(dom.types):
            atoms.append(co.TypeConcept(t))

    for name, _ in dom.constants:
        for sp in sample.spaces:
            if name not in sp.gp.object_types:
                raise GenpolError(
                    f"nominal '{name}' does not exist in instance "
                    f"'{sp.gp.instance.name}'")
        atoms.append(co.Nominal(name))
    n_params = {len(sp.gp.instance.goal_params) for sp in sample.spaces}
    if len(n_params) > 1:
        raise GenpolError("training instances declare different numbers of "
                          "goal parameters")
    for i in range(next(iter(n_params))):
        atoms.append(co.Nominal(f"goal{i}"))

    return Vocabulary(atoms, roles, nullary, goal_binary)


# ---------------------------------------------------------------------------
# Batch evaluation over many states (numpy columns)
# ---------------------------------------------------------------------------

MAX_BATCH_OBJECTS = 62  # one bit per object in an int64 mask
BLOCK_STATES = 8192     # states per batch in `feature_values`


class Batch:
    """Concept, role and feature values over many states at once.

    `parts` is a sequence of (InstanceContext, states) pairs of one domain;
    the batch's states are their concatenation, and each instance has at
    most `MAX_BATCH_OBJECTS` objects.  A concept is a column of int64 masks,
    one per state; a role is an [n_states, max_n] array of per-object
    successor masks, zero past an instance's objects.  Atomic denotations
    are built from the states' atom ids; concept and role values are
    memoized in `memo`.  Unknown names raise the same errors as the
    per-state evaluators.
    """

    def __init__(self, parts):
        self.ictxs = [ictx for ictx, _ in parts]
        self.sizes = [len(states) for _, states in parts]
        self.n_states = sum(self.sizes)
        self.domain = self.ictxs[0].gp.domain
        self.n_objs = np.repeat([c.n for c in self.ictxs], self.sizes)
        self.universe = np.repeat(
            np.array([c.universe for c in self.ictxs], dtype=np.int64), self.sizes)
        # At least one object column, so reductions over objects are defined.
        self.max_n = max(1, max(c.n for c in self.ictxs))
        self._shifts = np.arange(self.max_n, dtype=np.int64)
        self.memo: dict = {}

        # One table column per unary predicate, per (binary predicate,
        # object) and per other predicate (a flag: some atom of it holds).
        # Within a unary or binary column the atoms of a state set distinct
        # bits, so adding them up is or-ing them; a flag column counts atoms.
        ictx0 = self.ictxs[0]
        flags = sorted(p.name for p in self.domain.predicates.values()
                       if p.arity not in (1, 2))
        col = {p: k for k, p in enumerate(ictx0.unary_preds)}
        width = len(col)
        for p in ictx0.binary_preds:
            col[p] = width
            width += self.max_n
        for p in flags:
            col[p] = width
            width += 1
        cells, bits, row0 = [], [], 0
        for ictx, states in parts:
            slot = np.empty(len(ictx._atom_kind), dtype=np.int64)
            bit = np.ones(len(ictx._atom_kind), dtype=np.int64)
            for a, kind in enumerate(ictx._atom_kind):
                if kind[0] == 1:
                    slot[a], bit[a] = col[kind[1]], 1 << kind[2]
                elif kind[0] == 2:
                    slot[a], bit[a] = col[kind[1]] + kind[2], 1 << kind[3]
                else:
                    slot[a] = col[kind[1]]
            lens = np.fromiter(map(len, states), dtype=np.int64, count=len(states))
            atoms = np.fromiter(chain.from_iterable(states), dtype=np.int64,
                                count=int(lens.sum()))
            rows = np.repeat(np.arange(row0, row0 + len(states)), lens)
            cells.append(rows * width + slot[atoms])
            bits.append(bit[atoms])
            row0 += len(states)
        table = np.zeros(self.n_states * width, dtype=np.int64)
        np.add.at(table, np.concatenate(cells), np.concatenate(bits))
        table = table.reshape(self.n_states, width)
        self.unary = {p: table[:, col[p]] for p in ictx0.unary_preds}
        self.rows = {p: table[:, col[p]:col[p] + self.max_n]
                     for p in ictx0.binary_preds}
        self.flags = {p: (table[:, col[p]] > 0).astype(np.int64) for p in flags}

    # -- denotations -------------------------------------------------------

    def concept(self, expr) -> np.ndarray:
        got = self.memo.get(expr)
        if got is None:
            got = self.memo[expr] = self.compose(expr)
        return got

    def compose(self, expr) -> np.ndarray:
        """Column of a concept from its children's memoized columns; the
        concept itself is not memoized."""
        if isinstance(expr, co.Not):
            return self.universe & ~self.concept(expr.child)
        if isinstance(expr, co.And):
            return self.concept(expr.left) & self.concept(expr.right)
        if isinstance(expr, co.Exists):
            child = self.concept(expr.child)
            return self.pack((self.role(expr.role) & child[:, None]) != 0)
        if isinstance(expr, co.Forall):
            child = self.concept(expr.child)
            holds = (self.role(expr.role) & ~child[:, None]) == 0
            return self.pack(holds) & self.universe
        if isinstance(expr, co.RoleEqual):
            left = self.role(expr.left)
            return self.pack(left == self.role(expr.right)) & self.universe
        masks = [c.atomic_concept(expr, self.unary) for c in self.ictxs]
        if isinstance(masks[0], np.ndarray):
            return masks[0]
        return np.repeat(np.array(masks, dtype=np.int64), self.sizes)

    def role(self, expr) -> np.ndarray:
        got = self.memo.get(expr)
        if got is not None:
            return got
        if isinstance(expr, co.InverseRole):
            base = self.role(expr.base)
            got = np.empty_like(base)
            for j in range(self.max_n):
                got[:, j] = self.pack((base >> j) & 1)
        elif isinstance(expr, co.ClosureRole):
            # Bitset Floyd-Warshall over intermediates, as `co._closure`.
            got = self.role(expr.base).copy()
            for k in range(self.max_n):
                via = ((got >> k) & 1).astype(bool)
                got |= np.where(via, got[:, k:k + 1], 0)
        else:
            rows = [c.atomic_role(expr, self.rows) for c in self.ictxs]
            if isinstance(rows[0], np.ndarray):
                got = rows[0]
            else:
                fixed = np.zeros((len(rows), self.max_n), dtype=np.int64)
                for k, r in enumerate(rows):
                    fixed[k, :len(r)] = r
                got = np.repeat(fixed, self.sizes, axis=0)
        self.memo[expr] = got
        return got

    def pack(self, bits: np.ndarray) -> np.ndarray:
        """[S, max_n] of 0/1 (or bool) -> int64 masks."""
        return (bits.astype(np.int64) << self._shifts).sum(axis=1)

    def members(self, col: np.ndarray) -> np.ndarray:
        """int64 masks -> bool [S, max_n]."""
        return ((col[:, None] >> self._shifts) & 1).astype(bool)

    def popcounts(self, col: np.ndarray) -> np.ndarray:
        return self.members(col).sum(axis=1)

    # -- distances ---------------------------------------------------------

    def distance_map(self, sources, rows, restrict) -> np.ndarray:
        """Breadth-first search in every state at once: [S, max_n] role
        steps from `sources` to each object, the steps entering `restrict`
        only; n + 1 where unreachable.  The minimum over a target set is
        `co.bfs_distance` to that set."""
        unreached = self.n_objs + 1
        dmap = np.repeat(unreached[:, None], self.max_n, axis=1)
        seen = cur = sources
        dist = 0
        while cur.any():
            at = self.members(cur)
            dmap[at] = dist
            step = np.bitwise_or.reduce(np.where(at, rows, 0), axis=1)
            cur = step & restrict & ~seen
            seen = seen | cur
            dist += 1
        return dmap

    def min_distance(self, dmap: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per state, the least `dmap` entry over `targets`, n + 1 if empty."""
        return np.where(self.members(targets), dmap,
                        (self.n_objs + 1)[:, None]).min(axis=1)


def feature_values(feats: list, ictx: co.InstanceContext, states) -> np.ndarray:
    """int64 [len(states), len(feats)]: each feature on each state of one
    instance with at most `MAX_BATCH_OBJECTS` objects, evaluated in batches
    of `BLOCK_STATES` states to bound memory."""
    out = np.empty((len(states), len(feats)), dtype=np.int64)
    for lo in range(0, len(states), BLOCK_STATES):
        batch = Batch([(ictx, states[lo:lo + BLOCK_STATES])])
        for j, f in enumerate(feats):
            out[lo:lo + BLOCK_STATES, j] = f.values(batch)
    return out


# ---------------------------------------------------------------------------
# Pool generation
# ---------------------------------------------------------------------------

@dataclass
class FeaturePool:
    features: list
    weights: np.ndarray
    booleans: np.ndarray  # bool array

    def __len__(self):
        return len(self.features)

    def dump(self) -> str:
        lines = [f"{i} {f.weight} {'bool' if f.is_boolean else 'num'} {f.render()}"
                 for i, f in enumerate(self.features)]
        return "\n".join(lines) + ("\n" if lines else "")


def load_pool(text: str) -> FeaturePool:
    feats = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, weight, kind, expr = line.split(maxsplit=3)
        if int(idx) != len(feats):
            raise GenpolError(f"pool ids must be dense, got {idx}")
        feats.append(parse_feature(int(weight), kind, expr))
    return FeaturePool(feats, np.array([f.weight for f in feats], dtype=np.int64),
                       np.array([f.is_boolean for f in feats], dtype=bool))


def _generate_roles(vocab: Vocabulary, batch: Batch):
    """Atomic roles plus inverse/closure/closed-inverse, denotation-pruned."""
    kept, seen = [], {}
    levels = {
        1: list(vocab.roles),
        2: [ctor(r) for r in vocab.roles for ctor in (co.InverseRole, co.ClosureRole)],
        3: [co.ClosureRole(co.InverseRole(r)) for r in vocab.roles],
    }
    for level in (1, 2, 3):
        for expr in sorted(levels[level], key=co.render):
            col = batch.role(expr)
            sig = col.tobytes()
            if sig in seen:
                continue
            seen[sig] = expr
            kept.append((expr, level, col))
    return kept


def generate_pool(sample: SampleSet, max_weight: int = 8, max_pool: int = 200_000,
                  include_types: bool = True, ignore_high_arity: bool = False):
    """Returns (FeaturePool, value matrix over the sample's global states)."""
    vocab = primitive_vocabulary(sample, include_types, ignore_high_arity)
    parts = []
    for sp in sample.spaces:
        ictx = co.InstanceContext(sp.gp)
        if ictx.n > MAX_BATCH_OBJECTS:
            raise LimitExceededError(
                f"training instance '{sp.gp.instance.name}' has {ictx.n} "
                f"objects; feature generation supports at most {MAX_BATCH_OBJECTS}")
        parts.append((ictx, sp.states))
    batch = Batch(parts)

    roles = _generate_roles(vocab, batch)

    # Concepts, level by level.  kept: list of (expr, weight, column).  A
    # candidate's children are kept concepts and roles, so their columns are
    # in the batch memo; a pruned candidate's column is not memoized.
    kept: list = []
    by_weight: dict = {}
    seen: dict = {}

    def consider(expr, weight):
        col = batch.compose(expr)
        sig = col.tobytes()
        if sig in seen:
            return
        seen[sig] = expr
        kept.append((expr, weight, col))
        by_weight.setdefault(weight, []).append((expr, col))
        batch.memo[expr] = col

    for level in range(1, max_weight + 1):
        cands: list = []
        if level == 1:
            cands = list(vocab.concepts)
        else:
            for expr, _ in by_weight.get(level - 1, []):
                cands.append(co.Not(expr))
            for wa in range(1, level - 1):
                wb = level - 1 - wa
                if wa > wb:
                    continue
                for a, _ in by_weight.get(wa, []):
                    for b, _ in by_weight.get(wb, []):
                        ra, rb = co.render(a), co.render(b)
                        if (wa, ra) < (wb, rb):
                            cands.append(co.And(a, b))
            for rexpr, rw, _ in roles:
                cw = level - 1 - rw
                for c, _ in by_weight.get(cw, []):
                    cands.append(co.Exists(rexpr, c))
                    cands.append(co.Forall(rexpr, c))
            if level == 3:
                for pred in vocab.goal_binary:
                    cands.append(co.RoleEqual(co.PrimitiveRole(pred), co.GoalRole(pred)))
        for expr in sorted(cands, key=co.render):
            consider(expr, level)

    # Features.
    feats: list = []  # (feature, value column)
    for pred in sorted(vocab.nullary):
        if 1 <= max_weight:
            feats.append((NullaryFeature(pred), batch.flags[pred]))

    singletons: list = []
    for expr, weight, col in kept:
        if isinstance(expr, (co.Top, co.Bot)):
            continue  # fixed denotation; |Top| and |Bot| carry no signal
        counts = batch.popcounts(col)
        boolean = bool((counts <= 1).all())
        if weight <= max_weight:
            values = (counts == 1).astype(np.int64) if boolean else counts
            feats.append((CardinalityFeature(expr, weight, boolean), values))
        if (counts == 1).all():
            singletons.append((expr, weight, col))

    # Distance features, one breadth-first search in all states at once per
    # (source, role, restrict); each target concept then reads its minimum
    # off the per-object distance map.
    for c1, w1, col1 in singletons:
        for rexpr, rw, rcol in roles:
            base = w1 + rw
            if base + 2 > max_weight:
                continue
            for wr in range(1, max_weight - base):
                for cr, colr in by_weight.get(wr, []):
                    dmap = batch.distance_map(col1, rcol, colr)
                    for w2 in range(1, max_weight - base - wr + 1):
                        for c2, col2 in by_weight.get(w2, []):
                            feats.append((DistanceFeature(c1, rexpr, cr, c2,
                                                          base + wr + w2),
                                          batch.min_distance(dmap, col2)))

    # Canonical order, then value-vector deduplication.  Features that are
    # constant over every training state can never separate, descend, or
    # distinguish anything, so they are dropped as well.
    feats.sort(key=lambda fc: (fc[0].weight, fc[0].render()))
    final: list = []
    cols_out: list = []
    value_seen: set = set()
    for f, col in feats:
        if col.size and np.all(col == col[0]):
            continue
        sig = col.tobytes()
        if sig in value_seen:
            continue
        value_seen.add(sig)
        final.append(f)
        cols_out.append(col)
        if len(final) > max_pool:
            raise LimitExceededError(f"feature pool exceeds cap of {max_pool}")

    pool = FeaturePool(final,
                       np.array([f.weight for f in final], dtype=np.int64),
                       np.array([f.is_boolean for f in final], dtype=bool))
    matrix = np.vstack(cols_out) if cols_out else np.zeros((0, batch.n_states), dtype=np.int64)
    return pool, matrix


def evaluate_matrix(pool: FeaturePool, sample: SampleSet) -> np.ndarray:
    """Fresh per-state evaluation of every pool feature; int64 [n_features, n_states].

    Independent of the columns cached during generation; the two paths must
    agree and are cross-checked in tests.
    """
    values = np.zeros((len(pool), sample.n_states), dtype=np.int64)
    g = 0
    for sp in sample.spaces:
        ictx = co.InstanceContext(sp.gp)
        for s in sp.states:
            sctx = co.state_context(ictx, s)
            for i, f in enumerate(pool.features):
                values[i, g] = f.evaluate(sctx)
            g += 1
    return values


def boolean_matrix(pool: FeaturePool, values: np.ndarray) -> np.ndarray:
    """Boolean counterparts: the value itself for booleans, value > 0 for numerics."""
    bools = values > 0
    b = pool.booleans[:, None]
    return np.where(b, values.astype(bool), bools).astype(np.uint8)
