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

Each kind states its printable form once, in `concepts.FORMS` (sort
`FEATURE`); its weight and kind are the other fields of its pool or policy
line (`render_feature_line`, `parse_feature_line`).

Concepts and roles are enumerated by increasing complexity, candidates at
equal complexity in lexicographic order of their printable form, and an
expression is pruned when its denotation over *all* training states equals
that of an earlier one.  Feature values are deduplicated the same way.
Features whose weight exceeds the bound are dropped.

Feature values come from `concepts.StateContext`, which evaluates many
states of one instance at once.  Pool generation makes one per training
instance and joins their columns along the states, so a denotation's
signature is the bytes of its per-instance columns; verification evaluates
the states at hand (`Policy.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from genpol import concepts as co
from genpol.errors import ArityError, GenpolError, LimitExceededError
from genpol.space import SampleSet

# Bound on the elements of one search's maps and of one block of distance
# minima in `generate_pool`, which keeps each of its temporaries to 1 MB.
_MIN_BLOCK = 1 << 17


# ---------------------------------------------------------------------------
# Feature kinds
# ---------------------------------------------------------------------------

class _Feature(co.Expression):
    """A feature; its form prints the fields before `weight` and `is_boolean`."""

    def render(self) -> str:
        return self.text


@co.syntax(co.FEATURE, "Atom({})", co.NAME)
class NullaryFeature(_Feature):
    pred: str
    weight: int = 1
    is_boolean: bool = True

    def values(self, ctx: co.StateContext) -> np.ndarray:
        self._check(ctx.domain)
        return ctx.flags[self.pred]

    def _check(self, domain):
        """Rejects an unknown predicate, and a unary or binary one: a concept
        or a role, which has no flag."""
        pred = domain.predicates.get(self.pred)
        if pred is None:
            raise GenpolError(f"unknown predicate '{self.pred}'")
        if pred.arity in (1, 2):
            raise GenpolError(f"Atom({self.pred}) needs a predicate of arity 0 or above 2, "
                              f"and '{self.pred}' has arity {pred.arity}")


@co.syntax(co.FEATURE, "{}", co.CONCEPT)
class CardinalityFeature(_Feature):
    concept: object
    weight: int = 1
    is_boolean: bool = False

    def values(self, ctx: co.StateContext) -> np.ndarray:
        counts = ctx.popcounts(ctx.concept(self.concept))
        return (counts == 1).astype(np.int64) if self.is_boolean else counts


@co.syntax(co.FEATURE, "Dist({},{},{},{})", co.CONCEPT, co.ROLE, co.CONCEPT, co.CONCEPT)
class DistanceFeature(_Feature):
    source: object
    role: object
    restrict: object
    target: object
    weight: int = 1
    is_boolean: bool = False

    def values(self, ctx: co.StateContext) -> np.ndarray:
        dmap = ctx.distances(self.source, self.role, [self.restrict])[0]
        return ctx.min_distance(dmap, ctx.concept(self.target))


# Deepest nesting of a feature text, one level per parenthesis and per role
# suffix (_plus, _inv).  Parsing, hashing and evaluating recurse per level,
# so a far deeper text ends in a bare RecursionError; generated features
# nest a few levels.
MAX_NESTING = 100


def parse_feature(weight: int, kind: str, text: str):
    """Rebuild a feature from its pool/policy file fields.  The kind is
    `bool` or `num`; an Atom(...) is always bool and a Dist(...) always num,
    and any other kind is an ExpressionParseError."""
    if kind not in ("bool", "num"):
        raise co.ExpressionParseError(f"unknown feature kind '{kind}' (bool or num)")
    text = text.strip()
    depth = (max(accumulate((c == "(") - (c == ")") for c in text), default=0)
             + text.count("_plus") + text.count("_inv"))
    if depth > MAX_NESTING:
        raise co.ExpressionParseError(f"nesting depth {depth} exceeds {MAX_NESTING}")
    feature = co.parse(text, co.FEATURE)
    boolean = kind == "bool"
    # An atom or a distance parses with the kind it always has.
    if not isinstance(feature, CardinalityFeature) and feature.is_boolean != boolean:
        fixed = "bool" if feature.is_boolean else "num"
        raise co.ExpressionParseError(f"'{text}' is a {fixed} feature, not {kind}")
    return replace(feature, weight=weight, is_boolean=boolean)


def parse_feature_line(line: str, index: int):
    """The feature of one `id weight kind expression` line, the id of which
    must be `index` (ids are dense from 0); ExpressionParseError otherwise."""
    fields = line.split(maxsplit=3)
    if len(fields) != 4:
        raise co.ExpressionParseError(
            f"expected 'id weight kind expression': '{line}'")
    try:
        idx, weight = int(fields[0]), int(fields[1])
    except ValueError:
        raise co.ExpressionParseError(
            f"id and weight must be integers: '{line}'") from None
    if idx != index:
        raise co.ExpressionParseError(
            f"feature ids must be dense: expected {index}, got {idx}")
    return parse_feature(weight, fields[2], fields[3])


def render_feature_line(index: int, feature) -> str:
    """The `id weight kind expression` line parse_feature_line reads back."""
    kind = "bool" if feature.is_boolean else "num"
    return f"{index} {feature.weight} {kind} {feature.render()}"


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    concepts: list      # atomic concept expressions
    roles: list         # atomic role expressions (primitive + goal versions)
    nullary: list       # nullary predicate names
    goal_binary: list   # binary predicates with a goal version (for Equal)


def primitive_vocabulary(sample: SampleSet, ignore_high_arity: bool = False) -> Vocabulary:
    dom = sample.spaces[0].gp.domain
    reserved = sorted(p.name for p in dom.predicates.values()
                      if p.arity in (1, 2) and p.name.endswith(co.RESERVED_SUFFIXES))
    if reserved:
        raise GenpolError(f"predicate names ending in {'/'.join(co.RESERVED_SUFFIXES)} "
                          f"clash with the feature syntax: {', '.join(reserved)}")
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
# Pool generation
# ---------------------------------------------------------------------------

@dataclass
class FeaturePool:
    features: list
    weights: np.ndarray

    def __len__(self):
        return len(self.features)

    def dump(self) -> str:
        lines = [render_feature_line(i, f) for i, f in enumerate(self.features)]
        return "\n".join(lines) + ("\n" if lines else "")


def _generate_roles(vocab: Vocabulary, ctxs: list):
    """Atomic roles plus inverse/closure/closed-inverse, denotation-pruned."""
    kept, seen = [], {}
    levels = {
        1: list(vocab.roles),
        2: [ctor(r) for r in vocab.roles for ctor in (co.InverseRole, co.ClosureRole)],
        3: [co.ClosureRole(co.InverseRole(r)) for r in vocab.roles],
    }
    for level in (1, 2, 3):
        for expr in sorted(levels[level], key=co.render):
            sig = b"".join(ctx.role(expr).tobytes() for ctx in ctxs)
            if sig in seen:
                continue
            seen[sig] = expr
            kept.append((expr, level))
    return kept


def check_max_pool(max_pool: int):
    """Rejects a pool cap below 1."""
    if max_pool < 1:
        raise GenpolError(f"max_pool must be at least 1, got {max_pool}")


def generate_pool(sample: SampleSet, max_weight: int = 8, max_pool: int = 200_000,
                  ignore_high_arity: bool = False):
    """Returns (FeaturePool, value matrix over the sample's global states)."""
    check_max_pool(max_pool)
    vocab = primitive_vocabulary(sample, ignore_high_arity)
    ctxs = [co.state_context(co.InstanceContext(sp.gp), sp.states) for sp in sample.spaces]
    roles = _generate_roles(vocab, ctxs)

    # Concepts, level by level.  kept: list of (expr, weight, columns), a
    # column per instance, and a signature is their bytes joined.  A
    # candidate's children are kept concepts and roles, so their columns are
    # in the contexts' memos; a pruned candidate's columns are not memoized.
    kept: list = []
    by_weight: dict = {}
    seen: dict = {}

    def consider(expr, weight):
        cols = [ctx.compose(expr) for ctx in ctxs]
        sig = b"".join(col.tobytes() for col in cols)
        if sig in seen:
            return
        seen[sig] = expr
        kept.append((expr, weight, cols))
        by_weight.setdefault(weight, []).append(expr)
        for ctx, col in zip(ctxs, cols):
            ctx.memo[expr] = col

    for level in range(1, max_weight + 1):
        cands: list = []
        if level == 1:
            cands = list(vocab.concepts)
        else:
            for expr in by_weight.get(level - 1, []):
                cands.append(co.Not(expr))
            for wa in range(1, level - 1):
                wb = level - 1 - wa
                if wa > wb:
                    continue
                bs = [(co.render(b), b) for b in by_weight.get(wb, [])]
                for a in by_weight.get(wa, []):
                    ra = co.render(a)
                    for rb, b in bs:
                        if (wa, ra) < (wb, rb):
                            cands.append(co.And(a, b))
            for rexpr, rw in roles:
                cw = level - 1 - rw
                for c in by_weight.get(cw, []):
                    cands.append(co.Exists(rexpr, c))
                    cands.append(co.Forall(rexpr, c))
            if level == 3:
                for pred in vocab.goal_binary:
                    cands.append(co.RoleEqual(co.PrimitiveRole(pred), co.GoalRole(pred)))
        for expr in sorted(cands, key=co.render):
            consider(expr, level)

    # Features.  Those constant over every training state can never
    # separate, descend, or distinguish anything, so they are dropped here.
    feats: list = []  # (feature, value column)

    def add(values, feature):
        """Keep `feature(i)` with a copy of its value column values[i] for
        each row of `values` [features, states] that is not constant (a
        view would keep all of `values` alive)."""
        for i in np.flatnonzero((values != values[:, :1]).any(axis=1)).tolist():
            feats.append((feature(i), values[i].copy()))

    for pred in sorted(vocab.nullary):
        if 1 <= max_weight:
            add(np.concatenate([ctx.flags[pred] for ctx in ctxs])[None],
                lambda _: NullaryFeature(pred))

    singletons: list = []
    for expr, weight, cols in kept:
        if isinstance(expr, (co.Top, co.Bot)):
            continue  # fixed denotation; |Top| and |Bot| carry no signal
        counts = np.concatenate([ctx.popcounts(col) for ctx, col in zip(ctxs, cols)])
        boolean = bool((counts <= 1).all())
        values = (counts == 1).astype(np.int64) if boolean else counts
        add(values[None], lambda _: CardinalityFeature(expr, weight, boolean))
        if (counts == 1).all():
            singletons.append((expr, weight))

    # Distance features: one search per (source, role, restrict weight) over
    # that weight's restricts, `span` maps at a time.  A map's targets, the
    # kept concepts up to some weight, are a prefix of `kept`; the minima over
    # them take blocks of at most `_MIN_BLOCK` [objects, maps, targets, states],
    # with the states of all instances and the objects of the largest.
    targets = list(zip(*(cols for _, _, cols in kept)))  # per instance, kept columns
    upto = np.searchsorted([w for _, w, _ in kept], np.arange(max_weight + 1),
                           side="right")
    span = max(1, _MIN_BLOCK // (sample.n_states * max(ctx.n for ctx in ctxs)))
    for c1, w1 in singletons:
        for rexpr, rw in roles:
            base = w1 + rw
            for wr in range(1, max_weight - base):
                k = upto[max_weight - base - wr]
                crs = by_weight.get(wr, [])
                for g in range(0, len(crs), span):
                    maps = [ctx.distances(c1, rexpr, crs[g:g + span]) for ctx in ctxs]
                    block = max(1, span // len(maps[0]))
                    for lo in range(0, k, block):
                        t = min(k - lo, block)
                        values = np.concatenate([ctx.min_distance(m, np.stack(cols[lo:lo + t]))
                                                 for ctx, m, cols in zip(ctxs, maps, targets)],
                                                axis=-1)
                        add(values.reshape(-1, sample.n_states), lambda i: DistanceFeature(
                            c1, rexpr, crs[g + i // t], kept[lo + i % t][0],
                            base + wr + kept[lo + i % t][1]))

    # Canonical order, then value-vector deduplication.
    feats.sort(key=lambda fc: (fc[0].weight, fc[0].text))
    final: list = []
    cols_out: list = []
    value_seen: set = set()
    for f, col in feats:
        sig = col.tobytes()
        if sig in value_seen:
            continue
        value_seen.add(sig)
        final.append(f)
        cols_out.append(col)
        if len(final) > max_pool:
            raise LimitExceededError(f"feature pool exceeds cap of {max_pool}")

    pool = FeaturePool(final, np.array([f.weight for f in final], dtype=np.int64))
    matrix = np.vstack(cols_out) if cols_out else np.zeros((0, sample.n_states), dtype=np.int64)
    return pool, matrix


def boolean_matrix(values: np.ndarray) -> np.ndarray:
    """Boolean counterparts: value > 0, as every feature value is
    non-negative and a boolean one is 0 or 1."""
    return (values > 0).astype(np.uint8)
