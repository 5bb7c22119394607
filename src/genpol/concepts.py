"""Description logic concepts and roles over planning states.

Concepts denote sets of objects, roles denote binary relations.  Both are
evaluated over many states at once, possibly of several instances of one
domain (`state_context`): a set of objects is a row of uint64 words, one
bit per object of the instance's sorted object list, so a concept is an
array [states, words] and a role one of per-object successor sets
[states, objects, words].  Distances are breadth-first searches run in all
states together, or, over a state-independent role and restriction (built
from static predicates, types, nominals, goal versions, Top and Bot only),
reads of an all-pairs table built once per instance.  States come as packed
rows over the dynamic atoms (see `pddl.GroundProblem`), and each row's bits
are moved into a table of the dynamic predicates, a run of bits at a time.
What no state can change (static predicates, types, nominals, goal versions,
Top and Bot) is one per-instance constant (`InstanceContext.fixed`).
A closure role has two kernels, picked from its base role's denotation.
When every successor set of the base holds at most one object in every
state (a functional role, like `on` in blocksworld), pointer jumping
(`_jump_closure`) takes ceil(log2 n) gathers.  Any other base takes bitset
Floyd-Warshall (`_pass_closure`), one pass per object some row enters,
which is about n passes for a tower of n blocks.

Greedy execution also evaluates one state after another by deltas
(`DeltaContext`): the concepts built from Not, And, Exists, Forall and
Equal over atomic concepts and roles (`DELTA_FORMS`) keep their
denotations in one state as Python ints, and a successor's are recomputed,
children first, only at the objects whose inputs its action changed.
Closures, inverses and distances are evaluated in full.

The grammar: primitive concepts (unary predicates and type names), goal
versions of goal-relevant predicates, nominals for constants and declared
goal parameters, Top/Bot, negation, conjunction, existential and universal
role restriction, equality of a role with its goal version, and roles
derived from primitive or goal roles by inverse and (non-reflexive)
transitive closure.

The syntax is one table, `FORMS`: each expression class states its
printable form once, such as ``Exists({},{})``, ``{}_plus``, ``type({})``
or ``Top``, with the kind of each field (concept, role or name).  Printing
(`render`), parsing (`parse`) and walking the children (`state_independent`)
all read it; the feature classes of `features` state theirs in it too, under
the sort `FEATURE`.  Examples:
``And(clear,Nominal(b1))``, ``Forall(on_plus,Equal(on,on_g))``.  Suffixes:
``_g`` goal version, ``_inv`` inverse, ``_plus`` closure; a predicate
name may not end in one (`RESERVED_SUFFIXES`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter

import numpy as np

from genpol.errors import GenpolError


# ---------------------------------------------------------------------------
# Expression types and their printable forms
# ---------------------------------------------------------------------------

# The sort of an expression and the kind of each of its fields: a concept, a
# role, a feature or a name (of a predicate, type or object).
CONCEPT, ROLE, FEATURE, NAME = "concept", "role", "feature", "name"

# The forms table: per sort, the expression classes, in the order the parser
# tries their forms.  Each class states its form once (`syntax`).
FORMS: dict = {CONCEPT: [], ROLE: [], FEATURE: []}

_NAME = re.compile(r"[^\s(),]+")


class ExpressionParseError(GenpolError):
    pass


class Expression:
    """Base of the expression classes; `syntax` sets `form` (one ``{}`` per
    part), `parts` ((field, kind) of the leading fields that the form prints,
    in field order) and `children` (the parts that are expressions)."""

    @cached_property
    def text(self) -> str:
        """The printable form, built from the children's printable forms."""
        return self.form.format(*(getattr(self, f) if kind == NAME else getattr(self, f).text
                                  for f, kind in self.parts))


def syntax(sort, form, *kinds):
    """Class decorator: a frozen dataclass expression of `sort` printed as
    `form`, its first fields of `kinds` in order (later ones need defaults)."""
    def make(cls):
        cls = dataclass(frozen=True)(cls)
        cls.form, cls.parts = form, tuple(zip((f.name for f in fields(cls)), kinds))
        cls.children = tuple(f for f, kind in cls.parts if kind != NAME)
        # Every text fits a bare name, so that form is tried last.
        FORMS[sort] = sorted(FORMS[sort] + [cls], key=lambda c: c.form == "{}")
        return cls
    return make


@syntax(ROLE, "{}", NAME)
class PrimitiveRole(Expression):
    name: str


@syntax(ROLE, "{}_g", NAME)
class GoalRole(Expression):
    name: str


@syntax(ROLE, "{}_inv", ROLE)
class InverseRole(Expression):
    base: object


@syntax(ROLE, "{}_plus", ROLE)
class ClosureRole(Expression):
    base: object


@syntax(CONCEPT, "Top")
class Top(Expression):
    pass


@syntax(CONCEPT, "Bot")
class Bot(Expression):
    pass


@syntax(CONCEPT, "{}", NAME)
class PrimitiveConcept(Expression):
    name: str


@syntax(CONCEPT, "{}_g", NAME)
class GoalConcept(Expression):
    name: str


@syntax(CONCEPT, "type({})", NAME)
class TypeConcept(Expression):
    name: str


@syntax(CONCEPT, "Nominal({})", NAME)
class Nominal(Expression):
    name: str


@syntax(CONCEPT, "Not({})", CONCEPT)
class Not(Expression):
    child: object


@syntax(CONCEPT, "And({},{})", CONCEPT, CONCEPT)
class And(Expression):
    left: object
    right: object


@syntax(CONCEPT, "Exists({},{})", ROLE, CONCEPT)
class Exists(Expression):
    role: object
    child: object


@syntax(CONCEPT, "Forall({},{})", ROLE, CONCEPT)
class Forall(Expression):
    role: object
    child: object


@syntax(CONCEPT, "Equal({},{})", ROLE, ROLE)
class RoleEqual(Expression):
    left: object
    right: object


# Name endings that a printed predicate name would share with a form.
RESERVED_SUFFIXES = tuple(sorted({c.form[2:] for c in FORMS[CONCEPT] + FORMS[ROLE]
                                  if c.form.startswith("{}") and c.form != "{}"}))


def render(expr) -> str:
    """The printable form of `expr`."""
    return expr.text


def state_independent(expr, static_preds) -> bool:
    """Whether `expr` denotes the same in every state of an instance: it is
    built only from the predicates of `static_preds` (those no action adds
    or deletes), types, nominals, goal versions, Top and Bot."""
    if isinstance(expr, (PrimitiveConcept, PrimitiveRole)):
        return expr.name in static_preds
    return all(state_independent(getattr(expr, f), static_preds) for f in expr.children)


def _split_args(body: str) -> list:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse(text: str, kind: str):
    """The `kind` (a sort or NAME) that `text` prints: the first form of
    that sort that `text` fits, its parts parsed by their kinds."""
    text = text.strip()
    if kind == NAME:
        if not _NAME.fullmatch(text):
            raise ExpressionParseError(f"bad name: '{text}'")
        return text
    for cls in FORMS[kind]:
        if not cls.parts:
            if text == cls.form:
                return cls()
            continue
        head, *_, tail = cls.form.split("{}")
        if text.startswith(head) and text.endswith(tail):
            args = _split_args(text[len(head):len(text) - len(tail)])
            if len(args) != len(cls.parts):
                raise ExpressionParseError(
                    f"{cls.form} takes {len(cls.parts)} arguments: '{text}'")
            return cls(*(parse(a, k) for a, (_, k) in zip(args, cls.parts)))


# ---------------------------------------------------------------------------
# Evaluation over sets of states
# ---------------------------------------------------------------------------

def _words(n: int) -> int:
    """uint64 words in a set of n objects; at least one."""
    return max(1, -(-n // 64))


def pack(bits: np.ndarray, words: int) -> np.ndarray:
    """bool [..., n] -> uint64 [..., words]; object j is bit j % 64 of
    word j // 64."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    short = 8 * words - packed.shape[-1]
    if short:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (short,), dtype=np.uint8)], axis=-1)
    return packed.view("<u8")


def unpack(sets: np.ndarray, n: int) -> np.ndarray:
    """uint64 [..., words] -> bool [..., n]; inverse of `pack`."""
    octets = np.ascontiguousarray(sets, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").view(bool)


def _reduce_members(ufunc, at, values):
    """(rows, reduced): the rows i of bool `at` [k, n] that have a member
    and, for each, `ufunc` reduced over values[i, j] of its members j;
    `values` is [k, n, ...]."""
    row, obj = np.divmod(np.flatnonzero(at), at.shape[1])
    first = np.ones(len(row), dtype=bool)
    np.not_equal(row[1:], row[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return row[starts], ufunc.reduceat(values[row, obj], starts, axis=0)


def _bfs(sources, rows, restrict, far, n) -> np.ndarray:
    """Breadth-first search from each of the object sets `sources` [k,
    words] at once: int64 [k, n] steps of the successor sets `rows` [k or
    1, n, words] to each object, the steps entering `restrict` [k or 1,
    words] only; `far` [k] where unreachable."""
    dmap = np.repeat(far[:, None], n, axis=1)
    rows = np.broadcast_to(rows, (len(sources),) + rows.shape[1:])
    seen = cur = sources
    dist = 0
    while cur.any():
        at = unpack(cur, n)
        dmap[at] = dist
        step = np.zeros_like(cur)
        heads, reached = _reduce_members(np.bitwise_or, at, rows)
        step[heads] = reached
        cur = step & restrict & ~seen
        seen = seen | cur
        dist += 1
    return dmap


def _functional(rows) -> bool:
    """Whether each successor set of `rows` [..., words] holds at most one
    object: no word has two bits, and no set two nonzero words."""
    if (rows & (rows - np.uint64(1))).any():
        return False
    return rows.shape[-1] == 1 or ((rows != 0).sum(axis=-1) <= 1).all()


def _jump_closure(rows) -> np.ndarray:
    """Transitive closure of the functional successor sets `rows` [states,
    n, words] by pointer jumping (Wyllie, 1979).  Rows are numbered state *
    n + object, and row states * n is an empty sentinel, the successor of
    every row without one and of itself.  Round k sets reach[x] |=
    reach[succ[x]] and succ[x] = succ[succ[x]]: both then span 2^k steps.
    It stops once every pointer is at the sentinel or the span reaches n, as
    a walk in a functional role meets every object it can reach within n
    steps, on a cycle too."""
    n_states, n, words = rows.shape
    sentinel = n_states * n
    reach = np.zeros((sentinel + 1, words), dtype=np.uint64)
    reach[:-1].reshape(rows.shape)[...] = rows  # `rows` may be a read-only view
    one = np.bitwise_or.reduce(rows, axis=-1)  # a row's one nonzero word, or 0
    bit = np.frexp(one.astype(np.float64))[1] - 1  # exact: `one` is 0 or 2^b, b < 64
    if words > 1:
        bit += 64 * (rows != 0).argmax(axis=-1)
    succ = np.full(sentinel + 1, sentinel)
    held = np.flatnonzero(one)
    succ[held] = held // n * n + bit.ravel()[held]
    span = 1
    while span < n and succ.min() < sentinel:
        reach |= reach.take(succ, axis=0)
        succ = succ.take(succ)
        span *= 2
    return reach[:-1].reshape(rows.shape)


def _pass_closure(rows) -> np.ndarray:
    """Transitive closure of the successor sets `rows` [states, n, words] by
    bitset Floyd-Warshall: the pass over intermediate k adds row k to every
    row that reaches k.  A path enters k by a base edge, so only objects
    some row holds, in some state, are intermediates."""
    got = rows.copy()
    entered = np.bitwise_or.reduce(got, axis=(0, 1))
    for k in np.flatnonzero(unpack(entered, rows.shape[1])).tolist():
        word, bit = divmod(k, 64)
        via = (got[:, :, word] >> np.uint64(bit)) & np.uint64(1)
        got |= np.where(via[:, :, None] != 0, got[:, k:k + 1], np.uint64(0))
    return got


# What the error message of an unknown name calls it, per atomic class.
_UNKNOWN = {PrimitiveConcept: "unary predicate", GoalConcept: "unary predicate",
            PrimitiveRole: "binary predicate", GoalRole: "binary predicate", TypeConcept: "type"}

# Arity -> the classes of a predicate's goal version and of the predicate.
_VERSIONS = {1: (GoalConcept, PrimitiveConcept), 2: (GoalRole, PrimitiveRole)}


class InstanceContext:
    """Per-instance constants: the object numbering, where each dynamic
    ground atom goes in a state's atom table, the denotations no state can
    change (`fixed` and `flags`), and, built on first use, those of
    state-independent expressions (`static`) and their distance tables
    (`distance_table`)."""

    def __init__(self, gp):
        self.gp = gp
        self.static_preds = gp.domain.static_predicates()
        self._init = None  # StateContext of the initial state, made on first use
        self._tables: dict = {}  # (role, restrict) -> distance table
        self.objects = gp.objects  # sorted names
        self.index = index = {o: i for i, o in enumerate(self.objects)}
        n = self.n = len(self.objects)
        w = self.words = _words(n)
        dom = gp.domain
        preds = dom.predicates.values()

        # `fixed`: each atomic expression no state can change, with its set
        # ([words]) or successor sets ([n, words]).  These are Top, Bot, the
        # types, the nominals, the goal version of every unary and binary
        # predicate (empty unless the goal names it), and the static unary
        # and binary predicates, which hold their atoms of the initial state.
        # Nominals: domain constants by name, goal parameters by position
        # ("goal0", "goal1", ...) so the same feature re-binds to the goal
        # arguments of whatever instance it is evaluated on.  A constant of
        # a goal parameter's name would be one nominal for two objects.
        # `held` maps each to the object indices of its members, flat.
        held = {Top(): list(range(n)), Bot(): []}
        held.update((TypeConcept(t), [index[o] for o in self.objects
                                      if dom.is_subtype(gp.object_types[o], t)])
                    for t in dom.types)
        held.update((Nominal(name), [index[name]]) for name, _ in dom.constants)
        for i, name in enumerate(gp.instance.goal_params):
            if Nominal(f"goal{i}") in held:
                raise GenpolError(f"domain constant 'goal{i}' has the name of the "
                                  f"nominal of goal parameter {i} ('{name}')")
            held[Nominal(f"goal{i}")] = [index[name]]
        by_pred: dict = {}  # (0 goal or 1 static, predicate) -> object indices
        for k, ids in enumerate((gp.goal, gp.static_atoms)):  # sorted: by predicate
            for pred, group in groupby(map(gp.atoms.__getitem__, sorted(ids)), itemgetter(0)):
                by_pred[k, pred] = [index[o] for atom in group for o in atom[1:]]
        static = self.static_preds
        held.update((version(p.name), by_pred.get((k, p.name), []))
                    for p in preds if p.arity in _VERSIONS
                    for k, version in enumerate(_VERSIONS[p.arity][:1 + (p.name in static)]))
        self.fixed = {}
        for arity, sort in ((1, CONCEPT), (2, ROLE)):  # one write and one pack each
            exprs = [e for e in held if type(e) in FORMS[sort]]
            at = np.fromiter(chain.from_iterable(map(held.get, exprs)), dtype=np.int64)
            bits = np.zeros((len(exprs),) + (n,) * arity, dtype=bool)
            bits[(np.repeat(np.arange(len(exprs)), [len(held[e]) // arity for e in exprs]),
                  *at.reshape(-1, arity).T)] = True
            self.fixed.update(zip(exprs, pack(bits, w)))
        # `flags`: each static predicate of another arity, 1 if an atom of it holds.
        self.flags = {p.name: int((1, p.name) in by_pred) for p in preds
                      if p.arity not in _VERSIONS and p.name in static}

        # A state's atom table is one uint64 row over the dynamic predicates:
        # `words` words per unary predicate and per (binary predicate, first
        # object), then one column per other predicate, nonzero when one of
        # its atoms holds.  The bits of a packed row are cut into runs: a
        # run is a stretch of consecutive bits in one word of the row that
        # lands on consecutive bits of one cell (a flag cell takes them at
        # their own bit positions, as only zero and nonzero tell), so
        # `tables` moves each run with one shift and one mask per state.
        dynamic = [p for p in preds if p.name not in static]
        self.unary_preds = sorted(p.name for p in dynamic if p.arity == 1)
        self.binary_preds = sorted(p.name for p in dynamic if p.arity == 2)
        self.flag_preds = sorted(p.name for p in dynamic if p.arity not in _VERSIONS)
        unary = {p: k * w for k, p in enumerate(self.unary_preds)}
        binary = {p: (len(unary) + k * n) * w for k, p in enumerate(self.binary_preds)}
        self._flag0 = (len(unary) + len(binary) * n) * w
        self._width = self._flag0 + len(self.flag_preds)
        flag = {p: self._flag0 + k for k, p in enumerate(self.flag_preds)}

        def place(atom):
            """The first cell of an atom's set and its object; a flag's
            bit is that of object 0."""
            if len(atom) == 2:
                return unary[atom[0]], index[atom[1]]
            if len(atom) == 3:
                return binary[atom[0]] + index[atom[1]] * w, index[atom[2]]
            return flag[atom[0]], 0

        k = np.arange(len(gp.dynamic))
        atoms = map(gp.atoms.__getitem__, gp.dynamic.tolist())
        where = np.fromiter(chain.from_iterable(map(place, atoms)), dtype=np.int64,
                            count=2 * len(k)).reshape(-1, 2)
        cell = where[:, 0] + where[:, 1] // 64
        bit = np.where(cell >= self._flag0, k % 64, where[:, 1] % 64)
        head = np.ones(len(k), dtype=bool)  # whether bit k starts a run
        head[1:] = ((k[1:] % 64 == 0) | (cell[1:] != cell[:-1])
                    | (bit[1:] != bit[:-1] + 1))
        start = np.flatnonzero(head)
        length = np.diff(start, append=len(k)).astype(np.uint64)
        by_cell = np.argsort(cell[start], kind="stable")
        start, length = start[by_cell], length[by_cell]
        self._word = start // 64
        self._shift = (start % 64).astype(np.uint64)
        self._mask = np.uint64(2**64 - 1) >> (np.uint64(64) - length)
        self._dest = bit[start].astype(np.uint64)
        cell = cell[start]
        first = np.ones(len(cell), dtype=bool)  # whether run i is its cell's first
        np.not_equal(cell[1:], cell[:-1], out=first[1:])
        self._cells = cell[first]
        self._firsts = None if first.all() else np.flatnonzero(first)

    def tables(self, rows):
        """The dynamic atoms of the states of the packed `rows`: unary sets
        [S, U, words], binary successor sets [S, B, n, words] and flags bool
        [S, F], S = len(rows), in the order of `unary_preds`, `binary_preds`
        and `flag_preds`."""
        n_states = len(rows)
        runs = rows[:, self._word]
        np.right_shift(runs, self._shift, out=runs)
        np.bitwise_and(runs, self._mask, out=runs)
        np.left_shift(runs, self._dest, out=runs)
        if self._firsts is not None:
            runs = np.bitwise_or.reduceat(runs, self._firsts, axis=1)
        table = np.zeros((n_states, self._width), dtype=np.uint64)
        table[:, self._cells] = runs
        sets = len(self.unary_preds) * self.words
        return (table[:, :sets].reshape(n_states, len(self.unary_preds), self.words),
                table[:, sets:self._flag0].reshape(n_states, len(self.binary_preds),
                                                   self.n, self.words),
                table[:, self._flag0:] > 0)

    def denotation(self, expr) -> np.ndarray:
        """The fixed denotation of an atomic expression (see `fixed`)."""
        got = self.fixed.get(expr)
        if got is None:
            if isinstance(expr, Nominal):
                raise GenpolError(f"nominal '{expr.name}' is not a constant or "
                                  f"goal parameter of instance "
                                  f"'{self.gp.instance.name}'")
            raise GenpolError(f"unknown {_UNKNOWN[type(expr)]} '{expr.name}'")
        return got

    def static(self, expr) -> np.ndarray:
        """The denotation of a state-independent concept ([words]) or role
        ([n, words]), evaluated once in the initial state and memoized."""
        if not state_independent(expr, self.static_preds):
            raise ValueError(f"not state-independent: {render(expr)}")
        if self._init is None:
            self._init = StateContext([(self, self.gp.init[None])])
        ctx = self._init
        return (ctx.role(expr) if type(expr) in FORMS[ROLE] else ctx.concept(expr))[0]

    def distance_table(self, role, restrict) -> np.ndarray:
        """int64 [n, n]: the steps of the state-independent `role` from each
        object to each object, the steps entering the state-independent
        `restrict` only; n + 1 where unreachable.  Built once per pair."""
        got = self._tables.get((role, restrict))
        if got is None:
            n = self.n
            got = self._tables[role, restrict] = _bfs(
                pack(np.eye(n, dtype=bool), self.words), self.static(role)[None, :n],
                self.static(restrict)[None], np.full(n, n + 1), n)
        return got


def _padded(a: np.ndarray, shape: tuple) -> np.ndarray:
    """`a` zero-padded to `shape`."""
    if a.shape == shape:
        return a
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(map(slice, a.shape))] = a
    return out


class StateContext:
    """Denotations over many states at once; create via `state_context`.

    The states are those of `parts`, (InstanceContext, packed rows) pairs
    of one domain, concatenated.  With n the most objects of any instance (at
    least one), a concept is a uint64 array [n_states, words] of object
    sets and a role an array [n_states, n, words] of successor sets, empty
    past an instance's own objects.  Denotations are memoized in `memo`.
    """

    def __init__(self, parts):
        self.ictxs = [ictx for ictx, _ in parts]
        self.sizes = [len(states) for _, states in parts]
        self.n_states = sum(self.sizes)
        self.domain = self.ictxs[0].gp.domain
        self.n = max(1, max(c.n for c in self.ictxs))
        self.words = _words(self.n)
        self.n_objs = np.repeat([c.n for c in self.ictxs], self.sizes)
        self.memo: dict = {}

        ictx0 = self.ictxs[0]
        tables = [ictx.tables(states) for ictx, states in parts]
        shapes = [(len(ictx0.unary_preds), self.words),
                  (len(ictx0.binary_preds), self.n, self.words),
                  (len(ictx0.flag_preds),)]
        unary, rows, flags = (  # one part's tables are used as they are
            np.concatenate(p) if len(p) > 1 else p[0]
            for p in ([_padded(a, a.shape[:1] + tail) for a in got]
                      for got, tail in zip(zip(*tables), shapes)))
        self.unary = dict(zip(ictx0.unary_preds, unary.swapaxes(0, 1)))
        self.rows = dict(zip(ictx0.binary_preds, rows.swapaxes(0, 1)))
        self.flags = dict(zip(ictx0.flag_preds, flags.T.astype(np.int64)))
        self.flags.update((p, np.repeat([c.flags[p] for c in self.ictxs], self.sizes))
                          for p in ictx0.flags)
        self.universe = self.fixed(Top())

    def constant(self, values) -> np.ndarray:
        """Per-state array of a per-instance set (or successor sets), given
        for each part; of one part, a read-only view of its value."""
        shape = (self.words,) if values[0].ndim == 1 else (self.n, self.words)
        if len(values) == 1:
            return np.broadcast_to(_padded(values[0], shape), (self.n_states,) + shape)
        rows = np.stack([_padded(v, shape) for v in values])
        return np.repeat(rows, self.sizes, axis=0)

    def fixed(self, expr) -> np.ndarray:
        """Per-state array of an atomic expression no state can change."""
        return self.constant([c.denotation(expr) for c in self.ictxs])

    def pack(self, bits: np.ndarray) -> np.ndarray:
        return pack(bits, self.words)

    def members(self, sets: np.ndarray) -> np.ndarray:
        """uint64 [..., words] -> bool [..., n]; inverse of `pack`."""
        return unpack(sets, self.n)

    def popcounts(self, col: np.ndarray) -> np.ndarray:
        return self.members(col).sum(axis=-1, dtype=np.int64)

    # -- denotations -------------------------------------------------------

    def concept(self, expr) -> np.ndarray:
        got = self.memo.get(expr)
        if got is None:
            got = self.memo[expr] = self.compose(expr)
        return got

    def compose(self, expr) -> np.ndarray:
        """Denotation of a concept from its children's memoized ones; the
        concept itself is not memoized."""
        if isinstance(expr, Not):
            return self.universe & ~self.concept(expr.child)
        if isinstance(expr, And):
            return self.concept(expr.left) & self.concept(expr.right)
        if isinstance(expr, Exists):
            child = self.concept(expr.child)
            return self.pack((self.role(expr.role) & child[:, None]).any(axis=-1))
        if isinstance(expr, Forall):
            bad = self.role(expr.role) & ~self.concept(expr.child)[:, None]
            return self.pack(~bad.any(axis=-1)) & self.universe
        if isinstance(expr, RoleEqual):
            same = (self.role(expr.left) == self.role(expr.right)).all(axis=-1)
            return self.pack(same) & self.universe
        if isinstance(expr, PrimitiveConcept) and expr.name in self.unary:
            return self.unary[expr.name]
        return self.fixed(expr)

    def role(self, expr) -> np.ndarray:
        got = self.memo.get(expr)
        if got is not None:
            return got
        if isinstance(expr, PrimitiveRole) and expr.name in self.rows:
            got = self.rows[expr.name]
        elif isinstance(expr, InverseRole):
            got = self.pack(self.members(self.role(expr.base)).swapaxes(1, 2))
        elif isinstance(expr, ClosureRole):
            # Floyd-Warshall makes one pass per entered object, about n for
            # `on` in a tower; pointer jumping makes ceil(log2 n) gathers
            # but needs at most one successor per row in every state.
            base = self.role(expr.base)
            got = (_jump_closure if _functional(base) else _pass_closure)(base)
        else:
            got = self.fixed(expr)
        self.memo[expr] = got
        return got

    # -- distances ---------------------------------------------------------

    def distances(self, source, role, restricts) -> np.ndarray:
        """int64 [len(restricts), n_states, n]: per restriction, the steps of
        `role` from the members of `source` to each object, the steps entering
        the restriction only; n + 1 where unreachable, with each state's own n.
        Where `role` and a restriction are state-independent, a state's map is
        the minimum of its instance's distance table rows over the source
        members; the other restrictions share one breadth-first search."""
        preds = self.ictxs[0].static_preds
        tabled = np.array([state_independent(role, preds) and state_independent(r, preds)
                           for r in restricts], dtype=bool)
        dmap = np.full((len(restricts), self.n_states, self.n), (self.n_objs + 1)[:, None])
        searched = [self.concept(r) for r, t in zip(restricts, tabled) if not t]
        if searched:
            k = len(searched)
            dmap[~tabled] = self.distance_map(
                np.tile(self.concept(source), (k, 1)), np.tile(self.role(role), (k, 1, 1)),
                np.concatenate(searched)).reshape(k, self.n_states, self.n)
        members = self.members(self.concept(source))
        for i in np.flatnonzero(tabled).tolist():
            lo = 0
            for ictx, size in zip(self.ictxs, self.sizes):
                table = ictx.distance_table(role, restricts[i])
                states, dists = _reduce_members(np.minimum, members[lo:lo + size, :ictx.n],
                                                np.broadcast_to(table, (size,) + table.shape))
                dmap[i, lo + states, :ictx.n] = dists
                lo += size
        return dmap

    def distance_map(self, sources, rows, restrict) -> np.ndarray:
        """Breadth-first search in every state at once, k searches stacked:
        [k * n_states, n] role steps from `sources` to each object, the steps
        entering `restrict` only; n + 1 where unreachable, with each state's own n."""
        return _bfs(sources, rows, restrict,
                    np.tile(self.n_objs + 1, len(sources) // self.n_states), self.n)

    def min_distance(self, maps: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per state, the least entry of each of `maps` [..., n_states, n] over
        each of `targets` [..., n_states, words], n + 1 if none: [maps...,
        targets..., n_states].  Laid out [objects, maps, targets, states], the
        values reduce over axis 0, far faster than over a short last axis;
        one map and one target are only transposed, as a copy costs more."""
        at = self.members(targets).transpose(-1, *range(targets.ndim - 1))
        dmap = maps.transpose(-1, *range(maps.ndim - 1))
        if maps.ndim > 2 or targets.ndim > 2:
            at = np.ascontiguousarray(at)
        if targets.ndim > 2:  # several targets read each map: copy it object-major
            dmap = np.ascontiguousarray(dmap)
        at = at[(slice(None),) + (None,) * (maps.ndim - 2)]
        dmap = dmap[(Ellipsis,) + (None,) * (targets.ndim - 2) + (slice(None),)]
        return np.where(at, dmap, self.n_objs + 1).min(axis=0)


def state_context(parts) -> StateContext:
    """Denotations over the states of `parts`, (InstanceContext, packed
    rows) pairs of one domain."""
    return StateContext(parts)


# ---------------------------------------------------------------------------
# Evaluation by deltas, one state after another
# ---------------------------------------------------------------------------

# The classes whose denotations `DeltaContext` keeps: Not, And, Exists,
# Forall and Equal over atomic concepts and roles.
DELTA_FORMS = frozenset((Top, Bot, PrimitiveConcept, GoalConcept, TypeConcept, Nominal,
                         PrimitiveRole, GoalRole, Not, And, Exists, Forall, RoleEqual))


def by_deltas(expr) -> bool:
    """Whether `DeltaContext` can keep `expr`: it is built from `DELTA_FORMS`."""
    return type(expr) in DELTA_FORMS and all(by_deltas(getattr(expr, f))
                                             for f in expr.children)


def _ints(sets: np.ndarray) -> list:
    """uint64 [k, words] -> k Python ints, object j as bit j."""
    return [int.from_bytes(s.astype("<u8").tobytes(), "little") for s in sets]


_UNCHANGED = ({}, {}, 0)  # `DeltaContext`'s change of a role that does not change


class DeltaContext:
    """The denotations of the concepts `roots`, and of every sub-expression
    of them (all of `DELTA_FORMS`), in one state of one instance, kept from
    a state to its successor by deltas: incremental view maintenance
    (Gupta, Mumick and Subrahmanian, SIGMOD 1993) over the expression DAG.

    The first state, a packed row, is evaluated through `state_context`.
    Each node of the DAG is numbered once, children first; a set is a
    Python int, bit j for object j, and a role is kept as its rows (the
    successor set of each object) and its inverse rows.  `successor(aid)`
    reads the dynamic atoms that action `aid` adds or deletes
    (`GroundProblem.add_bits`, `del_bits`) and recomputes the compound
    nodes in id order, skipping each whose inputs kept their value, and a
    recomputed node only at the objects whose inputs changed:

    * Not and And: their children's new sets, whole (a few words);
    * Exists(R, C) and Forall(R, C): the objects whose row of R changed,
      and the inverse rows of R at the objects where C changed;
    * Equal(R, S): the objects whose row of R or of S changed.

    A count is the `bit_count()` of its root's set.  `apply` steps to a
    successor without evaluating anything.
    """

    def __init__(self, ictx: InstanceContext, row: np.ndarray, roots):
        ctx = state_context([(ictx, row[None])])
        gp = self._gp = ictx.gp
        ids: dict = {}
        self._nodes = nodes = []  # per compound node: (id, class, child id, child id or -1)

        def number(expr):
            got = ids.get(expr)
            if got is None:
                kids = [number(getattr(expr, f)) for f in expr.children]
                got = ids[expr] = len(ids)
                if kids:
                    nodes.append((got, type(expr), *(kids + [-1])[:2]))
            return got

        self._roots = [number(c) for c in roots]
        n = ictx.n
        self._universe = (1 << n) - 1
        self._value = [(_ints(ctx.role(e)[0, :n]), _ints(ctx.role(InverseRole(e))[0, :n]))
                       if type(e) in FORMS[ROLE] else _ints(ctx.concept(e))[0]
                       for e in ids]  # per node, in id order: its set, or (rows, inverse rows)

        # Each dynamic atom of a predicate some node reads: (node, x, y),
        # y = -1 for a unary one.
        dynamic = {PrimitiveConcept: ictx.unary_preds, PrimitiveRole: ictx.binary_preds}
        node_of = {e.name: i for e, i in ids.items()
                   if type(e) in dynamic and e.name in dynamic[type(e)]}
        self._targets = [None] * (64 * gp.words + 1)  # bit -> target; the padding has none
        for bit, atom_id in enumerate(gp.dynamic.tolist()):
            atom = gp.atoms[atom_id]
            if atom[0] in node_of:
                self._targets[bit] = (node_of[atom[0]], ictx.index[atom[1]],
                                      ictx.index[atom[2]] if len(atom) == 3 else -1)
        self._held = bytearray(np.unpackbits(row.astype("<u8").view(np.uint8),
                                             bitorder="little").tobytes())
        self._memo: dict = {}  # action id -> its `_reads`

    def _reads(self, aid: int) -> list:
        """The (bit, added, node, x, y) of each atom that action `aid` adds
        or deletes that a node reads."""
        got = self._memo.get(aid)
        if got is None:
            gp, targets = self._gp, self._targets
            got = self._memo[aid] = [(bit, add) + targets[bit]
                                     for add, bits in ((1, gp.add_bits[aid]),
                                                       (0, gp.del_bits[aid]))
                                     for bit in bits.tolist() if targets[bit]]
        return got

    def counts(self) -> list:
        """The counts of the roots in the current state."""
        return [self._value[i].bit_count() for i in self._roots]

    def successor(self, aid: int) -> tuple:
        """(counts, change): the counts of the roots in the successor of the
        current state by action `aid`, and the change that `apply` makes to
        step to it."""
        value, held = self._value, self._held
        flips = []  # (bit, added) of each atom that changes
        new: dict = {}  # node -> its new set, where it changed
        roles: dict = {}  # role node -> [new rows, new inverse rows, objects whose row changed]
        for bit, add, node, x, y in self._reads(aid):
            if held[bit] == add:
                continue
            flips.append((bit, add))
            if y < 0:
                s = new.get(node, value[node])
                new[node] = s | 1 << x if add else s & ~(1 << x)
                continue
            got = roles.get(node)
            if got is None:
                got = roles[node] = [{}, {}, 0]
            rows, inv = value[node]
            r, c = got[0].get(x, rows[x]), got[1].get(y, inv[y])
            got[0][x], got[1][y] = (r | 1 << y, c | 1 << x) if add else \
                                   (r & ~(1 << y), c & ~(1 << x))
            got[2] |= 1 << x
        universe = self._universe
        for i, kind, a, b in self._nodes:
            old = value[i]
            if kind is Not:
                if a not in new:
                    continue
                s = universe & ~new[a]
            elif kind is And:
                if a not in new and b not in new:
                    continue
                s = new.get(a, value[a]) & new.get(b, value[b])
            elif kind is RoleEqual:
                if a not in roles and b not in roles:
                    continue
                ra, rb = roles.get(a, _UNCHANGED), roles.get(b, _UNCHANGED)
                rows_a, rows_b = value[a][0], value[b][0]
                cand = ra[2] | rb[2]
                s = old & ~cand
                while cand:
                    low = cand & -cand
                    x = low.bit_length() - 1
                    if ra[0].get(x, rows_a[x]) == rb[0].get(x, rows_b[x]):
                        s |= low
                    cand ^= low
            else:  # Exists or Forall
                if a not in roles and b not in new:
                    continue
                got_rows, got_inv, cand = roles.get(a, _UNCHANGED)
                rows, inv = value[a]
                c = new.get(b)
                if c is None:
                    c = value[b]
                else:
                    d = c ^ value[b]
                    while d:
                        low = d & -d
                        y = low.bit_length() - 1
                        cand |= got_inv.get(y, inv[y])
                        d ^= low
                s = old & ~cand
                forall = kind is Forall
                while cand:
                    low = cand & -cand
                    x = low.bit_length() - 1
                    row = got_rows.get(x, rows[x])
                    if ((row & c) == row) if forall else row & c:
                        s |= low
                    cand ^= low
            if s != old:
                new[i] = s
        return [new.get(i, value[i]).bit_count() for i in self._roots], (flips, new, roles)

    def apply(self, change: tuple):
        """Steps to the successor whose `change` `successor` returned."""
        flips, new, roles = change
        for bit, add in flips:
            self._held[bit] = add
        for node, s in new.items():
            self._value[node] = s
        for node, (got_rows, got_inv, _) in roles.items():
            rows, inv = self._value[node]
            for x, r in got_rows.items():
                rows[x] = r
            for y, c in got_inv.items():
                inv[y] = c

