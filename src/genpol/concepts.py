"""Description logic concepts and roles over planning states.

Concepts denote sets of objects, roles denote binary relations.  Both are
evaluated over many states of one instance at once (`state_context`); pool
generation, which evaluates several instances, joins their per-instance
results itself (`features.generate_pool`).  A set of objects is a row of
uint64 words, one bit per object of the instance's sorted object list, so a
concept is an array [states, words] and a role one of per-object successor
sets [states, objects, words].  Distances are breadth-first searches run in all
states together, or, over a state-independent role and restriction (built
from static predicates, types, nominals, goal versions, Top and Bot only),
reads of an all-pairs table built once per instance.  States come as packed
rows over the dynamic atoms (see `pddl.GroundProblem`), and each row's bits
are moved into a table of the dynamic predicates, a run of bits at a time.
What no state can change (static predicates, types, nominals, goal versions,
Top and Bot) is one per-instance constant (`InstanceContext.fixed`).
A closure role is computed by bitset Floyd-Warshall (`_pass_closure`), one
pass per object some row enters, which is about n passes for a tower of n
blocks; greedy execution computes one only for its first state.

Greedy execution evaluates one state after another by deltas
(`DeltaContext`): the features of a policy and every expression in them
keep their values in one state as Python ints, and a successor's are
recomputed, children first, only where the atoms its action changes reach.
Each class of `FORMS` has a rule; a distance, and a closure whose base
changes otherwise than by one gained edge or one lost edge of a forest,
are recomputed from their children's new values.

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
    # `packbits` keeps the layout of a transposed `bits`, which `view` rejects.
    return np.ascontiguousarray(packed).view("<u8")


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
    words] only; `far` where unreachable."""
    dmap = np.full((len(sources), n), far)
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
        # A role has one successor set per object, and one empty set when the
        # instance has none, as an empty set of objects still has one word.
        slots = self.slots = max(1, n)
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
            bits = np.zeros((len(exprs),) + (slots, n)[2 - arity:], dtype=bool)
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
        binary = {p: (len(unary) + k * slots) * w for k, p in enumerate(self.binary_preds)}
        self._flag0 = (len(unary) + len(binary) * slots) * w
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
        [S, U, words], binary successor sets [S, B, slots, words] and flags bool
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
                                                   self.slots, self.words),
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
        ([slots, words]), evaluated once in the initial state and memoized."""
        if not state_independent(expr, self.static_preds):
            raise ValueError(f"not state-independent: {render(expr)}")
        if self._init is None:
            self._init = StateContext(self, self.gp.init[None])
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
                self.static(restrict)[None], n + 1, n)
        return got


class StateContext:
    """Denotations over many states of one instance at once; create via
    `state_context`.

    The states are the packed rows `states` of the instance of `ictx`.  A
    concept is a uint64 array [n_states, words] of object sets and a role an
    array [n_states, n, words] of successor sets, n the instance's object
    slots (`InstanceContext.slots`).  Denotations are memoized in `memo`.
    """

    def __init__(self, ictx: InstanceContext, states):
        self.ictx = ictx
        self.n_states = len(states)
        self.domain = ictx.gp.domain
        self.n, self.words = ictx.slots, ictx.words
        self.far = ictx.n + 1  # the distance to an object out of reach
        self.memo: dict = {}

        unary, rows, flags = ictx.tables(states)
        self.unary = dict(zip(ictx.unary_preds, unary.swapaxes(0, 1)))
        self.rows = dict(zip(ictx.binary_preds, rows.swapaxes(0, 1)))
        self.flags = dict(zip(ictx.flag_preds, flags.T.astype(np.int64)))
        self.flags.update((p, np.full(self.n_states, flag)) for p, flag in ictx.flags.items())
        self.universe = self.fixed(Top())

    def fixed(self, expr) -> np.ndarray:
        """Per-state array of an atomic expression no state can change: a
        read-only view of the instance's one value."""
        value = self.ictx.denotation(expr)
        return np.broadcast_to(value, (self.n_states,) + value.shape)

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
            # One Floyd-Warshall pass per entered object, about n for `on`
            # in a tower of n blocks.
            got = _pass_closure(self.role(expr.base))
        else:
            got = self.fixed(expr)
        self.memo[expr] = got
        return got

    # -- distances ---------------------------------------------------------

    def distances(self, source, role, restricts) -> np.ndarray:
        """int64 [len(restricts), n_states, n]: per restriction, the steps of
        `role` from the members of `source` to each object, the steps entering
        the restriction only; `far` where unreachable.  Where `role` and a
        restriction are state-independent, a state's map is the minimum of the
        instance's distance table rows over the source members; the other
        restrictions share one breadth-first search."""
        ictx = self.ictx
        preds = ictx.static_preds
        tabled = np.array([state_independent(role, preds) and state_independent(r, preds)
                           for r in restricts], dtype=bool)
        dmap = np.full((len(restricts), self.n_states, self.n), self.far)
        searched = [self.concept(r) for r, t in zip(restricts, tabled) if not t]
        if searched:
            k = len(searched)
            dmap[~tabled] = self.distance_map(
                np.tile(self.concept(source), (k, 1)), np.tile(self.role(role), (k, 1, 1)),
                np.concatenate(searched)).reshape(k, self.n_states, self.n)
        members = self.members(self.concept(source))[:, :ictx.n]
        for i in np.flatnonzero(tabled).tolist():
            table = ictx.distance_table(role, restricts[i])
            states, dists = _reduce_members(np.minimum, members, np.broadcast_to(
                table, (self.n_states,) + table.shape))
            dmap[i, states, :ictx.n] = dists
        return dmap

    def distance_map(self, sources, rows, restrict) -> np.ndarray:
        """Breadth-first search in every state at once, k searches stacked:
        [k * n_states, n] role steps from `sources` to each object, the steps
        entering `restrict` only; `far` where unreachable."""
        return _bfs(sources, rows, restrict, self.far, self.n)

    def min_distance(self, maps: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per state, the least entry of each of `maps` [..., n_states, n] over
        each of `targets` [..., n_states, words], `far` if none: [maps...,
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
        return np.where(at, dmap, self.far).min(axis=0)


def state_context(ictx: InstanceContext, states) -> StateContext:
    """Denotations over the packed rows `states` of the instance of `ictx`."""
    return StateContext(ictx, states)


# ---------------------------------------------------------------------------
# Evaluation by deltas, one state after another
# ---------------------------------------------------------------------------


def _ints(sets: np.ndarray) -> list:
    """uint64 [k, words] -> k Python ints, object j as bit j."""
    return [int.from_bytes(s.astype("<u8").tobytes(), "little") for s in sets]


def _transpose(rows: list) -> list:
    """The inverse rows of the successor sets `rows`, Python ints."""
    inv = [0] * len(rows)
    for x, r in enumerate(rows):
        for y in _members(r):
            inv[y] |= 1 << x
    return inv


def _members(s: int):
    """The objects of the Python-int set `s`, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


_UNCHANGED = ({}, {})  # `DeltaContext`'s change of a role that does not change


class DeltaContext:
    """The values of the features `roots`, and the denotations of every
    expression in them, in one state of one instance, kept from a state to
    its successor by deltas: incremental view maintenance (Gupta, Mumick and
    Subrahmanian, SIGMOD 1993) over the expression DAG.

    The first state, a packed row, is evaluated through `state_context`.
    Each node of the DAG is numbered once, children first; a set is a
    Python int, bit j for object j, a role is kept as its rows (the
    successor set of each object) and its inverse rows, and a feature as its
    value.  `successor(aid)` reads the dynamic atoms that action `aid` adds
    or deletes (`GroundProblem.add_bits`, `del_bits`), which change the
    primitive concepts and roles and the `Atom` features of their
    predicates, and recomputes the compound nodes in id order, skipping each
    whose children kept their value:

    * Not and And: from their children's new sets, whole (a few words);
    * Exists(R, C) and Forall(R, C): at the objects whose row of R changed,
      and at the inverse rows of R at the objects where C changed;
    * Equal(R, S): at the objects whose row of R or of S changed;
    * R_inv: R's changed rows and inverse rows, swapped; the node holds R's
      lists, swapped, and no copy of them;
    * R_plus: when R gains one edge (x, y), every object of
      inverse-closure(x) ∪ {x} gains closure(y) ∪ {y}.  When R loses its one
      edge at x, and every object that reaches x has one successor and x is
      not in closure(y), those objects lose the same set, as paths in a
      forest are unique.  Any other change of R recomputes the closure from
      R's new rows, one breadth-first search per object;
    * |C|: the `bit_count()` of C's set, 1 or 0 for a boolean feature;
    * Dist(S, R, X, T): the first level of a breadth-first search from S,
      along R and into X, that meets T, or n + 1.  Over a state-independent
      R and X, each search is kept by its set S and extended only as far as
      it is read, so a state that returns to a source set searches no more;
    * Atom(p) of a dynamic p: whether an atom of p holds after the action
      (its one bit for a nullary p); of a static p, `InstanceContext.flags`,
      which no action changes.

    `apply` steps to a successor without evaluating anything.
    """

    def __init__(self, ictx: InstanceContext, row: np.ndarray, roots):
        ctx = state_context(ictx, row[None])
        gp = self._gp = ictx.gp
        self._n = ictx.n
        self._universe = (1 << ictx.n) - 1
        ids: dict = {}
        self._nodes = []  # per compound node, in id order: (id, rule, its argument, child ids)
        self._value = []  # per node, in id order: its set, (rows, inverse rows) or value
        self._views = set()  # the inverse roles, whose lists are their child's
        self._roots = [self._number(f, ids, ctx) for f in roots]

        # Each dynamic atom of a predicate some node reads: (node, x, y), y =
        # -1 for a unary one and x = y = -1 for one of an `Atom` feature,
        # whose bits `_atoms` lists.
        node_of = {}
        for e, i in ids.items():
            if type(e) is PrimitiveConcept and e.name in ictx.unary_preds or \
                    type(e) is PrimitiveRole and e.name in ictx.binary_preds:
                node_of[e.name] = i
            elif type(e).form == _ATOM and e.pred in ictx.flag_preds:
                node_of[e.pred] = i
        self._targets = [None] * (64 * gp.words + 1)  # bit -> target; the padding has none
        self._atoms: dict = {}  # `Atom` node -> the bits of its predicate's atoms
        for bit, atom_id in enumerate(gp.dynamic.tolist()):
            atom = gp.atoms[atom_id]
            node = node_of.get(atom[0])
            if node is None:
                continue
            if len(atom) in (2, 3):
                self._targets[bit] = (node, ictx.index[atom[1]],
                                      ictx.index[atom[2]] if len(atom) == 3 else -1)
            else:
                self._targets[bit] = (node, -1, -1)
                self._atoms.setdefault(node, []).append(bit)
        self._held = bytearray(np.unpackbits(row.astype("<u8").view(np.uint8),
                                             bitorder="little").tobytes())
        self._memo: dict = {}  # action id -> its `_reads`

    def _number(self, expr, ids: dict, ctx) -> int:
        """The id of `expr`; if new, it is numbered after its children, with
        its value in the one state of `ctx`."""
        got = ids.get(expr)
        if got is None:
            kids = tuple(self._number(getattr(expr, f), ids, ctx) for f in expr.children)
            got = ids[expr] = len(self._value)
            rule = _rule(expr, ctx.ictx.static_preds) if kids else None
            if type(expr) is InverseRole:
                value = self._value[kids[0]][::-1]
                self._views.add(got)
            elif type(expr) in FORMS[ROLE]:
                rows = _ints(ctx.role(expr)[0, :self._n])
                value = rows, _transpose(rows)
            elif type(expr) in FORMS[CONCEPT]:
                value = _ints(ctx.concept(expr))[0]
            elif type(expr).form != _DIST:  # Atom(p) or |C|
                value = int(expr.values(ctx)[0])
            else:  # Dist(S,R,X,T), by its rule from its children's
                value = rule[0](self, got, rule[1], kids, {})
            self._value.append(value)
            if rule:
                self._nodes.append((got, *rule, kids))
        return got

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

    def values(self) -> list:
        """The values of the roots in the current state."""
        return [self._value[i] for i in self._roots]

    def successor(self, aid: int) -> tuple:
        """(values, change): the values of the roots in the successor of the
        current state by action `aid`, and the change that `apply` makes to
        step to it."""
        value, held = self._value, self._held
        flips = []  # (bit, added) of each atom that changes
        new: dict = {}  # node -> its new set or value, or its role's changed rows and inverse rows
        atoms = []  # the `Atom` nodes of the predicates of changed atoms
        for bit, add, node, x, y in self._reads(aid):
            if held[bit] == add:
                continue
            flips.append((bit, add))
            if y >= 0:
                got = new.get(node)
                if got is None:
                    got = new[node] = ({}, {})
                rows, inv = value[node]
                r, c = got[0].get(x, rows[x]), got[1].get(y, inv[y])
                got[0][x], got[1][y] = (r | 1 << y, c | 1 << x) if add else \
                                       (r & ~(1 << y), c & ~(1 << x))
            elif x >= 0:
                s = new.get(node, value[node])
                new[node] = s | 1 << x if add else s & ~(1 << x)
            else:
                atoms.append(node)
        if atoms:
            now = dict(flips)
            for node in atoms:
                new[node] = int(any(now.get(b, held[b]) for b in self._atoms[node]))
        for i, rule, arg, kids in self._nodes:
            for k in kids:
                if k in new:
                    break
            else:
                continue
            got = rule(self, i, arg, kids, new)
            # A role's change, two dicts, never equals its value, two lists.
            if got is not None and got != value[i]:
                new[i] = got
        return [new.get(i, value[i]) for i in self._roots], (flips, new)

    def apply(self, change: tuple):
        """Steps to the successor whose `change` `successor` returned."""
        flips, new = change
        for bit, add in flips:
            self._held[bit] = add
        value = self._value
        for node, got in new.items():
            if type(got) is not tuple:
                value[node] = got
            elif node not in self._views:  # a view's lists are its child's
                rows, inv = value[node]
                for x, r in got[0].items():
                    rows[x] = r
                for y, c in got[1].items():
                    inv[y] = c

    # -- the rules: each gives a node's new set, value or role change from
    # -- its children's, where some child changed; a role's is None if none.

    def _not(self, i, arg, kids, new):
        return self._universe & ~new[kids[0]]

    def _and(self, i, arg, kids, new):
        a, b = kids
        return new.get(a, self._value[a]) & new.get(b, self._value[b])

    def _quantifier(self, i, forall, kids, new):
        value = self._value
        a, b = kids
        rows, inv = value[a]
        got_rows, got_inv = new.get(a, _UNCHANGED)
        cand = 0
        for x in got_rows:
            cand |= 1 << x
        c = new.get(b)
        if c is None:
            c = value[b]
        else:
            d = c ^ value[b]
            while d:
                low = d & -d
                cand |= got_inv.get(low.bit_length() - 1, inv[low.bit_length() - 1])
                d ^= low
        s = value[i] & ~cand
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            row = got_rows.get(x, rows[x])
            if ((row & c) == row) if forall else row & c:
                s |= low
            cand ^= low
        return s

    def _equal(self, i, arg, kids, new):
        value = self._value
        a, b = kids
        got_a, got_b = new.get(a, _UNCHANGED)[0], new.get(b, _UNCHANGED)[0]
        rows_a, rows_b = value[a][0], value[b][0]
        s = value[i]
        for x in chain(got_a, got_b):
            if got_a.get(x, rows_a[x]) == got_b.get(x, rows_b[x]):
                s |= 1 << x
            else:
                s &= ~(1 << x)
        return s

    def _inverse(self, i, arg, kids, new):
        return new[kids[0]][::-1]

    def _closure(self, i, arg, kids, new):
        base, got = self._value[kids[0]][0], new[kids[0]][0]
        edges = [(x, r ^ base[x]) for x, r in got.items() if r != base[x]]
        if not edges:
            return None
        rows, inv = self._value[i]
        x, low = edges[0]
        if len(edges) == 1 and low & (low - 1) == 0:  # one edge (x, y)
            head = inv[x] | 1 << x  # x and the objects that reach it
            tail = rows[low.bit_length() - 1] | low  # y and the objects it reaches
            if got[x] & low:
                return _spread(rows, inv, head, tail, True)
            if not tail >> x & 1 and all(base[u] & (base[u] - 1) == 0 for u in _members(head)):
                return _spread(rows, inv, head, tail, False)
        return _closure_change([got.get(x, r) for x, r in enumerate(base)], rows, inv)

    def _count(self, i, boolean, kids, new):
        k = new[kids[0]].bit_count()
        return int(k == 1) if boolean else k

    def _distance(self, i, searches, kids, new):
        value = self._value
        s, r, x, t = kids
        sources, targets = new.get(s, value[s]), new.get(t, value[t])
        rows, got_rows = value[r][0], new.get(r, _UNCHANGED)[0]
        search = None if searches is None else searches.get(sources)
        if search is None:
            search = [[sources], sources]  # the levels so far, and their union
            if searches is not None:
                searches[sources] = search
        levels, d = search[0], 0
        while levels[d]:
            if levels[d] & targets:
                return d
            d += 1
            if d == len(levels):
                step = 0
                for y in _members(levels[-1]):
                    step |= got_rows.get(y, rows[y])
                levels.append(step & new.get(x, value[x]) & ~search[1])
                search[1] |= levels[-1]
        return self._n + 1


def _spread(rows, inv, head, tail, gain):
    """The change of a closure (`rows`, `inv`) whose objects `head` each gain,
    or lose, the objects `tail`; None if it keeps its value."""
    got_rows = {}
    for u in _members(head):
        r = rows[u] | tail if gain else rows[u] & ~tail
        if r != rows[u]:
            got_rows[u] = r
    if not got_rows:
        return None
    got_inv = {}
    for v in _members(tail):
        c = inv[v] | head if gain else inv[v] & ~head
        if c != inv[v]:
            got_inv[v] = c
    return got_rows, got_inv


def _closure_change(base, rows, inv):
    """The change of a closure (`rows`, `inv`) to the closure of the successor
    sets `base`, one breadth-first search per object; None if none."""
    closed = []
    for frontier in base:
        reach = 0
        while frontier:
            reach |= frontier
            step = 0
            for v in _members(frontier):
                step |= base[v]
            frontier = step & ~reach
        closed.append(reach)
    if closed == rows:
        return None
    return ({u: r for u, r in enumerate(closed) if r != rows[u]},
            {v: c for v, c in enumerate(_transpose(closed)) if c != inv[v]})


# The feature forms `DeltaContext` reads; the feature classes are declared in
# `features`, which imports this module.
_ATOM, _DIST = "Atom({})", "Dist({},{},{},{})"

# The rule of each compound class of concepts and roles, and its argument.
_RULES = {Not: (DeltaContext._not, None), And: (DeltaContext._and, None),
          Exists: (DeltaContext._quantifier, False), Forall: (DeltaContext._quantifier, True),
          RoleEqual: (DeltaContext._equal, None), InverseRole: (DeltaContext._inverse, None),
          ClosureRole: (DeltaContext._closure, None)}


def _rule(expr, static_preds) -> tuple:
    """(rule, argument) of a compound node of `DeltaContext`.  A distance
    over a state-independent role and restriction keeps the levels of its
    searches, by source set, in its argument."""
    got = _RULES.get(type(expr))
    if got is not None:
        return got
    if type(expr).form != _DIST:  # |C|
        return DeltaContext._count, expr.is_boolean
    fixed = all(state_independent(e, static_preds) for e in (expr.role, expr.restrict))
    return DeltaContext._distance, {} if fixed else None
