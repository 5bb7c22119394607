"""Parser, grounder and successor generator for a STRIPS fragment of PDDL.

Supported: ``:strips``, ``:typing`` (with type hierarchies), ``:constants``,
positive conjunctive preconditions and goals, add/delete effects.
Rejected with a positioned error: negative preconditions or goals,
conditional effects, quantifiers, disjunctions, equality atoms, numeric
fluents and action costs.

Grounding keeps only the atoms that can hold or are asked for: every
type-consistent atom of a dynamic predicate (one that some action adds or
deletes), the static atoms of the initial state, and the goal atoms.  The
actions are the bindings whose static preconditions hold in the initial
state, found by a join on those atoms.  Ids are stable across runs: atoms
are sorted lexicographically by (predicate, args) and actions by name.  A
state is a packed row of uint64 words over the dynamic atoms only; the
static atoms of the initial state hold in every state and are kept once
per instance.  A ground action is a name and the bits of its dynamic
preconditions, adds and deletes.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from genpol.errors import LimitExceededError, PddlError, UnsupportedPddlError

Atom = tuple  # ("on", "a", "b"); nullary atoms are 1-tuples

ROOT_TYPE = "object"

_UNSUPPORTED_HEADS = {
    "or": "disjunctive condition",
    "not": "negative condition",
    "imply": "implication",
    "exists": "existential quantifier",
    "forall": "universal quantifier",
    "when": "conditional effect",
    "=": "equality atom",
    "increase": "numeric effect",
    "decrease": "numeric effect",
    "assign": "numeric effect",
}


# ---------------------------------------------------------------------------
# S-expression reading
# ---------------------------------------------------------------------------

# A token: a parenthesis, or a run of characters other than parentheses,
# `;` and the whitespace " \t\r\n".  A `;` starts a comment that runs to
# the end of its line.  A text is read by one `findall` over it, without its
# comments and lower-cased, and a node of its tree keeps only the index of
# its token; the line and column of a token are found only when an error is
# raised at it, by one more scan (`_tokenize`, in `_positions`).
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")
_COMMENT = re.compile(r";[^\n]*")


def _tokenize(text: str):
    """(token, line, column) of each token of `text`, lower-cased, line and
    column from 1."""
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars.partition(";")[0]):
            yield m.group().lower(), line, m.start() + 1


class _Fault(Exception):
    """Error class, message and node of a `PddlError` that `_positions` raises."""


def _err(node: tuple, message: str, error=PddlError) -> _Fault:
    return _Fault(error, message, node)


@contextmanager
def _positions(text: str):
    """Raises each `_Fault` of the block as its error, with the line and
    column of its node's token in `text`, found by one more scan."""
    try:
        yield
    except _Fault as fault:
        error, message, node = fault.args
        line, col = next(itertools.islice(_tokenize(text), node[0], None))[1:]
        raise error(message, line, col) from None


def _read(text: str) -> tuple:
    """The tree of `text`: a node is (index of its token, the token), or for
    a form (index of its "(", list of its nodes)."""
    tokens = _TOKEN.findall(_COMMENT.sub("", text).lower())
    stack = []
    root = None
    with _positions(text):
        for at, tok in enumerate(tokens):
            if tok == "(":
                node = (at, [])
                if stack:
                    stack[-1][1].append(node)
                stack.append(node)
            elif tok == ")":
                if not stack:
                    raise _err((at,), "unbalanced ')'")
                node = stack.pop()
                if not stack:
                    if root is not None:
                        raise _err((at,), "trailing expression after top-level form")
                    root = node
            elif stack:
                stack[-1][1].append((at, tok))
            else:
                raise _err((at,), f"token '{tok}' outside any form")
        if stack:
            raise _err(stack[-1], "unbalanced '('")
    if root is None:
        raise PddlError("empty input", 1, 1)
    return root


def _head(node: tuple) -> str:
    value = node[1]
    if type(value) is not list or not value or type(value[0][1]) is list:
        raise _err(node, "expected a (head ...) form")
    return value[0][1]


def _name_of(node: tuple) -> str:
    """The name in a (head name) form, e.g. (domain gripper)."""
    if len(node[1]) != 2 or type(node[1][1][1]) is list:
        raise _err(node, f"expected ({_head(node)} <name>)")
    return node[1][1][1]


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    name: str
    arg_types: tuple

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple  # ((var, type), ...)
    pre: frozenset  # of Atom over variables ('?x') and constant names
    add: frozenset
    dele: frozenset


@dataclass
class DomainModel:
    name: str
    types: dict  # type name -> parent type name (ROOT_TYPE -> None)
    predicates: dict  # name -> Predicate
    constants: tuple  # ((name, type), ...)
    schemas: tuple

    def is_subtype(self, t: str, ancestor: str) -> bool:
        while t is not None:
            if t == ancestor:
                return True
            t = self.types.get(t)
        return False

    def high_arity_predicates(self) -> list:
        return sorted(p.name for p in self.predicates.values() if p.arity > 2)

    def static_predicates(self) -> frozenset:
        """The predicates no schema adds or deletes: their atoms are those
        of the initial state in every state."""
        return frozenset(self.predicates) - {
            a[0] for sc in self.schemas for a in sc.add | sc.dele}


@dataclass
class InstanceModel:
    name: str
    domain_name: str
    objects: tuple  # ((name, type), ...) including domain constants
    init: frozenset  # of Atom
    goal: frozenset  # of Atom
    goal_params: tuple = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_typed_list(nodes: list, what: str) -> list:
    """Parse 'a b - t c d - t2 e' into [(name, type), ...], default ROOT_TYPE."""
    out = []
    pending = []
    it = iter(nodes)
    for node in it:
        if type(node[1]) is list:
            raise _err(node, f"unexpected list in {what}")
        if node[1] == "-":
            tnode = next(it, None)
            if tnode is None:
                raise _err(node, f"dangling '-' in {what}")
            if type(tnode[1]) is list:
                raise _err(tnode, "compound types ('either') are not supported")
            out += [(name, tnode[1]) for name in pending]
            pending = []
        else:
            pending.append(node[1])
    return out + [(name, ROOT_TYPE) for name in pending]


def _parse_atoms(nodes: list, dom: DomainModel, scope: dict, context: str) -> list:
    """The atoms (predicate, *terms) of the atom forms `nodes`, checked in
    order; `scope` maps each symbol in scope (variable, constant or object)
    to its type.  A type is tested once per (symbol type, argument type)."""
    preds = dom.predicates
    fits: dict = {}
    out = []
    for node in nodes:
        value = node[1]
        if type(value) is not list or not value:
            raise _err(node, f"expected an atom in {context}")
        name = value[0][1]
        if type(name) is list:
            raise _err(node, "expected a (head ...) form")
        if name in _UNSUPPORTED_HEADS:
            raise _err(node, f"{_UNSUPPORTED_HEADS[name]} is not supported in {context}",
                       UnsupportedPddlError)
        pred = preds.get(name)
        if pred is None:
            raise _err(node, f"undeclared predicate '{name}'")
        types = pred.arg_types
        if len(value) != len(types) + 1:
            raise _err(node, f"predicate '{name}' expects {len(types)} arguments, "
                             f"got {len(value) - 1}")
        atom = [name]
        for anode, want in zip(value[1:], types):
            term = anode[1]
            if type(term) is list:
                raise _err(anode, "nested term in atom")
            have = scope.get(term)
            if have is None:
                kind = "variable" if term.startswith("?") else "object"
                raise _err(anode, f"undeclared {kind} '{term}' in {context}")
            fit = fits.get((have, want))
            if fit is None:
                fit = fits[have, want] = dom.is_subtype(have, want)
            if not fit:
                raise _err(anode, f"'{term}' has type '{have}', but '{name}' expects '{want}'")
            atom.append(term)
        out.append(tuple(atom))
    return out


def _conjuncts(node: tuple) -> list:
    """The nodes of an (and ...) form, or the one node of any other."""
    value = node[1]
    if type(value) is list and value and value[0][1] == "and":
        return value[1:]
    return [node]


def parse_domain(text: str) -> DomainModel:
    root = _read(text)
    with _positions(text):
        if _head(root) != "define":
            raise _err(root, "expected (define (domain ...) ...)")
        sections = root[1][1:]
        if not sections or _head(sections[0]) != "domain":
            raise _err(root, "first section must be (domain <name>)")
        name = _name_of(sections[0])

        types: dict = {ROOT_TYPE: None}
        predicates: dict = {}
        constants: list = []
        schemas: list = []

        for sec in sections[1:]:
            head = _head(sec)
            if head == ":requirements":
                continue  # supported fragment is enforced structurally below
            elif head == ":types":
                for tname, parent in _parse_typed_list(sec[1][1:], ":types"):
                    if tname == ROOT_TYPE and parent == ROOT_TYPE:
                        continue  # the root type, declared again
                    types[tname] = parent
                    types.setdefault(parent, ROOT_TYPE if parent != ROOT_TYPE else None)
            elif head == ":constants":
                constants.extend(_parse_typed_list(sec[1][1:], ":constants"))
            elif head == ":predicates":
                for pnode in sec[1][1:]:
                    pname = _head(pnode)
                    if pname in predicates:
                        raise _err(pnode, f"duplicate predicate '{pname}'")
                    args = _parse_typed_list(pnode[1][1:], f"predicate '{pname}'")
                    predicates[pname] = Predicate(pname, tuple(t for _, t in args))
            elif head == ":functions":
                raise _err(sec, "numeric fluents are not supported", UnsupportedPddlError)
            elif head == ":action":
                schemas.append(sec)  # parsed after predicates are known
            else:
                raise _err(sec, f"unsupported section '{head}'", UnsupportedPddlError)

        for tname in types:
            seen, t = set(), tname
            while t is not None:
                if t in seen:
                    raise PddlError(f"type '{tname}' is its own ancestor")
                seen.add(t)
                t = types[t]

        dom = DomainModel(name, types, predicates, tuple(constants), ())
        for cname, ctype in constants:
            if ctype not in types:
                raise PddlError(f"constant '{cname}' has undeclared type '{ctype}'")
        for pred in predicates.values():
            for t in pred.arg_types:
                if t not in types:
                    raise PddlError(f"predicate '{pred.name}' uses undeclared type '{t}'")

        const_types = dict(constants)
        dom.schemas = tuple(_parse_schema(sec, dom, const_types) for sec in schemas)
        return dom


def _parse_schema(sec: tuple, dom: DomainModel, const_types: dict) -> ActionSchema:
    items = sec[1][1:]
    if not items or type(items[0][1]) is list:
        raise _err(sec, "missing action name")
    aname = items[0][1]
    params: list = []
    pre = add = dele = None
    for i in range(1, len(items), 2):
        key, word = items[i], items[i][1]
        if type(word) is list or not word.startswith(":"):
            raise _err(key, f"expected keyword in action '{aname}'")
        if i + 1 >= len(items):
            raise _err(key, f"missing value for {word}")
        val = items[i + 1]
        scope = dict(const_types)
        scope.update(params)
        if word == ":parameters":
            if type(val[1]) is not list:
                raise _err(val, f"expected a parameter list in action '{aname}'")
            params = _parse_typed_list(val[1], ":parameters")
            for var, ptype in params:
                if not var.startswith("?"):
                    raise _err(val, f"parameter '{var}' must start with '?'")
                if ptype not in dom.types:
                    raise _err(val, f"parameter '{var}' has undeclared type '{ptype}'")
        elif word == ":precondition":
            pre = _parse_atoms(_conjuncts(val), dom, scope, f"precondition of '{aname}'")
        elif word == ":effect":
            add, dele = [], []
            for lit in _conjuncts(val):
                value = lit[1]
                if type(value) is list and value and value[0][1] == "not":
                    if len(value) != 2:
                        raise _err(lit, "(not ...) takes exactly one atom")
                    dele += _parse_atoms(value[1:], dom, scope, f"effect of '{aname}'")
                else:
                    add += _parse_atoms([lit], dom, scope, f"effect of '{aname}'")
        else:
            raise _err(key, f"unsupported action field '{word}'", UnsupportedPddlError)
    if pre is None or add is None:
        raise _err(sec, f"action '{aname}' needs :precondition and :effect")
    return ActionSchema(aname, tuple(params), frozenset(pre),
                        frozenset(add), frozenset(dele))


def parse_instance(text: str, dom: DomainModel, goal_params=()) -> InstanceModel:
    """The instance of `text` over `dom`.  Its names are lower-cased, as
    are those of `goal_params`, the objects that nominals "goal0",
    "goal1", ... name."""
    root = _read(text)
    goal_params = tuple(p.lower() for p in goal_params)
    with _positions(text):
        if _head(root) != "define":
            raise _err(root, "expected (define (problem ...) ...)")
        sections = root[1][1:]
        if not sections or _head(sections[0]) != "problem":
            raise _err(root, "first section must be (problem <name>)")
        name = _name_of(sections[0])

        domain_name = None
        objects: list = list(dom.constants)
        init: list = []
        goal_node = None

        for sec in sections[1:]:
            head = _head(sec)
            if head == ":domain":
                domain_name = _name_of(sec)
            elif head == ":objects":
                objects.extend(_parse_typed_list(sec[1][1:], ":objects"))
            elif head == ":requirements":
                continue
            elif head == ":init":
                init.extend(sec[1][1:])
            elif head == ":goal":
                if len(sec[1]) != 2:
                    raise _err(sec, "(:goal ...) takes exactly one formula")
                goal_node = sec[1][1]
            elif head in (":metric", ":length"):
                raise _err(sec, f"'{head}' is not supported", UnsupportedPddlError)
            else:
                raise _err(sec, f"unsupported section '{head}'", UnsupportedPddlError)

        if domain_name is not None and domain_name != dom.name:
            raise PddlError(f"instance '{name}' is for domain '{domain_name}', "
                            f"not '{dom.name}'")
        scope = {}
        for oname, otype in objects:
            if otype not in dom.types:
                raise PddlError(f"object '{oname}' has undeclared type '{otype}'")
            if oname in scope:
                raise PddlError(f"duplicate object '{oname}'")
            scope[oname] = otype

        init = _parse_atoms(init, dom, scope, ":init")
        if goal_node is None:
            raise PddlError(f"instance '{name}' has no goal")
        goal = _parse_atoms(_conjuncts(goal_node), dom, scope, ":goal")

        for gp in goal_params:
            if gp not in scope:
                raise PddlError(f"goal parameter '{gp}' is not an object of instance '{name}'")
        return InstanceModel(name, dom.name, tuple(objects), frozenset(init), frozenset(goal),
                             goal_params)


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

# Rows times actions tested at once by `GroundProblem.transitions`; bounds
# its uint64 [rows, actions] temporary to 2 MB on large frontiers.
_APPLICABLE_BLOCK = 1 << 18

_ONE = np.ones(1, dtype=np.uint64)  # `_held` appends it: bit 64 * words


@dataclass
class GroundProblem:
    """A fully grounded instance with deterministic atom/action ids.

    `atoms` are every type-consistent atom of a dynamic predicate, the
    static atoms of the initial state (`static_atoms`) and the goal atoms,
    sorted; a static atom false in the initial state exists only if the
    goal names it.  A state is a packed row, uint64 [words]: dynamic atom k
    holds when bit k % 64 of word k // 64 is set.  The dynamic atoms are
    numbered in atom id order (`dynamic` maps a bit to its atom id);
    `words` is at least one.  Bit k is the atom of predicate
    `predicates[dynamic_pred[k]]` over the objects `dynamic_args[k]` (ids in
    `objects`; -1 past its arity, in at least two columns), computed as
    `_Binder._dynamic_ids` computes ids.  An action is its name and three
    int64 [actions, k] arrays of bits: action id i is named `actions[i]`,
    and rows i of `pre_bits`, `add_bits` and `del_bits` hold its dynamic
    preconditions, adds and deletes (the adds and deletes are disjoint),
    padded with bit 64 * words, which is no atom; k is the most any one
    schema has.  Its static preconditions hold, or `ground` would have
    dropped it.  Each action is keyed by one dynamic precondition bit
    (`pre_key`), the one the fewest actions require, the lowest on ties; an
    action without one gets bit 64 * words.  `successors` of one row sets
    that bit on the row, reads each action's key bit there, and tests the
    other bits of only the actions whose key it holds (as in Helmert, JAIR
    2006); `apply` builds the successor row of one action from its bits.
    `transitions` tests all actions on blocks of rows, and builds every
    successor row, through the packed masks `pre_masks`, `add_masks` and
    `del_masks`, uint64 [actions, words], built from the bits on first use.
    """

    domain: DomainModel
    instance: InstanceModel
    atoms: list  # id -> Atom
    actions: list  # id -> action name, e.g. "move(rooma,roomb)"
    init: np.ndarray  # packed row of the initial state
    goal: frozenset  # atom ids
    objects: list  # sorted object names
    object_types: dict  # name -> type
    dynamic: np.ndarray  # bit -> atom id (int64, ascending)
    static_atoms: frozenset  # ids of the static atoms, true in every state
    pre_bits: np.ndarray  # int64 [actions, k], padded with 64 * words
    add_bits: np.ndarray
    del_bits: np.ndarray
    goal_mask: np.ndarray  # packed row of the dynamic goal atoms
    goal_static: bool  # whether the static goal atoms hold
    pre_key: np.ndarray  # action -> its key bit (int64)
    predicates: list  # predicate id -> name, sorted
    dynamic_pred: np.ndarray  # bit -> its atom's predicate id (int64)
    dynamic_args: np.ndarray  # int64 [bits, a]: bit -> its atom's object ids, -1 past its arity

    @cached_property
    def pre_masks(self) -> np.ndarray:
        return _pack(self.pre_bits, self.words)

    @cached_property
    def add_masks(self) -> np.ndarray:
        return _pack(self.add_bits, self.words)

    @cached_property
    def del_masks(self) -> np.ndarray:
        return _pack(self.del_bits, self.words)

    @cached_property
    def _pre_words(self) -> list:
        """Per word, the actions with preconditions in it and their masks
        there: `transitions` tests only these."""
        ids = [np.flatnonzero(self.pre_masks[:, w]) for w in range(self.words)]
        return [(w, slice(None) if len(i) == len(self.actions) else i, self.pre_masks[i, w])
                for w, i in enumerate(ids) if len(i)]

    @property
    def words(self) -> int:
        return len(self.init)

    def is_goal(self, rows) -> np.ndarray:
        """Whether each packed row (or the one row) satisfies the goal."""
        return self.goal_static & ((rows & self.goal_mask) == self.goal_mask).all(axis=-1)

    def transitions(self, rows: np.ndarray) -> tuple:
        """Every transition out of the packed rows [n, words], n >= 1: arrays
        of the row index, the action id and the successor row, in (row,
        action id) order.  One mask test covers a block of rows and all
        actions."""
        n_actions = len(self.actions)
        step = max(1, _APPLICABLE_BLOCK // max(1, n_actions))
        at, aids = [], []
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            ok = np.ones((len(block), n_actions), dtype=bool)
            for w, cols, pre in self._pre_words:
                ok[:, cols] &= (block[:, w, None] & pre) == pre
            row, aid = np.divmod(np.flatnonzero(ok), n_actions)
            at.append(row + lo)
            aids.append(aid)
        at, aids = np.concatenate(at), np.concatenate(aids)
        return at, aids, (rows[at] & ~self.del_masks[aids]) | self.add_masks[aids]

    def successors(self, row: np.ndarray) -> np.ndarray:
        """The ids of the actions applicable in one row, ascending: those of
        `transitions(row[None])`."""
        held = self._held(row)
        aids = np.flatnonzero(held[self.pre_key])
        return aids[held[self.pre_bits[aids]].all(axis=1)]

    def apply(self, row: np.ndarray, aid: int) -> np.ndarray:
        """The successor row of one row by action `aid`: its delete bits
        cleared, then its add bits set."""
        held = self._held(row)
        held[self.del_bits[aid]] = 0
        held[self.add_bits[aid]] = 1
        packed = np.packbits(held[:-64], bitorder="little")
        return packed.view("<u8").astype(np.uint64, copy=False)

    @staticmethod
    def _held(row: np.ndarray) -> np.ndarray:
        """uint8 [64 * (words + 1)]: the row's bits, then bit 64 * words set."""
        return np.unpackbits(np.concatenate((row, _ONE)).astype("<u8", copy=False)
                             .view(np.uint8), bitorder="little")

def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """Packed rows, uint64 [n, words], of the bits int64 [n, k] of each row;
    bit 64 * words sets nothing."""
    out = np.zeros((len(bits), words), dtype=np.uint64)
    rows = np.repeat(np.arange(len(bits)), bits.shape[1])
    bits = bits.ravel()
    on = bits < 64 * words
    bits = bits[on]
    np.bitwise_or.at(out, (rows[on], bits >> 6),
                     np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)))
    return out


def _key_bits(pre_bits: np.ndarray, words: int) -> np.ndarray:
    """Each action's key bit (see `GroundProblem`) from its precondition
    bits, read a column at a time, as reducing rows of a few bits is slow."""
    none = 64 * words
    bits = pre_bits.copy()
    for j in range(1, bits.shape[1]):  # an atom required twice counts once
        for i in range(j):
            bits[bits[:, i] == bits[:, j], j] = none
    count = np.bincount(bits.ravel(), minlength=none + 1)
    never = (len(pre_bits) + 1) * (none + 1)
    best = np.full(len(pre_bits), never)
    for col in bits.T:
        np.minimum(best, np.where(col < none, count[col] * (none + 1) + col, never), out=best)
    return np.where(best < never, best % (none + 1), none)


def _objects_by_type(dom: DomainModel, inst: InstanceModel) -> dict:
    by_type: dict = {t: [] for t in dom.types}
    for oname, t in inst.objects:
        while t is not None:
            by_type[t].append(oname)
            t = dom.types.get(t)
    return {t: sorted(names) for t, names in by_type.items()}


def _by_predicate(atoms) -> dict:
    """Predicate -> its atoms among `atoms`, sorted."""
    return {p: list(group) for p, group in itertools.groupby(sorted(atoms), itemgetter(0))}


def _tuples(columns: list, n: int) -> list:
    """The n rows of the `columns` as tuples, () each when there are none."""
    return list(zip(*columns)) if columns else [()] * n


class _Binder:
    """Grounds action schemas against one instance's atoms.

    Objects are numbered by name.  A schema is compiled into templates: each
    atom becomes (predicate, slots), where slot i names parameter i for i < k
    (the schema's k parameters) and constant i - k after that.  The atom
    ids of a template over a dynamic predicate are arithmetic: that
    predicate's atoms are the product of its argument types' objects, in
    order and consecutive among the atom ids from `start[predicate]`.
    Static templates are matched against the static atoms of the initial
    state, which the join also draws parameters from; they have no bit, and
    take the id `none`.
    """

    def __init__(self, dom, objects, pools, start, static_preds, static_init, none):
        self.dom = dom
        self.static_preds = static_preds
        self.n_objects = len(objects)
        self._named = {end: np.array([o + end for o in objects], dtype=object) for end in ",)"}
        self.pools = pools
        self.start = start
        self.none = none
        self._rank: dict = {}
        self._by_others: dict = {}  # (predicate, position) -> `_candidates`
        # Per static predicate, its atoms of the initial state: the object
        # ids at each position (`columns`) and the atoms as tuples of them.
        index = self.index = dict(zip(objects, range(len(objects))))
        self.columns, self.held = {}, {}
        for pred, group in static_init.items():
            cols = self.columns[pred] = [list(map(index.__getitem__, names))
                                         for names in list(zip(*group))[1:]]
            self.held[pred] = set(_tuples(cols, len(group)))

    def bind(self, sc: ActionSchema, room: int) -> tuple:
        """The names and the atom ids of the pre, add and delete templates,
        int64 [n, c] each, of the first room + 1 bindings of `sc` under which
        its static preconditions hold (see `_join`)."""
        k = len(sc.params)
        pre, add, dele, consts = self._compile(sc)
        statics = [t for t in pre if t[0] in self.static_preds]
        rows = self._join([t for _, t in sc.params], consts, statics, room)[:room + 1]
        column = lambda s: rows[:, s] if s < k else consts[s - k]

        def ids(templates):
            out = np.full((len(rows), len(templates)), self.none, dtype=np.int64)
            for c, t in enumerate(templates):
                if t[0] not in self.static_preds:
                    out[:, c] = self._dynamic_ids(t, column)
            return out

        # A name is the schema's and "(", then each parameter's object and a
        # "," or, after the last, a ")".
        parts = [self._named["," if i + 1 < k else ")"][rows[:, i]].tolist() for i in range(k)]
        names = list(map("".join, zip([f"{sc.name}({')' * (not k)}"] * len(rows), *parts)))
        return names, ids(pre), ids(add), ids(dele)

    def _compile(self, sc: ActionSchema) -> tuple:
        """(pre, add, dele, consts): the schema's atoms as templates, sorted,
        and the object id of each constant slot."""
        slot = {v: i for i, (v, _) in enumerate(sc.params)}
        consts = []

        def templates(atoms):
            out = []
            for atom in sorted(atoms):
                for term in atom[1:]:
                    if term not in slot:
                        slot[term] = len(slot)
                        consts.append(self.index[term])
                out.append((atom[0], tuple(slot[term] for term in atom[1:])))
            return out

        return templates(sc.pre), templates(sc.add), templates(sc.dele), consts

    def _dynamic_ids(self, template, column) -> np.ndarray:
        """Ids of a dynamic-predicate template's atoms, given each slot's
        object ids (`column`: slot -> int64 [n] or one object id)."""
        pred, slots = template
        ids, stride = self.start[pred], 1
        for s, t in zip(reversed(slots), reversed(self.dom.predicates[pred].arg_types)):
            ids = ids + self._ranks(t)[column(s)] * stride
            stride *= len(self.pools[t])
        return ids

    def _ranks(self, t: str) -> np.ndarray:
        """int64 [objects]: each object's rank among those of type t, or -1."""
        if t not in self._rank:
            self._rank[t] = np.full(self.n_objects, -1, dtype=np.int64)
            self._rank[t][self.pools[t]] = np.arange(len(self.pools[t]))
        return self._rank[t]

    def _candidates(self, pred: str, pos: int) -> dict:
        """The static atoms of `pred` in the initial state by their objects
        other than the one at `pos`: that tuple -> the objects at `pos`."""
        got = self._by_others.get((pred, pos))
        if got is None:
            got = self._by_others[pred, pos] = {}
            cols = self.columns.get(pred, [[]] * (pos + 1))
            for key, obj in zip(_tuples(cols[:pos] + cols[pos + 1:], len(cols[pos])), cols[pos]):
                got.setdefault(key, []).append(obj)
        return got

    def _join(self, types, consts, statics, room) -> np.ndarray:
        """int64 [n, k + c]: the slots' object ids (parameters, then
        constants) of each binding under which every static template holds,
        all rows at once.  Each step binds one parameter: from the
        candidates of an open static template whose other slots are bound,
        so that it holds by construction, or else from the parameter's
        type; then the templates whose slots are all bound are tested.  Once
        no template is open no step drops a row, so a step from a type first
        drops the rows past those of the first room + 1 bindings."""
        k, n_slots = len(types), len(types) + len(consts)
        rows = np.array([[0] * k + consts], dtype=np.int64)
        bound, open_ = set(range(k, n_slots)), list(range(len(statics)))
        while True:
            for j in [j for j in open_ if bound.issuperset(statics[j][1])]:
                open_.remove(j)
                pred, ss = statics[j]
                keys = _tuples([rows[:, s].tolist() for s in ss], len(rows))
                rows = rows[np.fromiter(map(self.held.get(pred, set()).__contains__, keys),
                                        dtype=bool, count=len(rows))]
            if len(bound) == n_slots:
                return rows
            source = next(((j, pos) for j in open_ for pos in range(len(statics[j][1]))
                           if bound.issuperset(statics[j][1][:pos] + statics[j][1][pos + 1:])),
                          None)
            if source is None:
                p = min(set(range(k)) - bound)
                pool = self.pools[types[p]]
                if not open_:
                    rows = rows[:-(-(room + 1) // max(1, len(pool)))]
                n = len(rows)
                rows = np.repeat(rows, len(pool), axis=0)
                rows[:, p] = np.tile(pool, n)
            else:
                j, pos = source
                open_.remove(j)
                pred, ss = statics[j]
                p = ss[pos]
                keys = _tuples([rows[:, s].tolist() for s in ss[:pos] + ss[pos + 1:]], len(rows))
                got = list(map(self._candidates(pred, pos).get, keys, itertools.repeat(())))
                rows = np.repeat(rows, np.fromiter(map(len, got), np.int64, len(got)), axis=0)
                rows[:, p] = np.fromiter(itertools.chain.from_iterable(got), np.int64, len(rows))
                rows = rows[self._ranks(types[p])[rows[:, p]] >= 0]
            bound.add(p)


def ground(dom: DomainModel, inst: InstanceModel, max_actions: int = 10**6) -> GroundProblem:
    """Ground the atoms that can hold and the actions that can apply.

    The atoms are every type-consistent atom of a dynamic predicate (one
    that some schema adds or deletes), the static atoms of the initial
    state and the goal atoms.  The actions are the bindings of each schema's
    parameters to objects of their types under which its static
    preconditions hold in the initial state; no other binding can ever
    apply.  Delete effects shadowed by an add of the same atom are removed,
    so the add and delete bits of every ground action are disjoint.
    """
    preds = dom.predicates
    by_type = _objects_by_type(dom, inst)
    members = {t: frozenset(names) for t, names in by_type.items()}
    init_of, goal_of = _by_predicate(inst.init), _by_predicate(inst.goal)
    for what, groups in (("init", init_of), ("goal", goal_of)):
        for name, group in groups.items():
            sets = [members[t] for t in preds[name].arg_types] if name in preds else None
            bad = group if sets is None else [a for a in group if len(a) != len(sets) + 1
                                              or not all(map(frozenset.__contains__, sets, a[1:]))]
            if bad:
                raise PddlError(f"{what} atom {bad[0]} is not type-consistent")

    static_preds = dom.static_predicates()
    static_init = {p: group for p, group in init_of.items() if p in static_preds}
    objects = sorted(map(itemgetter(0), inst.objects))
    index = dict(zip(objects, range(len(objects))))
    pools = {t: np.array(list(map(index.__getitem__, names)), dtype=np.int64)
             for t, names in by_type.items()}
    # The atoms, by predicate in name order: the static ones of the initial
    # state and the goal, sorted, or the product of a dynamic predicate's
    # argument types, whose object ids are the columns of `args`.
    predicates = sorted(preds)
    atoms, start, dynamic, pred_of, args = [], {}, [], [], []
    width = max([2] + [p.arity for p in preds.values()])
    for i, name in enumerate(predicates):
        start[name] = len(atoms)
        if name in static_preds:
            atoms += sorted(set(init_of.get(name, [])).union(goal_of[name])) \
                if name in goal_of else init_of.get(name, [])
            continue
        types = preds[name].arg_types
        atoms += itertools.product((name,), *(by_type[t] for t in types))
        sizes = [len(pools[t]) for t in types]
        n = len(atoms) - start[name]
        dynamic.append(np.arange(start[name], len(atoms)))
        pred_of.append(np.full(n, i))
        args.append(np.full((n, width), -1))
        for j, t in enumerate(types):
            args[-1][:, j] = np.tile(np.repeat(pools[t], math.prod(sizes[j + 1:])),
                                     math.prod(sizes[:j]))
    atom_id = dict(zip(atoms, range(len(atoms))))
    dynamic = np.concatenate(dynamic + [np.zeros(0, dtype=np.int64)])
    words = max(1, -(-len(dynamic) // 64))
    # Atom id -> bit, 64 * words for a static atom and for id len(atoms).
    to_bit = np.full(len(atoms) + 1, 64 * words, dtype=np.int64)
    to_bit[dynamic] = np.arange(len(dynamic))

    binder = _Binder(dom, objects, pools, start, static_preds, static_init, len(atoms))
    actions, bound = [], []
    for sc in sorted(dom.schemas, key=lambda s: s.name):
        names, pre, add, dele = binder.bind(sc, max_actions - len(actions))
        if len(actions) + len(names) > max_actions:
            raise LimitExceededError(
                f"more than {max_actions} ground actions in '{inst.name}'")
        actions += names
        for col in add.T:  # a delete shadowed by an add is none
            dele[dele == col[:, None]] = len(atoms)
        bound.append((pre, add, dele))
    order = sorted(range(len(actions)), key=actions.__getitem__)
    actions = list(map(actions.__getitem__, order))
    rank = np.empty(len(actions), dtype=np.int64)
    rank[order] = np.arange(len(actions))

    def spread(kind):
        """The bits of one kind of template, int64 [actions, k], by action id."""
        out = np.full((len(actions), max((b[kind].shape[1] for b in bound), default=0)),
                      64 * words, dtype=np.int64)
        first = 0
        for templates in bound:
            ids = templates[kind]
            out[rank[first:first + len(ids)], :ids.shape[1]] = to_bit[ids]
            first += len(ids)
        return out

    pack_set = lambda ids: _pack(to_bit[np.fromiter(ids, dtype=np.int64, count=len(ids))][None],
                                 words)[0]
    init = frozenset(map(atom_id.__getitem__, inst.init))
    goal = frozenset(map(atom_id.__getitem__, inst.goal))
    static_atoms = frozenset(map(atom_id.__getitem__, itertools.chain(*static_init.values())))
    pre_bits = spread(0)
    return GroundProblem(
        domain=dom,
        instance=inst,
        atoms=atoms,
        actions=actions,
        init=pack_set(init),
        goal=goal,
        objects=objects,
        object_types=dict(inst.objects),
        dynamic=dynamic,
        static_atoms=static_atoms,
        pre_bits=pre_bits,
        add_bits=spread(1),
        del_bits=spread(2),
        goal_mask=pack_set(goal),
        goal_static=all(set(group) <= set(init_of.get(p, ())) for p, group in goal_of.items()
                        if p in static_preds),
        pre_key=_key_bits(pre_bits, words),
        predicates=predicates,
        dynamic_pred=np.concatenate(pred_of + [np.zeros(0, dtype=np.int64)]),
        dynamic_args=np.concatenate(args + [np.zeros((0, width), dtype=np.int64)]),
    )
