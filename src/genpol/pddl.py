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

import bisect
import itertools
import re
from dataclasses import dataclass
from functools import cached_property

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
# S-expression reading with source positions
# ---------------------------------------------------------------------------

class _Node:
    """Either a list of nodes or an atom token, tagged with line/col."""

    __slots__ = ("value", "line", "col")

    def __init__(self, value, line, col):
        self.value = value
        self.line = line
        self.col = col

    @property
    def is_list(self):
        return isinstance(self.value, list)


# A token: a parenthesis, or a run of characters other than parentheses,
# `;` and the whitespace " \t\r" (lines are split on "\n").
_TOKEN = re.compile(r"[()]|[^ \t\r();]+")


def _tokenize(text: str):
    """(token, line, column) of each token of `text`, lower-cased, line and
    column from 1; a `;` starts a comment that runs to the end of its line."""
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars.partition(";")[0]):
            yield m.group().lower(), line, m.start() + 1


def _read(text: str) -> _Node:
    stack = []
    root = None
    for tok, line, col in _tokenize(text):
        if tok == "(":
            node = _Node([], line, col)
            if stack:
                stack[-1].value.append(node)
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise PddlError("unbalanced ')'", line, col)
            node = stack.pop()
            if not stack:
                if root is not None:
                    raise PddlError("trailing expression after top-level form", line, col)
                root = node
        else:
            if not stack:
                raise PddlError(f"token '{tok}' outside any form", line, col)
            stack[-1].value.append(_Node(tok, line, col))
    if stack:
        raise PddlError("unbalanced '('", stack[-1].line, stack[-1].col)
    if root is None:
        raise PddlError("empty input", 1, 1)
    return root


def _err(node: _Node, message: str) -> PddlError:
    return PddlError(message, node.line, node.col)


def _head(node: _Node) -> str:
    if not node.is_list or not node.value or node.value[0].is_list:
        raise _err(node, "expected a (head ...) form")
    return node.value[0].value


def _name_of(node: _Node) -> str:
    """The name in a (head name) form, e.g. (domain gripper)."""
    if len(node.value) != 2 or node.value[1].is_list:
        raise _err(node, f"expected ({_head(node)} <name>)")
    return node.value[1].value


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
class SchemaAtom:
    pred: str
    args: tuple  # variables ('?x') or constant names


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple  # ((var, type), ...)
    pre: frozenset
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
            a.pred for sc in self.schemas for a in sc.add | sc.dele}


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
        if node.is_list:
            raise _err(node, f"unexpected list in {what}")
        if node.value == "-":
            try:
                tnode = next(it)
            except StopIteration:
                raise _err(node, f"dangling '-' in {what}") from None
            if tnode.is_list:
                raise _err(tnode, "compound types ('either') are not supported")
            for name in pending:
                out.append((name, tnode.value))
            pending = []
        else:
            pending.append(node.value)
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _check_unsupported(node: _Node, context: str):
    if node.is_list and node.value:
        head = node.value[0]
        if not head.is_list and head.value in _UNSUPPORTED_HEADS:
            raise UnsupportedPddlError(
                f"{_UNSUPPORTED_HEADS[head.value]} is not supported in {context}",
                node.line, node.col)


def _parse_atom(node: _Node, dom: DomainModel, allowed: dict, context: str) -> SchemaAtom:
    """allowed: name -> type for the symbols (vars/constants/objects) in scope."""
    _check_unsupported(node, context)
    if not node.is_list or not node.value:
        raise _err(node, f"expected an atom in {context}")
    name = _head(node)
    pred = dom.predicates.get(name)
    if pred is None:
        raise _err(node, f"undeclared predicate '{name}'")
    args = node.value[1:]
    if len(args) != pred.arity:
        raise _err(node, f"predicate '{name}' expects {pred.arity} arguments, got {len(args)}")
    terms = []
    for anode, want in zip(args, pred.arg_types):
        if anode.is_list:
            raise _err(anode, "nested term in atom")
        term = anode.value
        if term not in allowed:
            kind = "variable" if term.startswith("?") else "object"
            raise _err(anode, f"undeclared {kind} '{term}' in {context}")
        if not dom.is_subtype(allowed[term], want):
            raise _err(anode, f"'{term}' has type '{allowed[term]}', "
                              f"but '{name}' expects '{want}'")
        terms.append(term)
    return SchemaAtom(name, tuple(terms))


def _parse_conjunction(node: _Node, dom, allowed, context) -> list:
    if node.is_list and node.value and not node.value[0].is_list \
            and node.value[0].value == "and":
        return [_parse_atom(child, dom, allowed, context) for child in node.value[1:]]
    return [_parse_atom(node, dom, allowed, context)]


def parse_domain(text: str) -> DomainModel:
    root = _read(text)
    if _head(root) != "define":
        raise _err(root, "expected (define (domain ...) ...)")
    sections = root.value[1:]
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
            for tname, parent in _parse_typed_list(sec.value[1:], ":types"):
                if tname == ROOT_TYPE and parent == ROOT_TYPE:
                    continue  # the root type, declared again
                types[tname] = parent
                types.setdefault(parent, ROOT_TYPE if parent != ROOT_TYPE else None)
        elif head == ":constants":
            constants.extend(_parse_typed_list(sec.value[1:], ":constants"))
        elif head == ":predicates":
            for pnode in sec.value[1:]:
                pname = _head(pnode)
                if pname in predicates:
                    raise _err(pnode, f"duplicate predicate '{pname}'")
                args = _parse_typed_list(pnode.value[1:], f"predicate '{pname}'")
                predicates[pname] = Predicate(pname, tuple(t for _, t in args))
        elif head == ":functions":
            raise UnsupportedPddlError("numeric fluents are not supported",
                                       sec.line, sec.col)
        elif head == ":action":
            schemas.append(sec)  # parsed after predicates are known
        else:
            raise UnsupportedPddlError(f"unsupported section '{head}'", sec.line, sec.col)

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

    parsed = []
    const_types = dict(constants)
    for sec in schemas:
        parsed.append(_parse_schema(sec, dom, const_types))
    dom.schemas = tuple(parsed)
    return dom


def _parse_schema(sec: _Node, dom: DomainModel, const_types: dict) -> ActionSchema:
    items = sec.value[1:]
    if not items or items[0].is_list:
        raise _err(sec, "missing action name")
    aname = items[0].value
    params: list = []
    pre = add = dele = None
    i = 1
    while i < len(items):
        key = items[i]
        if key.is_list or not key.value.startswith(":"):
            raise _err(key, f"expected keyword in action '{aname}'")
        if i + 1 >= len(items):
            raise _err(key, f"missing value for {key.value}")
        val = items[i + 1]
        if key.value == ":parameters":
            if not val.is_list:
                raise _err(val, f"expected a parameter list in action '{aname}'")
            params = _parse_typed_list(val.value, ":parameters")
            for var, ptype in params:
                if not var.startswith("?"):
                    raise _err(val, f"parameter '{var}' must start with '?'")
                if ptype not in dom.types:
                    raise _err(val, f"parameter '{var}' has undeclared type '{ptype}'")
        elif key.value == ":precondition":
            scope = dict(const_types)
            scope.update(params)
            pre = _parse_conjunction(val, dom, scope, f"precondition of '{aname}'")
        elif key.value == ":effect":
            scope = dict(const_types)
            scope.update(params)
            add, dele = _parse_effect(val, dom, scope, aname)
        else:
            raise UnsupportedPddlError(f"unsupported action field '{key.value}'",
                                       key.line, key.col)
        i += 2
    if pre is None or add is None:
        raise _err(sec, f"action '{aname}' needs :precondition and :effect")
    return ActionSchema(aname, tuple(params), frozenset(pre),
                        frozenset(add), frozenset(dele))


def _parse_effect(node: _Node, dom, scope, aname):
    context = f"effect of '{aname}'"
    literals = node.value[1:] if (node.is_list and node.value
                                  and not node.value[0].is_list
                                  and node.value[0].value == "and") else [node]
    add, dele = [], []
    for lit in literals:
        if lit.is_list and lit.value and not lit.value[0].is_list \
                and lit.value[0].value == "not":
            if len(lit.value) != 2:
                raise _err(lit, "(not ...) takes exactly one atom")
            dele.append(_parse_atom(lit.value[1], dom, scope, context))
        else:
            add.append(_parse_atom(lit, dom, scope, context))
    return add, dele


def parse_instance(text: str, dom: DomainModel, goal_params=()) -> InstanceModel:
    root = _read(text)
    if _head(root) != "define":
        raise _err(root, "expected (define (problem ...) ...)")
    sections = root.value[1:]
    if not sections or _head(sections[0]) != "problem":
        raise _err(root, "first section must be (problem <name>)")
    name = _name_of(sections[0])

    domain_name = None
    objects: list = list(dom.constants)
    init: list = []
    goal: list = []
    goal_node = None

    for sec in sections[1:]:
        head = _head(sec)
        if head == ":domain":
            domain_name = _name_of(sec)
        elif head == ":objects":
            objects.extend(_parse_typed_list(sec.value[1:], ":objects"))
        elif head == ":requirements":
            continue
        elif head == ":init":
            init.extend(sec.value[1:])
        elif head == ":goal":
            if len(sec.value) != 2:
                raise _err(sec, "(:goal ...) takes exactly one formula")
            goal_node = sec.value[1]
        elif head in (":metric", ":length"):
            raise UnsupportedPddlError(f"'{head}' is not supported", sec.line, sec.col)
        else:
            raise UnsupportedPddlError(f"unsupported section '{head}'", sec.line, sec.col)

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

    init_atoms = [_parse_atom(node, dom, scope, ":init") for node in init]
    if goal_node is None:
        raise PddlError(f"instance '{name}' has no goal")
    goal = _parse_conjunction(goal_node, dom, scope, ":goal")

    for gp in goal_params:
        if gp not in scope:
            raise PddlError(f"goal parameter '{gp}' is not an object of instance '{name}'")

    to_atom = lambda sa: (sa.pred, *sa.args)
    return InstanceModel(name, dom.name, tuple(objects),
                         frozenset(map(to_atom, init_atoms)),
                         frozenset(map(to_atom, goal)),
                         tuple(goal_params))


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
    `words` is at least one.  An action is its name and three int64
    [actions, k] arrays of bits: action id i is named `actions[i]`, and
    rows i of `pre_bits`, `add_bits` and `del_bits` hold its dynamic
    preconditions, adds and deletes (the adds and deletes are disjoint),
    padded with bit 64 * words, which is no atom; k is the most any one
    schema has.  Its static preconditions hold, or `ground` would have
    dropped it.  Each action is keyed by one dynamic precondition bit
    (`pre_key`), the one the fewest actions require, the lowest on ties; an
    action without one gets bit 64 * words.  `successors` of one row sets
    that bit on the row and tests only the actions keyed by bits the row
    holds (as in Helmert, JAIR 2006), reading their bits, and returns their
    ids; `apply` builds the successor row of one action from its bits.
    `transitions` tests all actions on blocks of rows, and builds every
    successor row, through the packed masks `pre_masks`, `add_masks` and
    `del_masks`, uint64 [actions, words], which are built from the bits on
    first use.
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


def _key_bits(pres: list, rank: np.ndarray, bit_of: np.ndarray, words: int) -> np.ndarray:
    """Each action's key bit (see `GroundProblem`), from the schemas' pre
    templates `pres` in grounding order (`rank`: that order -> action id)."""
    bits = [bit_of[pre] for pre in pres]
    for b in bits:
        for j in range(1, b.shape[1]):  # an atom required twice counts once
            b[(b[:, :j] == b[:, j:j + 1]).any(axis=1), j] = -1
    m = len(bit_of)  # above every bit; count[-1] is 0
    count = np.bincount(np.concatenate([b[b >= 0] for b in bits] + [rank[:0]]), minlength=m)
    never = (len(rank) + 1) * m
    best = np.concatenate([rank[:0]] + [np.where(b >= 0, count[b] * m + b, never).min(axis=1)
                                        if b.shape[1] else np.full(len(b), never) for b in bits])
    key = np.empty(len(rank), dtype=np.int64)
    key[rank] = np.where(best < never, best % m, 64 * words)
    return key


def _objects_by_type(dom: DomainModel, inst: InstanceModel) -> dict:
    by_type: dict = {t: [] for t in dom.types}
    for oname, otype in inst.objects:
        t = otype
        while t is not None:
            by_type[t].append(oname)
            t = dom.types.get(t)
    for names in by_type.values():
        names.sort()
    return by_type


class _Binder:
    """Grounds action schemas against one instance's atoms.

    Objects are numbered by name.  A schema is compiled into templates: each
    atom becomes (predicate, slots), where slot i names parameter i for i < k
    (the schema's k parameters) and constant i - k after that.  The atom
    ids of a template over a dynamic predicate are arithmetic: that
    predicate's atoms are the product of its argument types' objects, in
    order and consecutive among the atom ids.  Static templates are matched
    against the static atoms of the initial state, which the join also
    draws parameters from.
    """

    def __init__(self, dom, objects, by_type, atoms, static_preds, static_init):
        self.dom = dom
        self.static_preds = static_preds
        self.objects = objects
        self.index = {o: i for i, o in enumerate(objects)}
        self.pools = {t: [self.index[o] for o in names] for t, names in by_type.items()}
        self.atoms = atoms
        self._start, self._rank = {}, {}
        # (predicate, object ids...) -> atom id, and (predicate, position,
        # the other arguments) -> [(object id at that position, atom id)].
        self.static_ids = {(a[0], *map(self.index.__getitem__, a[1:])): i
                           for a, i in static_init.items()}
        self.candidates: dict = {}
        for key, aid in self.static_ids.items():
            for pos in range(len(key) - 1):
                other = key[1:pos + 1] + key[pos + 2:]
                self.candidates.setdefault((key[0], pos, other), []).append(
                    (key[pos + 1], aid))

    def bind(self, sc: ActionSchema, room: int) -> tuple:
        """The names and the atom ids of the pre, add and delete templates,
        int64 [n, c] each, of the first room + 1 bindings of `sc` under which
        its static preconditions hold.  Without static preconditions the
        bindings are the product of the parameters' types; with them, a join
        (see `_plan`)."""
        k = len(sc.params)
        types = [t for _, t in sc.params]
        pre, add, dele, consts = self._compile(sc)
        statics = [t for t in pre if t[0] in self.static_preds]
        if statics:
            found = self._join(types, consts, statics)
        else:
            found = itertools.product(*(self.pools[t] for t in types))
        found = list(itertools.islice(found, room + 1))
        rows = np.array(found, dtype=np.int64).reshape(len(found), k + len(statics))
        column = lambda s: rows[:, s] if s < k else consts[s - k]
        static_col = {t: rows[:, k + j] for j, t in enumerate(statics)}

        def ids(templates):
            out = np.empty((len(rows), len(templates)), dtype=np.int64)
            for c, t in enumerate(templates):
                out[:, c] = static_col[t] if t in static_col else self._dynamic_ids(t, column)
            return out

        names = [f"{sc.name}({','.join(map(self.objects.__getitem__, row[:k]))})"
                 for row in found]
        return names, ids(pre), ids(add), ids(dele)

    def _compile(self, sc: ActionSchema) -> tuple:
        """(pre, add, dele, consts): the schema's atoms as templates, sorted,
        and the object id of each constant slot."""
        slot = {v: i for i, (v, _) in enumerate(sc.params)}
        consts = []

        def templates(atoms):
            out = []
            for sa in sorted(atoms, key=lambda sa: (sa.pred, sa.args)):
                for term in sa.args:
                    if term not in slot:
                        slot[term] = len(slot)
                        consts.append(self.index[term])
                out.append((sa.pred, tuple(slot[term] for term in sa.args)))
            return out

        return templates(sc.pre), templates(sc.add), templates(sc.dele), consts

    def _dynamic_ids(self, template, column) -> np.ndarray:
        """Ids of a dynamic-predicate template's atoms, given each slot's
        object ids (`column`: slot -> int64 [n] or one object id)."""
        pred, slots = template
        if pred not in self._start:
            self._start[pred] = bisect.bisect_left(self.atoms, (pred,))
        ids, stride = self._start[pred], 1
        for s, t in zip(reversed(slots), reversed(self.dom.predicates[pred].arg_types)):
            if t not in self._rank:
                self._rank[t] = np.full(len(self.objects), -1, dtype=np.int64)
                self._rank[t][self.pools[t]] = np.arange(len(self.pools[t]))
            ids = ids + self._rank[t][column(s)] * stride
            stride *= len(self.pools[t])
        return ids

    def _plan(self, types, n_slots, statics) -> tuple:
        """The order in which the join binds a schema's parameters.

        Returns (tests, steps).  `tests` are the static templates over
        constants only, tested once.  Each step binds one parameter and is
        (parameter, source, keep, tests): source (j, pos) draws it from the
        candidates of static template j at position pos, whose other slots
        are bound, so j holds by construction; source None draws it from its
        type.  `keep` is the set of objects of the parameter's type when the
        candidates may lie outside it (else None), and `tests` the templates
        whose last slot the step binds.
        """
        k = len(types)
        bound = set(range(k, n_slots))
        open_ = list(range(len(statics)))

        def ready():
            done = [j for j in open_ if bound.issuperset(statics[j][1])]
            open_[:] = [j for j in open_ if j not in done]
            return done

        tests, steps = ready(), []
        while len(bound) < n_slots:
            # An open template has an unbound slot; when all its other slots
            # are bound, that one names a parameter there only.
            source = next(((j, pos) for j in open_ for pos in range(len(statics[j][1]))
                           if bound.issuperset(statics[j][1][:pos] + statics[j][1][pos + 1:])),
                          None)
            keep = None
            if source is None:
                p = next(q for q in range(k) if q not in bound)
            else:
                j, pos = source
                p = statics[j][1][pos]
                open_.remove(j)
                if not self.dom.is_subtype(self.dom.predicates[statics[j][0]].arg_types[pos],
                                           types[p]):
                    keep = frozenset(self.pools[types[p]])
            bound.add(p)
            steps.append((p, source, keep, ready()))
        return tests, steps

    def _join(self, types, consts, statics):
        """Yield each binding under which every static template holds: the
        parameters' object ids, then the static templates' atom ids."""
        k = len(types)
        tests0, steps = self._plan(types, k + len(consts), statics)
        slots = [0] * k + consts
        sids = [0] * len(statics)
        pools = {types[p]: [(o, -1) for o in self.pools[types[p]]]
                 for p, source, _, _ in steps if source is None}

        def holds(tests):
            for j in tests:
                pred, ss = statics[j]
                aid = self.static_ids.get((pred, *[slots[s] for s in ss]))
                if aid is None:
                    return False
                sids[j] = aid
            return True

        def extend(depth):
            if depth == len(steps):
                yield (*slots[:k], *sids)
                return
            p, source, keep, tests = steps[depth]
            if source is None:
                j, cands = None, pools[types[p]]
            else:
                j, pos = source
                pred, ss = statics[j]
                other = tuple(slots[s] for s in ss[:pos] + ss[pos + 1:])
                cands = self.candidates.get((pred, pos, other), ())
            for o, aid in cands:
                if keep is not None and o not in keep:
                    continue
                slots[p] = o
                if j is not None:
                    sids[j] = aid
                if holds(tests):
                    yield from extend(depth + 1)

        if holds(tests0):
            yield from extend(0)


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
    by_type = _objects_by_type(dom, inst)
    members = {t: frozenset(names) for t, names in by_type.items()}
    for what, atoms in (("init", inst.init), ("goal", inst.goal)):
        for a in atoms:
            pred = dom.predicates.get(a[0])
            if pred is None or len(a) != pred.arity + 1 or any(
                    o not in members[t] for o, t in zip(a[1:], pred.arg_types)):
                raise PddlError(f"{what} atom {a} is not type-consistent")

    static_preds = dom.static_predicates()
    static_init = [a for a in inst.init if a[0] in static_preds]
    atoms = sorted(itertools.chain(
        ((p.name, *args) for p in dom.predicates.values() if p.name not in static_preds
         for args in itertools.product(*(by_type[t] for t in p.arg_types))),
        set(static_init).union(a for a in inst.goal if a[0] in static_preds)))
    atom_id = {a: i for i, a in enumerate(atoms)}
    is_static = np.array([a[0] in static_preds for a in atoms], dtype=bool)
    dynamic = np.flatnonzero(~is_static)
    bit_of = np.full(len(atoms) + 1, -1, dtype=np.int64)  # id len(atoms): none
    bit_of[dynamic] = np.arange(len(dynamic))
    words = max(1, -(-len(dynamic) // 64))

    objects = sorted(o for o, _ in inst.objects)
    static_init = {a: atom_id[a] for a in static_init}
    binder = _Binder(dom, objects, by_type, atoms, static_preds, static_init)
    actions, bound = [], []
    for sc in sorted(dom.schemas, key=lambda s: s.name):
        names, pre, add, dele = binder.bind(sc, max_actions - len(actions))
        if len(actions) + len(names) > max_actions:
            raise LimitExceededError(
                f"more than {max_actions} ground actions in '{inst.name}'")
        actions += names
        shadowed = (dele[:, :, None] == add[:, None, :]).any(axis=2)
        bound.append((pre, add, np.where(shadowed, len(atoms), dele)))
    order = sorted(range(len(actions)), key=actions.__getitem__)
    actions = [actions[i] for i in order]
    rank = np.empty(len(actions), dtype=np.int64)
    rank[order] = np.arange(len(actions))
    # Atom id -> bit, 64 * words for a static atom and for id len(atoms).
    to_bit = np.where(bit_of >= 0, bit_of, 64 * words)

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
    init = frozenset(atom_id[a] for a in inst.init)
    goal = frozenset(atom_id[a] for a in inst.goal)
    static_atoms = frozenset(static_init.values())
    return GroundProblem(
        domain=dom,
        instance=inst,
        atoms=atoms,
        actions=actions,
        init=pack_set(init),
        goal=goal,
        objects=objects,
        object_types={o: t for o, t in inst.objects},
        dynamic=dynamic,
        static_atoms=static_atoms,
        pre_bits=spread(0),
        add_bits=spread(1),
        del_bits=spread(2),
        goal_mask=pack_set(goal),
        goal_static=all(a in static_atoms for a in goal if is_static[a]),
        pre_key=_key_bits([pre for pre, _, _ in bound], rank, bit_of, words),
    )
