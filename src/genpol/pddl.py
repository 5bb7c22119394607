"""Parser, grounder and successor generator for a STRIPS fragment of PDDL.

Supported: ``:strips``, ``:typing`` (with type hierarchies), ``:constants``,
positive conjunctive preconditions and goals, add/delete effects.
Rejected with a positioned error: negative preconditions or goals,
conditional effects, quantifiers, disjunctions, equality atoms, numeric
fluents and action costs.

Ground atoms and actions get ids that are stable across runs: atoms are
sorted lexicographically by (predicate, args) and actions by (schema, args).
States are frozensets of atom ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from genpol.errors import LimitExceededError, PddlError, UnsupportedPddlError

Atom = tuple  # ("on", "a", "b"); nullary atoms are 1-tuples
State = frozenset

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


def _tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, line, col
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j].lower(), line, col
            col += j - i
            i = j


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
    _check_unsupported(node, context)
    if node.is_list and node.value and not node.value[0].is_list \
            and node.value[0].value == "and":
        atoms = []
        for child in node.value[1:]:
            _check_unsupported(child, context)
            atoms.append(_parse_atom(child, dom, allowed, context))
        return atoms
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

    for tname, parent in types.items():
        if parent is not None and parent not in types:
            types[parent] = ROOT_TYPE

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
            inner = lit.value[1]
            if inner.is_list and inner.value and not inner.value[0].is_list \
                    and inner.value[0].value in _UNSUPPORTED_HEADS:
                raise UnsupportedPddlError(
                    f"{_UNSUPPORTED_HEADS[inner.value[0].value]} is not supported "
                    f"in {context}", inner.line, inner.col)
            dele.append(_parse_atom(inner, dom, scope, context))
        else:
            _check_unsupported(lit, context)
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
# Pretty-printing (inverse of parsing, up to whitespace)
# ---------------------------------------------------------------------------

def _fmt_typed(pairs) -> str:
    return " ".join(f"{n} - {t}" for n, t in pairs)


def _fmt_schema_atom(sa: SchemaAtom) -> str:
    return f"({sa.pred}{''.join(' ' + a for a in sa.args)})"


def format_domain(dom: DomainModel) -> str:
    lines = [f"(define (domain {dom.name})"]
    declared = [t for t in dom.types if t != ROOT_TYPE]
    if declared:
        lines.append("  (:types " + " ".join(
            f"{t} - {dom.types[t]}" for t in declared) + ")")
    if dom.constants:
        lines.append(f"  (:constants {_fmt_typed(dom.constants)})")
    preds = []
    for p in dom.predicates.values():
        args = " ".join(f"?a{i} - {t}" for i, t in enumerate(p.arg_types))
        preds.append(f"({p.name}{' ' + args if args else ''})")
    lines.append("  (:predicates " + " ".join(preds) + ")")
    for sc in dom.schemas:
        lines.append(f"  (:action {sc.name}")
        lines.append(f"    :parameters ({_fmt_typed(sc.params)})")
        key = lambda a: (a.pred, a.args)
        pre = " ".join(_fmt_schema_atom(a) for a in sorted(sc.pre, key=key))
        lines.append(f"    :precondition (and {pre})")
        eff = [_fmt_schema_atom(a) for a in sorted(sc.add, key=key)]
        eff += [f"(not {_fmt_schema_atom(a)})" for a in sorted(sc.dele, key=key)]
        lines.append(f"    :effect (and {' '.join(eff)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def format_instance(inst: InstanceModel, dom: DomainModel) -> str:
    own = [o for o in inst.objects if o not in dom.constants]
    fmt = lambda a: f"({a[0]}{''.join(' ' + x for x in a[1:])})"
    lines = [
        f"(define (problem {inst.name})",
        f"  (:domain {inst.domain_name})",
        f"  (:objects {_fmt_typed(own)})",
        "  (:init " + " ".join(fmt(a) for a in sorted(inst.init)) + ")",
        "  (:goal (and " + " ".join(fmt(a) for a in sorted(inst.goal)) + "))",
        ")",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundAction:
    name: str
    pre: frozenset  # atom ids
    add: frozenset
    dele: frozenset


@dataclass
class GroundProblem:
    """A fully grounded instance with deterministic atom/action ids."""

    domain: DomainModel
    instance: InstanceModel
    atoms: list  # id -> Atom
    atom_ids: dict  # Atom -> id
    actions: list  # id -> GroundAction
    init: State
    goal: frozenset  # atom ids
    objects: list  # sorted object names
    object_types: dict  # name -> type
    static_predicates: frozenset
    _watch: dict = field(default_factory=dict, repr=False)
    _always: list = field(default_factory=list, repr=False)

    def is_goal(self, state: State) -> bool:
        return self.goal <= state

    def applicable(self, state: State) -> list:
        """Ids of actions applicable in `state`, ascending."""
        cands = set(self._always)
        for atom_id in state:
            bucket = self._watch.get(atom_id)
            if bucket:
                cands.update(bucket)
        acts = self.actions
        return sorted(a for a in cands if acts[a].pre <= state)

    def successors(self, state: State) -> list:
        """(action_id, next_state) pairs in ascending action id order."""
        out = []
        for aid in self.applicable(state):
            act = self.actions[aid]
            out.append((aid, (state - act.dele) | act.add))
        return out


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


def ground(dom: DomainModel, inst: InstanceModel, max_actions: int = 10**6) -> GroundProblem:
    """Enumerate type-consistent ground atoms and actions.

    Actions whose statically-determined preconditions (predicates never
    added or deleted by any schema) are false in the initial state are
    dropped; they can never become applicable.  Delete effects shadowed by
    an add of the same atom are removed, so add and delete sets of every
    ground action are disjoint.
    """
    by_type = _objects_by_type(dom, inst)

    atoms = []
    for pred in sorted(dom.predicates.values(), key=lambda p: p.name):
        pools = [by_type.get(t, []) for t in pred.arg_types]
        for combo in itertools.product(*pools):
            atoms.append((pred.name, *combo))
    atoms.sort()
    atom_ids = {a: i for i, a in enumerate(atoms)}

    dynamic = set()
    for sc in dom.schemas:
        dynamic.update(sa.pred for sa in sc.add)
        dynamic.update(sa.pred for sa in sc.dele)
    static_preds = frozenset(dom.predicates) - dynamic

    init_atoms = inst.init
    for a in init_atoms:
        if a not in atom_ids:
            raise PddlError(f"init atom {a} is not type-consistent")
    for a in inst.goal:
        if a not in atom_ids:
            raise PddlError(f"goal atom {a} is not type-consistent")

    ground_actions = []
    for sc in sorted(dom.schemas, key=lambda s: s.name):
        pools = [by_type.get(ptype, []) for _, ptype in sc.params]
        names = [pvar for pvar, _ in sc.params]
        for combo in itertools.product(*pools):
            binding = dict(zip(names, combo))
            bind = lambda sa: (sa.pred, *(binding.get(t, t) for t in sa.args))
            pre = [bind(sa) for sa in sc.pre]
            if any(a[0] in static_preds and a not in init_atoms for a in pre):
                continue
            add = frozenset(atom_ids[bind(sa)] for sa in sc.add)
            dele = frozenset(atom_ids[bind(sa)] for sa in sc.dele) - add
            pre_ids = frozenset(atom_ids[a] for a in pre)
            name = f"{sc.name}({','.join(combo)})"
            ground_actions.append((name, pre_ids, add, dele))
            if len(ground_actions) > max_actions:
                raise LimitExceededError(
                    f"more than {max_actions} ground actions in '{inst.name}'")
    ground_actions.sort(key=lambda g: g[0])
    actions = [GroundAction(*g) for g in ground_actions]

    gp = GroundProblem(
        domain=dom,
        instance=inst,
        atoms=atoms,
        atom_ids=atom_ids,
        actions=actions,
        init=frozenset(atom_ids[a] for a in init_atoms),
        goal=frozenset(atom_ids[a] for a in inst.goal),
        objects=sorted(o for o, _ in inst.objects),
        object_types={o: t for o, t in inst.objects},
        static_predicates=static_preds,
    )
    _index_actions(gp)
    return gp


def _index_actions(gp: GroundProblem):
    """Index each action under its rarest dynamic precondition atom.

    `applicable` then only scans actions watching some atom that is true,
    which keeps successor generation near-linear in the out-degree.
    """
    static = gp.static_predicates
    counts: dict = {}
    dyn_pres = []
    for act in gp.actions:
        dyn = [a for a in act.pre if gp.atoms[a][0] not in static]
        dyn_pres.append(dyn)
        for a in dyn:
            counts[a] = counts.get(a, 0) + 1
    for aid, dyn in enumerate(dyn_pres):
        if not dyn:
            gp._always.append(aid)
        else:
            watch = min(dyn, key=lambda a: (counts[a], a))
            gp._watch.setdefault(watch, []).append(aid)
