"""Description logic concepts and roles over planning states.

Concepts denote sets of objects, roles denote binary relations; both are
evaluated against a single state of a ground instance.  Denotations are
bitmasks over the instance's (sorted) object list, roles are tuples of
per-object successor masks.

The grammar: primitive concepts (unary predicates and type names), goal
versions of goal-relevant predicates, nominals for constants and declared
goal parameters, Top/Bot, negation, conjunction, existential and universal
role restriction, equality of a role with its goal version, and roles
derived from primitive or goal roles by inverse and (non-reflexive)
transitive closure.  Complexity counts one per syntax tree node.

Every expression has a stable printable form (`render`) with a matching
parser (`parse_expression`), e.g. ``And(clear,Nominal(b1))``,
``Exists(on_plus,Nominal(b1))``, ``Forall(on_plus,Equal(on,on_g))``.
Role suffixes: ``_g`` goal version, ``_inv`` inverse, ``_plus`` closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from genpol.errors import GenpolError


# ---------------------------------------------------------------------------
# Expression types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveRole:
    name: str


@dataclass(frozen=True)
class GoalRole:
    name: str


@dataclass(frozen=True)
class InverseRole:
    base: object


@dataclass(frozen=True)
class ClosureRole:
    base: object


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class PrimitiveConcept:
    name: str


@dataclass(frozen=True)
class GoalConcept:
    name: str


@dataclass(frozen=True)
class TypeConcept:
    name: str


@dataclass(frozen=True)
class Nominal:
    name: str


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    role: object
    child: object


@dataclass(frozen=True)
class Forall:
    role: object
    child: object


@dataclass(frozen=True)
class RoleEqual:
    left: object
    right: object


_ATOMIC_CONCEPTS = (PrimitiveConcept, Top, Bot, GoalConcept, TypeConcept,
                    Nominal)
_ATOMIC = _ATOMIC_CONCEPTS + (PrimitiveRole, GoalRole)


def complexity(expr) -> int:
    """Number of syntax tree nodes."""
    if isinstance(expr, _ATOMIC):
        return 1
    if isinstance(expr, (Not, InverseRole, ClosureRole)):
        return 1 + complexity(expr.child if isinstance(expr, Not) else expr.base)
    if isinstance(expr, (And, RoleEqual)):
        return 1 + complexity(expr.left) + complexity(expr.right)
    if isinstance(expr, (Exists, Forall)):
        return 1 + complexity(expr.role) + complexity(expr.child)
    raise TypeError(f"not an expression: {expr!r}")


def render(expr) -> str:
    if isinstance(expr, Top):
        return "Top"
    if isinstance(expr, Bot):
        return "Bot"
    if isinstance(expr, (PrimitiveConcept, PrimitiveRole)):
        return expr.name
    if isinstance(expr, (GoalConcept, GoalRole)):
        return f"{expr.name}_g"
    if isinstance(expr, TypeConcept):
        return f"type({expr.name})"
    if isinstance(expr, Nominal):
        return f"Nominal({expr.name})"
    if isinstance(expr, Not):
        return f"Not({render(expr.child)})"
    if isinstance(expr, And):
        return f"And({render(expr.left)},{render(expr.right)})"
    if isinstance(expr, Exists):
        return f"Exists({render(expr.role)},{render(expr.child)})"
    if isinstance(expr, Forall):
        return f"Forall({render(expr.role)},{render(expr.child)})"
    if isinstance(expr, RoleEqual):
        return f"Equal({render(expr.left)},{render(expr.right)})"
    if isinstance(expr, InverseRole):
        return f"{render(expr.base)}_inv"
    if isinstance(expr, ClosureRole):
        return f"{render(expr.base)}_plus"
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Parsing printable forms back into expressions
# ---------------------------------------------------------------------------

class ExpressionParseError(GenpolError):
    pass


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


def parse_role(text: str):
    text = text.strip()
    if text.endswith("_plus"):
        return ClosureRole(parse_role(text[:-5]))
    if text.endswith("_inv"):
        return InverseRole(parse_role(text[:-4]))
    if text.endswith("_g"):
        return GoalRole(text[:-2])
    if not text or "(" in text:
        raise ExpressionParseError(f"bad role: '{text}'")
    return PrimitiveRole(text)


def parse_expression(text: str):
    """Inverse of `render` for concepts."""
    text = text.strip()
    if text == "Top":
        return Top()
    if text == "Bot":
        return Bot()
    if "(" in text:
        head, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise ExpressionParseError(f"unbalanced parentheses: '{text}'")
        args = _split_args(rest[:-1])
        if head == "Not" and len(args) == 1:
            return Not(parse_expression(args[0]))
        if head == "And" and len(args) == 2:
            return And(parse_expression(args[0]), parse_expression(args[1]))
        if head == "Exists" and len(args) == 2:
            return Exists(parse_role(args[0]), parse_expression(args[1]))
        if head == "Forall" and len(args) == 2:
            return Forall(parse_role(args[0]), parse_expression(args[1]))
        if head == "Equal" and len(args) == 2:
            return RoleEqual(parse_role(args[0]), parse_role(args[1]))
        if head == "Nominal" and len(args) == 1:
            return Nominal(args[0].strip())
        if head == "type" and len(args) == 1:
            return TypeConcept(args[0].strip())
        raise ExpressionParseError(f"unknown constructor '{head}' in '{text}'")
    if text.endswith("_g"):
        return GoalConcept(text[:-2])
    if not text:
        raise ExpressionParseError("empty expression")
    return PrimitiveConcept(text)


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------

class InstanceContext:
    """Per-instance constants: object numbering, types, goal denotations."""

    def __init__(self, gp):
        self.gp = gp
        self.objects = gp.objects  # sorted names
        self.index = {o: i for i, o in enumerate(self.objects)}
        self.n = len(self.objects)
        self.universe = (1 << self.n) - 1
        dom = gp.domain

        self.type_masks = {}
        for t in dom.types:
            mask = 0
            for o, i in self.index.items():
                if dom.is_subtype(gp.object_types[o], t):
                    mask |= 1 << i
            self.type_masks[t] = mask

        goal_atoms = [gp.atoms[a] for a in gp.goal]
        self.goal_unary = {}
        self.goal_roles = {}
        for atom in goal_atoms:
            pred, args = atom[0], atom[1:]
            if len(args) == 1:
                self.goal_unary[pred] = self.goal_unary.get(pred, 0) | (1 << self.index[args[0]])
            elif len(args) == 2:
                rows = self.goal_roles.setdefault(pred, [0] * self.n)
                rows[self.index[args[0]]] |= 1 << self.index[args[1]]
        self.goal_roles = {p: tuple(r) for p, r in self.goal_roles.items()}

        # Nominals: domain constants by name, goal parameters by position
        # ("goal0", "goal1", ...) so the same feature re-binds to the goal
        # arguments of whatever instance it is evaluated on.
        self.nominals = {}
        for name, _ in dom.constants:
            self.nominals[name] = 1 << self.index[name]
        for i, name in enumerate(gp.instance.goal_params):
            self.nominals[f"goal{i}"] = 1 << self.index[name]

        # Predicate bookkeeping for fast state contexts.
        self.unary_preds = sorted(p.name for p in dom.predicates.values() if p.arity == 1)
        self.binary_preds = sorted(p.name for p in dom.predicates.values() if p.arity == 2)
        self._atom_kind = []
        for atom in gp.atoms:
            arity = len(atom) - 1
            if arity == 1:
                self._atom_kind.append((1, atom[0], self.index[atom[1]]))
            elif arity == 2:
                self._atom_kind.append((2, atom[0], self.index[atom[1]], self.index[atom[2]]))
            else:
                self._atom_kind.append((0, atom[0]))

    def atomic_concept(self, expr, unary: dict):
        """Denotation of an atomic concept.  `unary` maps each unary
        predicate to its mask in the state at hand, or to a column of masks
        over many states; the result is then a mask or such a column."""
        if isinstance(expr, PrimitiveConcept):
            mask = unary.get(expr.name)
            if mask is None:
                raise GenpolError(f"unknown unary predicate '{expr.name}'")
            return mask
        if isinstance(expr, Top):
            return self.universe
        if isinstance(expr, Bot):
            return 0
        if isinstance(expr, GoalConcept):
            if expr.name not in unary:
                raise GenpolError(f"unknown unary predicate '{expr.name}'")
            return self.goal_unary.get(expr.name, 0)
        if isinstance(expr, TypeConcept):
            mask = self.type_masks.get(expr.name)
            if mask is None:
                raise GenpolError(f"unknown type '{expr.name}'")
            return mask
        if isinstance(expr, Nominal):
            mask = self.nominals.get(expr.name)
            if mask is None:
                raise GenpolError(f"nominal '{expr.name}' is not a constant or "
                                  f"goal parameter of instance "
                                  f"'{self.gp.instance.name}'")
            return mask
        raise TypeError(f"not a concept: {expr!r}")

    def atomic_role(self, expr, rows: dict):
        """Denotation of a primitive or goal role; `rows` maps each binary
        predicate to its successor masks in the state(s) at hand, as
        `unary` does for `atomic_concept`."""
        if isinstance(expr, PrimitiveRole):
            got = rows.get(expr.name)
            if got is None:
                raise GenpolError(f"unknown binary predicate '{expr.name}'")
            return got
        if isinstance(expr, GoalRole):
            got = self.goal_roles.get(expr.name)
            if got is None:
                if expr.name not in rows:
                    raise GenpolError(f"unknown binary predicate '{expr.name}'")
                got = (0,) * self.n
            return got
        raise TypeError(f"not a role: {expr!r}")


class StateContext:
    """Denotation cache for one state; create via `state_context`."""

    __slots__ = ("ictx", "unary", "rows", "nullary", "memo")

    def __init__(self, ictx, unary, rows, nullary):
        self.ictx = ictx
        self.unary = unary        # pred -> mask
        self.rows = rows          # pred -> tuple of masks
        self.nullary = nullary    # set of true nullary predicate names
        self.memo = {}


def state_context(ictx: InstanceContext, state) -> StateContext:
    unary = dict.fromkeys(ictx.unary_preds, 0)
    rows = {p: [0] * ictx.n for p in ictx.binary_preds}
    nullary = set()
    kinds = ictx._atom_kind
    for atom_id in state:
        k = kinds[atom_id]
        if k[0] == 1:
            unary[k[1]] |= 1 << k[2]
        elif k[0] == 2:
            rows[k[1]][k[2]] |= 1 << k[3]
        else:
            nullary.add(k[1])
    rows = {p: tuple(r) for p, r in rows.items()}
    return StateContext(ictx, unary, rows, nullary)


def _closure(rows, n) -> tuple:
    """Non-reflexive transitive closure of a relation given as successor masks."""
    out = list(rows)
    for k in range(n):
        bit = 1 << k
        row_k = out[k]
        if not row_k:
            continue
        for i in range(n):
            if out[i] & bit:
                out[i] |= row_k
    # A second sweep is unnecessary: bitset Floyd-Warshall is complete in one
    # pass over intermediates.
    return tuple(out)


def eval_role(expr, ctx: StateContext) -> tuple:
    memo = ctx.memo
    got = memo.get(expr)
    if got is not None:
        return got
    ictx = ctx.ictx
    if isinstance(expr, (PrimitiveRole, GoalRole)):
        rows = ictx.atomic_role(expr, ctx.rows)
    elif isinstance(expr, InverseRole):
        base = eval_role(expr.base, ctx)
        out = [0] * ictx.n
        for i, row in enumerate(base):
            bit = 1 << i
            m = row
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= bit
                m ^= low
        rows = tuple(out)
    elif isinstance(expr, ClosureRole):
        rows = _closure(eval_role(expr.base, ctx), ictx.n)
    else:
        raise TypeError(f"not a role: {expr!r}")
    memo[expr] = rows
    return rows


def eval_concept(expr, ctx: StateContext) -> int:
    memo = ctx.memo
    got = memo.get(expr)
    if got is not None:
        return got
    ictx = ctx.ictx
    if isinstance(expr, _ATOMIC_CONCEPTS):
        mask = ictx.atomic_concept(expr, ctx.unary)
    elif isinstance(expr, Not):
        mask = ictx.universe & ~eval_concept(expr.child, ctx)
    elif isinstance(expr, And):
        mask = eval_concept(expr.left, ctx) & eval_concept(expr.right, ctx)
    elif isinstance(expr, Exists):
        child = eval_concept(expr.child, ctx)
        mask = 0
        for i, row in enumerate(eval_role(expr.role, ctx)):
            if row & child:
                mask |= 1 << i
    elif isinstance(expr, Forall):
        bad = ictx.universe & ~eval_concept(expr.child, ctx)
        mask = 0
        for i, row in enumerate(eval_role(expr.role, ctx)):
            if not row & bad:
                mask |= 1 << i
    elif isinstance(expr, RoleEqual):
        left = eval_role(expr.left, ctx)
        right = eval_role(expr.right, ctx)
        mask = 0
        for i in range(ictx.n):
            if left[i] == right[i]:
                mask |= 1 << i
    else:
        raise TypeError(f"not a concept: {expr!r}")
    memo[expr] = mask
    return mask


def bfs_distance(sources: int, rows, restrict: int, targets: int, n: int) -> int:
    """Minimum number of role steps from `sources` to `targets`.

    Steps follow pairs (x, y) of the role whose target y lies in `restrict`.
    Returns 0 when a source is already a target, and n + 1 when the target
    set is unreachable or either end is empty.
    """
    if not sources or not targets:
        return n + 1
    seen = cur = sources
    dist = 0
    while True:
        if cur & targets:
            return dist
        nxt = 0
        m = cur
        while m:
            low = m & -m
            nxt |= rows[low.bit_length() - 1]
            m ^= low
        nxt &= restrict & ~seen
        if not nxt:
            return n + 1
        seen |= nxt
        cur = nxt
        dist += 1


def popcount(mask: int) -> int:
    return mask.bit_count()
