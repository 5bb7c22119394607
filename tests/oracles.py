"""Independent reference implementations used to cross-check the package.

Everything here favors clarity over speed: plain dict/set semantics, full
enumeration, no bit tricks.  Results are compared against the real modules
in the tests; the two sides share no code paths.
"""

import dataclasses
import itertools
import random
import time
from heapq import heappop, heappush
from types import SimpleNamespace

import numpy as np

from genpol.errors import SolverTimeoutError
from genpol.maxsat import Clauses
from genpol.space import MAX_STATES


# -- reading -----------------------------------------------------------------

def tokenize(text: str):
    """(token, line, column) of each token of a PDDL text, read one
    character at a time: the tokenizer `pddl._tokenize` replaced."""
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


# -- grounding ---------------------------------------------------------------

def static_predicates(dom):
    """The predicates no schema adds or deletes."""
    return set(dom.predicates) - {a[0] for s in dom.schemas for a in s.add | s.dele}


def brute_force_ground_actions(dom, inst):
    """All type-consistent bindings whose preconditions can ever hold under a
    delete-free fixpoint.  Returns a sorted list of names like 'move(a,b)'."""
    type_objs = {}
    for name, t in inst.objects:
        tt = t
        while tt is not None:
            type_objs.setdefault(tt, []).append(name)
            tt = dom.types.get(tt)
    ever_true = set(inst.init)
    schemas = list(dom.schemas)
    changed = True
    while changed:
        changed = False
        for schema in schemas:
            for binding in itertools.product(
                    *[type_objs.get(t, []) for _v, t in schema.params]):
                env = dict(zip((v for v, _t in schema.params), binding))
                def ground(a):
                    return (a[0],) + tuple(env.get(x, x) for x in a[1:])
                if all(ground(p) in ever_true for p in schema.pre):
                    for a in schema.add:
                        if ground(a) not in ever_true:
                            ever_true.add(ground(a))
                            changed = True
    names = []
    for schema in schemas:
        for binding in itertools.product(
                *[type_objs.get(t, []) for _v, t in schema.params]):
            env = dict(zip((v for v, _t in schema.params), binding))
            def ground(a):
                return (a[0],) + tuple(env.get(x, x) for x in a[1:])
            if all(ground(p) in ever_true for p in schema.pre):
                names.append(f"{schema.name}({','.join(binding)})")
    return sorted(names)


def product_ground(dom, inst):
    """Grounding by product and filter: every type-consistent atom, and
    every type-consistent binding of every schema, kept when its static
    preconditions (over predicates no schema adds or deletes) hold in the
    initial state.  Returns a namespace of atom tuples, not ids: `actions`
    sorted by name as (name, pre, add, dele) with dele minus add;
    `dynamic`, the dynamic atoms in sorted order (bit k is dynamic[k]);
    `static_atoms` and `goal`; and the packed uint64 rows `init`,
    `pre_masks`, `add_masks` and `del_masks`."""
    type_objs = {t: [] for t in dom.types}
    for name, t in inst.objects:
        while t is not None:
            type_objs[t].append(name)
            t = dom.types.get(t)
    type_objs = {t: sorted(names) for t, names in type_objs.items()}
    static = static_predicates(dom)
    atoms = sorted((p.name, *args) for p in dom.predicates.values()
                   for args in itertools.product(*[type_objs[t] for t in p.arg_types]))
    dynamic = [a for a in atoms if a[0] not in static]

    actions = []
    for schema in dom.schemas:
        for binding in itertools.product(*[type_objs[t] for _v, t in schema.params]):
            env = dict(zip((v for v, _t in schema.params), binding))
            ground = lambda atoms: frozenset(
                (a[0],) + tuple(env.get(x, x) for x in a[1:]) for a in atoms)
            pre = ground(schema.pre)
            if any(a[0] in static and a not in inst.init for a in pre):
                continue
            add = ground(schema.add)
            actions.append((f"{schema.name}({','.join(binding)})", pre, add,
                            ground(schema.dele) - add))
    actions.sort(key=lambda a: a[0])

    bit = {a: k for k, a in enumerate(dynamic)}
    words = max(1, -(-len(dynamic) // 64))

    def pack(atom_set):
        value = sum(1 << bit[a] for a in atom_set if a in bit)
        return [(value >> (64 * w)) & ((1 << 64) - 1) for w in range(words)]

    rows = lambda sets: np.array([pack(s) for s in sets], dtype=np.uint64).reshape(-1, words)
    return SimpleNamespace(
        actions=actions, dynamic=dynamic,
        static_atoms=frozenset(a for a in inst.init if a[0] in static),
        goal=frozenset(inst.goal), init=np.array(pack(inst.init), dtype=np.uint64),
        pre_masks=rows(a[1] for a in actions), add_masks=rows(a[2] for a in actions),
        del_masks=rows(a[3] for a in actions))


# -- states and expansion ------------------------------------------------------

def key_bits(gp):
    """Each action's key bit, read off its precondition mask: of the bits it
    requires, the one the fewest actions require, the lowest on ties; 64 *
    words for an action that requires none."""
    pres = [[b for b in range(64 * gp.words) if int(row[b // 64]) >> (b % 64) & 1]
            for row in gp.pre_masks]
    count = {}
    for bits in pres:
        for b in bits:
            count[b] = count.get(b, 0) + 1
    return [min(bits, key=lambda b: (count[b], b)) if bits else 64 * gp.words
            for bits in pres]


def check_successors(gp, rows):
    """Asserts that `successors` and `apply` of each packed row equal the
    mask test of `transitions` on that row alone: the same action ids, in
    the same order, and the same successor row by each of them."""
    for row in rows:
        aids = gp.successors(row)
        _, want_aids, want = gp.transitions(row[None])
        assert aids.dtype == want_aids.dtype and np.array_equal(aids, want_aids)
        for aid, succ in zip(aids.tolist(), want):
            got = gp.apply(row, aid)
            assert got.dtype == np.uint64 and got.shape == (gp.words,)
            assert np.array_equal(got, succ)


def unpacker(gp):
    """row -> the atom ids that hold in the state of a packed row: the static
    atoms of the initial state, and atom k of the atoms whose predicate is
    not static (in atom id order) when bit k % 64 of word k // 64 is set."""
    static = static_predicates(gp.domain)
    dynamic = [i for i, a in enumerate(gp.atoms) if a[0] not in static]
    always = {i for i, a in enumerate(gp.atoms) if a[0] in static and a in gp.instance.init}

    def unpack(row):
        words = [int(w) for w in row]
        return frozenset(always | {i for k, i in enumerate(dynamic)
                                   if words[k // 64] >> (k % 64) & 1})
    return unpack


def bits_past_objects(ctx):
    """The printable forms of the denotations memoized in the state context
    `ctx` that set a bit at or above n, its instance's object count: bit j
    of a set is bit j % 64 of word j // 64, so word k may hold the bits
    below n - 64 * k only."""
    n = ctx.ictx.n
    past = [(2**64 - 1) ^ ((1 << min(64, max(0, n - 64 * k))) - 1)
            for k in range(ctx.words)]
    return sorted(expr.text for expr, sets in ctx.memo.items()
                  if (sets & np.array(past, dtype=np.uint64)).any())


def state_sets(space):
    """The atom ids of every state of an expanded space, in state id order."""
    return list(map(unpacker(space.gp), space.states))


def scatter_tables(ictx, rows):
    """`InstanceContext.tables` by unpacking and scattering bits: every
    dynamic atom of `ictx.gp` gets its cell and bit in a flat table (laid out
    as `tables` documents), and each row's atoms are found by unpacking its
    bits and added with `np.add.at`, so a flag column counts the atoms of its
    predicate."""
    gp, n, w = ictx.gp, ictx.n, ictx.words
    unary, binary, flags = ictx.unary_preds, ictx.binary_preds, ictx.flag_preds
    index = {o: i for i, o in enumerate(gp.objects)}
    flag0 = (len(unary) + len(binary) * n) * w

    def place(atom):
        pred, args = atom[0], atom[1:]
        if len(args) == 1:
            first, obj = unary.index(pred) * w, index[args[0]]
        elif len(args) == 2:
            first = (len(unary) + binary.index(pred) * n + index[args[0]]) * w
            obj = index[args[1]]
        else:
            return flag0 + flags.index(pred), 0
        return first + obj // 64, obj % 64

    dyn = gp.dynamic
    cell, bit = np.array([place(gp.atoms[a]) for a in dyn], dtype=np.int64).reshape(-1, 2).T
    bit = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    octets = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    held = np.unpackbits(octets, axis=1, count=len(dyn), bitorder="little")
    at, k = np.nonzero(held)
    table = np.zeros((len(rows), flag0 + len(flags)), dtype=np.uint64)
    np.add.at(table, (at, cell[k]), bit[k])
    sets = len(unary) * w
    return (table[:, :sets].reshape(len(rows), len(unary), w),
            table[:, sets:flag0].reshape(len(rows), len(binary), n, w),
            table[:, flag0:] > 0)


def naive_expand(gp):
    """Breadth-first enumeration over frozensets of atom ids, from the
    actions of `product_ground` and `gp.atoms` only: the states (id 0 the
    initial one, ids in discovery order), the (src, dst, action) triples in
    (source, action id) order, and whether each state is a goal state."""
    index = {a: i for i, a in enumerate(gp.atoms)}
    ids = lambda atoms: frozenset(index[a] for a in atoms)
    actions = [(ids(pre), ids(add), ids(dele))
               for _, pre, add, dele in product_ground(gp.domain, gp.instance).actions]
    init, goal = ids(gp.instance.init), ids(gp.instance.goal)
    states, known, edges = [init], {init: 0}, []
    for sid, s in enumerate(states):  # the list is also the queue
        for aid, (pre, add, dele) in enumerate(actions):
            if pre <= s:
                t = (s - dele) | add
                if t not in known:
                    known[t] = len(states)
                    states.append(t)
                edges.append((sid, known[t], aid))
    return states, edges, [goal <= s for s in states]


# -- concept evaluation --------------------------------------------------------

def complexity(expr) -> int:
    """Number of syntax tree nodes of a concept or role expression."""
    return 1 + sum(complexity(getattr(expr, f.name)) for f in dataclasses.fields(expr)
                   if dataclasses.is_dataclass(getattr(expr, f.name)))


def functional(rows) -> bool:
    """Whether each successor set of the uint64 array `rows` [..., words]
    holds at most one object, counted bit by bit."""
    sets = np.asarray(rows).reshape(-1, np.shape(rows)[-1]).tolist()
    return all(sum(bin(word).count("1") for word in words) <= 1 for words in sets)


def naive_eval_state(expr, gp, state):
    """Set-semantics evaluation of a concept or role expression on a ground
    state, a set of atom ids; returns a set of objects or of object pairs."""
    from genpol import concepts as co

    atoms = [gp.atoms[i] for i in sorted(state)]
    goal_atoms = [gp.atoms[i] for i in sorted(gp.goal)]
    types = gp.domain.types
    obj_types = gp.object_types
    univ = set(gp.objects)
    goal_params = list(gp.instance.goal_params)
    constants = {c for c, _t in gp.domain.constants}

    def has_type(tname, o):
        t = obj_types[o]
        while t is not None:
            if t == tname:
                return True
            t = types.get(t)
        return False

    def conc(e):
        if isinstance(e, co.Top):
            return set(univ)
        if isinstance(e, co.Bot):
            return set()
        if isinstance(e, co.PrimitiveConcept):
            return {a[1] for a in atoms if a[0] == e.name and len(a) == 2}
        if isinstance(e, co.GoalConcept):
            return {a[1] for a in goal_atoms if a[0] == e.name and len(a) == 2}
        if isinstance(e, co.TypeConcept):
            return {o for o in univ if has_type(e.name, o)}
        if isinstance(e, co.Nominal):
            if e.name in constants:
                return {e.name}
            if e.name.startswith("goal") and e.name[4:].isdigit():
                return {goal_params[int(e.name[4:])]}
            raise AssertionError(f"unknown nominal {e.name}")
        if isinstance(e, co.Not):
            return univ - conc(e.child)
        if isinstance(e, co.And):
            return conc(e.left) & conc(e.right)
        if isinstance(e, co.Exists):
            r, c = role(e.role), conc(e.child)
            return {x for x in univ if any((x, y) in r for y in c)}
        if isinstance(e, co.Forall):
            r, c = role(e.role), conc(e.child)
            return {x for x in univ
                    if all(y in c for (x2, y) in r if x2 == x)}
        if isinstance(e, co.RoleEqual):
            r1, r2 = role(e.left), role(e.right)
            return {x for x in univ
                    if {y for (x2, y) in r1 if x2 == x}
                    == {y for (x2, y) in r2 if x2 == x}}
        raise AssertionError(f"unknown concept {e!r}")

    def role(e):
        if isinstance(e, co.PrimitiveRole):
            return {(a[1], a[2]) for a in atoms
                    if a[0] == e.name and len(a) == 3}
        if isinstance(e, co.GoalRole):
            return {(a[1], a[2]) for a in goal_atoms
                    if a[0] == e.name and len(a) == 3}
        if isinstance(e, co.InverseRole):
            return {(y, x) for (x, y) in role(e.base)}
        if isinstance(e, co.ClosureRole):
            # (x, z) for every z reachable from x in one or more steps.
            succ = {}
            for x, y in role(e.base):
                succ.setdefault(x, set()).add(y)
            out = set()
            for x, first in succ.items():
                seen, todo = set(first), list(first)
                while todo:
                    for z in succ.get(todo.pop(), ()):
                        if z not in seen:
                            seen.add(z)
                            todo.append(z)
                out |= {(x, z) for z in seen}
            return out
        raise AssertionError(f"unknown role {e!r}")

    if isinstance(expr, (co.PrimitiveRole, co.GoalRole, co.InverseRole,
                         co.ClosureRole)):
        return role(expr)
    return conc(expr)


def naive_distance(gp, state, source, role, restrict, target):
    """BFS count of role steps from the source set to the target set, where
    every step lands inside the restriction."""
    src = naive_eval_state(source, gp, state)
    tgt = naive_eval_state(target, gp, state)
    rol = naive_eval_state(role, gp, state)
    res = naive_eval_state(restrict, gp, state)
    m = len(gp.objects)
    if not src or not tgt:
        return m + 1
    if src & tgt:
        return 0
    succ = {}
    for x, y in rol:
        succ.setdefault(x, set()).add(y)
    frontier = set(src)
    seen = set(src)
    dist = 0
    while frontier:
        dist += 1
        nxt = {y for x in frontier for y in succ.get(x, ())
               if y in res and y not in seen}
        if nxt & tgt:
            return dist
        seen |= nxt
        frontier = nxt
    return m + 1


def feature_value(feature, gp, state):
    """Value of a pool or policy feature on a ground state, a set of atom
    ids: an atom flag, the size of a concept (1 or 0 when boolean: exactly
    one element), or a `naive_distance`."""
    from genpol import features as fe

    if isinstance(feature, fe.NullaryFeature):
        # Atom(p) holds when some atom of p holds; unary and binary
        # predicates are concepts and roles, never atom flags.
        return int(any(gp.atoms[a][0] == feature.pred
                       and len(gp.atoms[a]) not in (2, 3) for a in state))
    if isinstance(feature, fe.CardinalityFeature):
        size = len(naive_eval_state(feature.concept, gp, state))
        return int(size == 1) if feature.is_boolean else size
    return naive_distance(gp, state, feature.source, feature.role,
                          feature.restrict, feature.target)


# -- weighted MaxSAT -------------------------------------------------------------

def evaluate_wcnf(problem, model):
    """Clause by clause: (hard clauses all satisfied, total weight of the
    falsified soft clauses) under `model`, 0/1 per variable, index 0 unused."""
    def sat(clause):
        return any(model[abs(l)] == (l > 0) for l in clause)
    hard_ok = all(sat(c) for c in problem.hard.tolist())
    cost = sum(w for w, c in zip(problem.weights.tolist(), problem.soft.tolist())
               if not sat(c))
    return hard_ok, cost


def add_hard(problem, clause):
    """`problem` with the hard clause `clause` (a list of literals) appended.
    The new problem goes through the `WcnfProblem` constructor's checks."""
    return dataclasses.replace(problem, hard=Clauses.join(
        [problem.hard, Clauses.from_lists([list(clause)])]))


def add_soft(problem, weight, clause):
    """`problem` with the soft clause `clause` of weight `weight` appended,
    checked as `add_hard` checks."""
    return dataclasses.replace(
        problem, soft=Clauses.join([problem.soft, Clauses.from_lists([list(clause)])]),
        weights=np.append(problem.weights, weight))


def brute_force_wcnf(problem):
    """Minimum soft cost over all assignments, or None when the hard part is
    unsatisfiable.  2^n enumeration."""
    best = None
    for bits in itertools.product((0, 1), repeat=problem.nvars):
        hard_ok, cost = evaluate_wcnf(problem, (0,) + bits)
        if hard_ok and (best is None or cost < best):
            best = cost
    return best


# -- transition classes -------------------------------------------------------------

def group_by_first_occurrence(keys):
    """Plain-dict grouping: (group id per key, the positions of each group's
    keys), groups numbered in order of first occurrence."""
    ids = {}
    groups = []
    for i, key in enumerate(keys):
        c = ids.setdefault(key, len(ids))
        if c == len(groups):
            groups.append([])
        groups[c].append(i)
    return [ids[key] for key in keys], groups


def change_code(matrix_rows, feats, s, d):
    """Per feature of `feats`, (source value > 0) * 4 + direction of the change
    from state s to state d: 0 flat, 1 up, 2 down."""
    out = []
    for f in feats:
        vs, vd = matrix_rows[f][s], matrix_rows[f][d]
        out.append((vs > 0) * 4 + (0 if vs == vd else (1 if vd > vs else 2)))
    return tuple(out)


def transition_classes(sample, matrix, merge):
    """The classes of the sample's alive transitions (space by space, each in
    ascending transition id) grouped by change-code tuple over all features,
    or one class per transition when not merging.  Returns (class per
    transition, code tuple per class, size per class, dead-end flag per class:
    some member leads into a dead end)."""
    rows = matrix.tolist()
    feats = range(len(rows))
    keys, codes, dead = [], [], []
    for k, sp in enumerate(sample.spaces):
        off = sample.offsets[k]
        for t in range(sp.n_transitions):
            s, d = int(sp.src[t]), int(sp.dst[t])
            if not sp.alive[s]:
                continue
            code = change_code(rows, feats, off + s, off + d)
            keys.append(code if merge else (k, t))
            codes.append(code)
            dead.append(sp.goal_dist[d] < 0)
    class_of, groups = group_by_first_occurrence(keys)
    return (class_of, [codes[g[0]] for g in groups], [len(g) for g in groups],
            [any(dead[i] for i in g) for g in groups])


def unmerged_classes(sample, matrix):
    """The unmerged encoding's classes, one per alive transition:
    (`encoding.Classes` built from transition_classes without merging,
    class_of as an int64 array)."""
    from genpol.encoding import Classes
    class_of, codes, size, dead = transition_classes(sample, matrix, merge=False)
    codes = np.array(codes, dtype=np.uint8).reshape(len(codes), len(matrix))
    return (Classes(codes, np.array(dead, dtype=bool), np.array(size, dtype=np.int64)),
            np.array(class_of, dtype=np.int64))


def chained_pairs(classes):
    """Start pairs for classes that may share a code: each class chained to
    the first class with its code, and every pair of those first classes.
    The chain equalities and the first-class pairs imply the separation of
    every class pair, so the set is closed from the first round."""
    first = {}
    pairs = set()
    for c, row in enumerate(classes.codes.tolist()):
        rep = first.setdefault(tuple(row), c)
        if rep != c:
            pairs.add((rep, c))
    pairs.update(itertools.combinations(sorted(first.values()), 2))
    return sorted(pairs)


def separation_violations(codes, phi, goods):
    """The class pairs a (phi, goods) solution leaves unseparated: classes
    grouped by their codes on phi (a dict of lists); in each group with good
    and bad classes, the first good class with every bad one and the first
    bad class with every other good one.  Sorted (smaller, larger) pairs."""
    good = set(goods)
    groups = {}
    for c, code in enumerate(codes):
        groups.setdefault(tuple(code[f] for f in phi), []).append(c)
    out = set()
    for members in groups.values():
        ins = [c for c in members if c in good]
        outs = [c for c in members if c not in good]
        if ins and outs:
            out.update((min(ins[0], c), max(ins[0], c)) for c in outs)
            out.update((min(c, outs[0]), max(c, outs[0])) for c in ins[1:])
    return sorted(out)


# -- theory variables and pool dumps ------------------------------------------
# Read off `encoding.Theory`'s public arrays and `features.parse_feature_line`.

def select_var(f):
    """The WCNF variable of selecting pool feature f."""
    return f + 1


def good_var(theory, c):
    """The WCNF variable of class c being good."""
    return theory.n_select + c + 1


def value_var(theory, g, d):
    """The WCNF variable of global state g taking value d."""
    return int(theory.v_first[g] + d - theory.goal_dist[g])


def tags(theory):
    """The family tag of each hard clause, in clause order: the lines of
    the `.tags` file that `genpol encode` writes."""
    return [tag for tag, count in theory.families for _ in range(count)]


def value_labels(theory, model):
    """Per global state, the least value d of the V(s, d) that the model
    sets, -1 where it sets none."""
    values = []
    for g, (dist, count) in enumerate(zip(theory.goal_dist.tolist(),
                                          theory.v_count.tolist())):
        on = [d for d in range(dist, dist + count) if model[value_var(theory, g, d)]]
        values.append(on[0] if on else -1)
    return values


def least_labels(theory, model):
    """`model` with every V(s, d) cleared but each state's least label."""
    out = list(model)
    for g, least in enumerate(value_labels(theory, model)):
        dist = int(theory.goal_dist[g])
        for d in range(dist, dist + int(theory.v_count[g])):
            out[value_var(theory, g, d)] = int(d == least)
    return out


def exactly_one(theory):
    """The theory's WCNF read with "every solvable state takes exactly one
    value": its clauses plus -V(s, a) | -V(s, b) for each pair of labels
    a < b of a state, the construction `encoding` used to emit."""
    pairs = [[-a, -b] for first, count in zip(theory.v_first.tolist(),
                                              theory.v_count.tolist())
             for a, b in itertools.combinations(range(first, first + count), 2)]
    return dataclasses.replace(theory.wcnf, hard=Clauses.join(
        [theory.wcnf.hard, Clauses.from_lists(pairs)]))


def labeling_holds(sample, class_of, goods, values):
    """Whether exactly the solvable states have a value (`values` per global
    state, as `value_labels`), and every transition of a good class into an
    alive state goes to a lower one."""
    good = set(goods)
    return all((v >= 0) == (d >= 0) for v, d in zip(
        values, sample.goal_dist.tolist())) and all(
        values[t] < values[s] for s, t, c in zip(
            sample.src.tolist(), sample.dst.tolist(), class_of.tolist())
        if c in good and sample.alive[t])


def load_pool(text):
    """The FeaturePool of a pool dump (`FeaturePool.dump`)."""
    from genpol import concepts as co
    from genpol.features import FeaturePool, parse_feature_line

    feats = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            feats.append(parse_feature_line(line, len(feats)))
        except co.ExpressionParseError as e:
            raise co.ExpressionParseError(f"line {ln}: bad feature: {e}") from e
    return FeaturePool(feats, np.array([f.weight for f in feats], dtype=np.int64))


# -- policy existence over a feature subset ----------------------------------------

def policy_exists(space, matrix_rows, phi, v_slack):
    """Does some good/bad labeling of the phi-induced transition classes give
    a policy that covers every alive state, avoids dead ends, and admits
    goal-distance labels V with gd(s) <= V(s) <= v_slack * gd(s), strictly
    decreasing along good transitions into non-goal states?  Requires phi to
    separate goal from non-goal states by boolean signature.

    Counterexample-guided subset search: start from all candidate classes;
    every infeasibility witness (a compatible cycle, or the chain realizing
    a V overflow) must lose at least one class in any valid subset, so
    branching on witness classes is complete.  Memoized on the class set.
    """
    def bool_sig(s):
        return tuple(matrix_rows[f][s] > 0 for f in phi)

    goal_sigs = {bool_sig(s) for s in range(space.n_states) if space.is_goal[s]}
    if any(bool_sig(s) in goal_sigs for s in range(space.n_states)
           if not space.is_goal[s]):
        return False

    # phi-induced classes over alive-source transitions
    ts = [t for t in range(space.n_transitions) if space.alive[space.src[t]]]
    _, groups = group_by_first_occurrence(
        [change_code(matrix_rows, phi, space.src[t], space.dst[t]) for t in ts])
    members = [[ts[i] for i in group] for group in groups]

    candidates = {c for c, ts in enumerate(members)
                  if all(not space.goal_dist[space.dst[t]] < 0 for t in ts)}
    state_classes = {}
    for c in candidates:
        for t in members[c]:
            state_classes.setdefault(space.src[t], set()).add(c)
    alive = [s for s in range(space.n_states) if space.alive[s]]

    def v_feasible(good):
        """None when V labels exist; otherwise a witness set of classes."""
        adj = {}
        edge_classes = {}
        for c in good:
            for t in members[c]:
                s, d = space.src[t], space.dst[t]
                if space.is_goal[d] or space.goal_dist[d] < 0:
                    continue
                adj.setdefault(s, set()).add(d)
                edge_classes.setdefault((s, d), set()).add(c)

        color = {}
        vmin = {}
        heavy_child = {}
        path = []

        def chain_witness(top):
            out = set()
            s = top
            while heavy_child.get(s) is not None:
                d = heavy_child[s]
                out |= edge_classes[(s, d)]
                s = d
            return out

        def dfs(s):
            color[s] = 1
            path.append(s)
            best = space.goal_dist[s]
            heavy_child[s] = None
            for d in sorted(adj.get(s, ())):
                if color.get(d) == 1:
                    cyc = path[path.index(d):] + [d]
                    bad = set()
                    for a, b in zip(cyc, cyc[1:]):
                        bad |= edge_classes[(a, b)]
                    return bad
                if color.get(d) != 2:
                    bad = dfs(d)
                    if bad is not None:
                        return bad
                if vmin[d] + 1 > best:
                    best = vmin[d] + 1
                    heavy_child[s] = d
            path.pop()
            color[s] = 2
            vmin[s] = best
            if best > v_slack * space.goal_dist[s]:
                return chain_witness(s)
            return None

        for s in alive:
            if color.get(s) != 2:
                bad = dfs(s)
                if bad is not None:
                    return bad
                path.clear()
        return None

    seen_sets = set()

    def search(good):
        key = frozenset(good)
        if key in seen_sets:
            return False
        seen_sets.add(key)
        if any(not (state_classes.get(s, set()) & good) for s in alive):
            return False
        bad = v_feasible(good)
        if bad is None:
            return True
        return any(search(good - {c}) for c in sorted(bad))

    return search(set(candidates))


# -- policy certificates -------------------------------------------------------

def _allows(policy, a, b):
    """Whether some rule of `policy` allows a move from valuation a to b,
    read literally off the rule records."""
    for rule in policy.rules:
        if any((a[c.feature] > 0) != c.positive for c in rule.body):
            continue
        for alt in rule.alternatives:
            moved = {e.feature for e in alt}
            effects_hold = all(
                {"set": b[e.feature] > 0, "clear": b[e.feature] == 0,
                 "inc": b[e.feature] > a[e.feature],
                 "dec": b[e.feature] < a[e.feature]}[e.kind] for e in alt)
            if effects_hold and all(a[f] == b[f] for f in range(len(a))
                                    if f not in moved):
                return True
    return False


def certificate(policy, space, vals):
    """Certificate facts of `policy` on a labeled space with per-state
    feature values `vals`: the number of allowed moves out of alive states,
    completeness, safety, the first completeness or safety witness in state
    order, acyclicity of the allowed moves among alive states (Kahn's
    algorithm), and those moves as {alive state: set of alive targets}."""
    alive = [s for s in range(space.n_states)
             if space.goal_dist[s] >= 0 and not space.is_goal[s]]
    alive_set = set(alive)
    allowed = {s: [] for s in alive}
    for t in range(space.n_transitions):
        s, d = space.src[t], space.dst[t]
        if s in alive_set and _allows(policy, list(vals[s]), list(vals[d])):
            allowed[s].append(t)

    witness = None
    for s in alive:
        if not allowed[s]:
            witness = f"alive state {s} has no compatible transition"
            break
        into_dead = [t for t in allowed[s] if space.goal_dist[space.dst[t]] < 0]
        if into_dead:
            t = into_dead[0]
            witness = (f"compatible transition {space.gp.actions[space.act[t]]} "
                       f"from state {s} reaches dead end {space.dst[t]}")
            break

    moves = {s: {space.dst[t] for t in allowed[s]} & alive_set for s in alive}
    indegree = {s: 0 for s in alive}
    for s in alive:
        for d in moves[s]:
            indegree[d] += 1
    free = [s for s in alive if indegree[s] == 0]
    removed = 0
    while free:
        s = free.pop()
        removed += 1
        for d in moves[s]:
            indegree[d] -= 1
            if indegree[d] == 0:
                free.append(d)

    return {"n_compatible": sum(len(ts) for ts in allowed.values()),
            "complete": all(allowed[s] for s in alive),
            "safe": all(space.goal_dist[space.dst[t]] >= 0
                        for ts in allowed.values() for t in ts),
            "witness": witness, "acyclic": removed == len(alive),
            "moves": moves}


def on_cycle(moves, state):
    """Whether `state` reaches itself along `moves` ({state: targets})."""
    seen, todo = set(), list(moves.get(state, ()))
    while todo:
        s = todo.pop()
        if s == state:
            return True
        if s not in seen:
            seen.add(s)
            todo.extend(moves.get(s, ()))
    return False


def check_descending(policy, gp, tuple_values, max_states=MAX_STATES):
    """Whether every policy-compatible transition out of an alive state of
    the full reachable space strictly decreases the given tuple
    lexicographically, with compatibility read from
    `Policy.compatible_mask`.  `tuple_values(row) -> tuple`, for a state's
    packed row.  Returns (holds, witness (src, dst, action name) or None)."""
    from genpol import concepts as co
    from genpol.space import expand_labeled

    space = expand_labeled(gp, max_states=max_states)
    vals = policy.evaluate(co.InstanceContext(gp), space.states)
    src, dst = space.src, space.dst
    compat = space.alive[src] & policy.compatible_mask(vals[src], vals[dst])
    tups = [tuple_values(s) for s in space.states]
    for s, d, a in zip(src[compat].tolist(), dst[compat].tolist(),
                       space.act[compat].tolist()):
        if not tups[d] < tups[s]:
            return False, (s, d, gp.actions[a])
    return True, None


# -- greedy execution ----------------------------------------------------------
# `genpol.policy.greedy_execute` before it evaluated successors in blocks,
# kept verbatim but for the name, the module prefixes and the successor
# rows, which come from the mask test of `transitions`: every step evaluates
# every successor.  `tests/test_policy.py` requires the same runs.

def eager_greedy_execute(policy, gp, max_steps=None, tie_break="first", seed=0):
    """Follows policy-compatible transitions from the initial state."""
    from genpol import concepts as co
    from genpol import policy as po

    po.check_max_steps(max_steps)
    po.check_tie_break(tie_break)
    if max_steps is None:
        max_steps = 10 * max(4, len(gp.objects)) ** 2
    rng = random.Random(seed)
    ictx = co.InstanceContext(gp)
    state = gp.init
    src = policy.evaluate(ictx, state[None])[0]
    visited = {state.tobytes()}
    trajectory: list = []
    for step in range(max_steps):
        if gp.is_goal(state):
            return po.ExecutionResult("goal", step, trajectory)
        _, aids, succ = gp.transitions(state[None])
        dst = policy.evaluate(ictx, succ)
        options = np.flatnonzero(policy.compatible_mask(
            np.broadcast_to(src, dst.shape), dst)).tolist()
        if not options:
            return po.ExecutionResult("no_compatible", step, trajectory)
        i = options[0] if tie_break == "first" else rng.choice(options)
        key = succ[i].tobytes()
        if key in visited:
            return po.ExecutionResult("cycle", step, trajectory)
        visited.add(key)
        trajectory.append(gp.actions[aids[i]])
        state, src = succ[i], dst[i]
    if gp.is_goal(state):
        return po.ExecutionResult("goal", max_steps, trajectory)
    return po.ExecutionResult("step_limit", max_steps, trajectory)


# -- SAT search ----------------------------------------------------------------
# The CDCL solver of `genpol.sat` before its hot path was rewritten, kept
# verbatim but for the class name.  `tests/test_sat.py` drives both through
# the same incremental sessions and requires the same search step for step.

UNASSIGNED = 2
BLOCK = 4096  # literals add_clauses examines at a time (or one clause)


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _dec(code: int) -> int:
    v = code >> 1
    return -v if code & 1 else v


class ReferenceCdcl:
    def __init__(self):
        self.nvars = 0
        self.clauses = []        # problem clauses (lists of encoded lits)
        self.learnts = []
        self.watches = [[], []]  # indexed by encoded literal
        self.val = [UNASSIGNED]  # indexed by variable
        self.level = [0]
        self.reason = [None]     # invariant: reason[v][0] is v's literal
        self.phase = [0]
        self.activity = [0.0]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.heap = []
        self.var_inc = 1.0
        self.ok = True
        self.core = []           # failed assumptions after an UNSAT call
        self.max_learnts = 4000
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        # Entry c is the int c: attached clauses share these objects rather
        # than holding one int object per literal.
        self.code_ints = np.zeros(0, object)

    # -- variables -----------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.val.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(0)
        self.activity.append(0.0)
        self.watches.append([])
        self.watches.append([])
        heappush(self.heap, (0.0, self.nvars))
        return self.nvars

    def ensure_vars(self, n: int):
        while self.nvars < n:
            self.new_var()

    # -- clause management ----------------------------------------------

    def _lit_value(self, code: int) -> int:
        v = self.val[code >> 1]
        return v if v == UNASSIGNED else v ^ (code & 1)

    def add_clause(self, lits) -> bool:
        """Add a problem clause (signed ints).  False means the formula is
        now unsatisfiable at level 0."""
        if not self.ok:
            return False
        self._cancel_until(0)
        seen = set()
        clause = []
        for lit in lits:
            self.ensure_vars(abs(lit))
            code = _enc(lit)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            v = self._lit_value(code)
            if v == 1:
                return True  # satisfied at level 0
            if v == 0:
                continue     # falsified at level 0
            seen.add(code)
            clause.append(code)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self._attach(clause)
        self.clauses.append(clause)
        return True

    def add_clauses(self, lits, starts) -> bool:
        """Adds clause i = lits[starts[i]:starts[i + 1]] (signed ints) for
        each i in order, leaving the state add_clause on each in turn leaves:
        the same clause lists, watch order, level-0 trail and heap.

        A clause of two or more distinct variables, none of them assigned,
        is attached as it is, its literals encoded in numpy.  The others
        (units, empty clauses, repeated variables, and clauses over a
        variable assigned at level 0 by the time they are reached) go
        through add_clause in their turn.  Clauses are examined about BLOCK
        literals at a time, so the temporaries stay small beside the clause
        lists."""
        if not self.ok:
            return False
        lits = np.asarray(lits, np.int64)
        starts = np.asarray(starts, np.int64)
        n = len(starts) - 1
        if n <= 0:
            return True
        self._cancel_until(0)
        top = max(self.nvars, int(lits.max(initial=0)), -int(lits.min(initial=0)))
        assigned = np.zeros(top + 1, bool)  # the variables of trail[:marked]
        if len(self.code_ints) < 2 * top + 2:  # grown by doubling
            self.code_ints = np.arange(4 * top + 4).astype(object)
        marked = pos = 0
        while pos < n:
            end = max(pos + 1, int(np.searchsorted(starts, starts[pos] + BLOCK,
                                                   "right")) - 1)
            m = end - pos
            block = lits[starts[pos]:starts[end]]
            offsets = starts[pos:end + 1] - starts[pos]
            size = np.diff(offsets)
            var = np.abs(block)
            local = np.repeat(np.arange(m), size)
            # add_clause takes these whatever the assignment: units, empty
            # clauses and clauses naming a variable twice
            key = np.sort(local * (top + 1) + var)
            fixed = size < 2
            fixed[key[1:][key[1:] == key[:-1]] // (top + 1)] = True
            flat = self.code_ints[(var << 1) | (block < 0)].tolist()
            bounds = offsets.tolist()
            at = 0
            while at < m:
                if marked < len(self.trail):
                    assigned[[code >> 1 for code in self.trail[marked:]]] = True
                    marked = len(self.trail)
                special = fixed[at:].copy()
                rest = slice(bounds[at], None)
                special[local[rest][assigned[var[rest]]] - at] = True
                for stop in (np.flatnonzero(special) + at).tolist() + [m]:
                    if stop > at:
                        self.ensure_vars(int(var[bounds[at]:bounds[stop]].max()))
                        for a, b in zip(bounds[at:stop], bounds[at + 1:stop + 1]):
                            clause = flat[a:b]
                            self._attach(clause)
                            self.clauses.append(clause)
                    at = stop
                    if stop == m:
                        break
                    if not self.add_clause(block[bounds[stop]:bounds[stop + 1]].tolist()):
                        return False
                    at = stop + 1
                    if len(self.trail) > marked:  # new level-0 values: look again
                        break
            pos = end
        return True

    def _attach(self, clause):
        # watches[lit] lists the clauses currently watching `lit`; a clause
        # is inspected exactly when one of its watched literals is falsified.
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- assignment -------------------------------------------------------

    def _enqueue(self, code: int, reason):
        v = code >> 1
        self.val[v] = 1 ^ (code & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = self.val[v]
        self.trail.append(code)

    def _cancel_until(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            v = self.trail[i] >> 1
            self.val[v] = UNASSIGNED
            self.reason[v] = None
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound

    # -- propagation -----------------------------------------------------

    def _propagate(self):
        """Runs unit propagation; returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            code = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            falsified = code ^ 1
            ws = self.watches[falsified]
            keep = []
            n = len(ws)
            i = 0
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = self.val[first >> 1]
                if fv != UNASSIGNED and fv == (1 ^ (first & 1)):
                    keep.append(c)
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    lv = self.val[lk >> 1]
                    if lv == UNASSIGNED or lv == (1 ^ (lk & 1)):
                        c[1], c[k] = c[k], c[1]
                        self.watches[lk].append(c)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(c)
                if fv == UNASSIGNED:
                    self._enqueue(first, c)
                else:
                    keep.extend(ws[i:])
                    ws[:] = keep
                    self.qhead = len(self.trail)
                    return c
            ws[:] = keep
        return None

    # -- learning ----------------------------------------------------------

    def _bump(self, v: int):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            for u in range(1, self.nvars + 1):
                if self.val[u] == UNASSIGNED:
                    heappush(self.heap, (-self.activity[u], u))
        elif self.val[v] == UNASSIGNED:
            heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl):
        """First-UIP conflict analysis.  Returns (learnt, backjump level)."""
        cur = len(self.trail_lim)
        seen = bytearray(self.nvars + 1)
        learnt = [0]
        counter = 0
        idx = len(self.trail) - 1
        p = None
        c = confl
        while True:
            for q in (c if p is None else c[1:]):
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            c = self.reason[p >> 1]
        learnt[0] = p ^ 1

        out = [learnt[0]]
        for q in learnt[1:]:
            r = self.reason[q >> 1]
            if r is None:
                out.append(q)
                continue
            for x in r[1:]:
                if not seen[x >> 1] and self.level[x >> 1] > 0:
                    out.append(q)
                    break
        learnt = out
        if len(learnt) == 1:
            return learnt, 0
        m = max(range(1, len(learnt)), key=lambda i: self.level[learnt[i] >> 1])
        learnt[1], learnt[m] = learnt[m], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _analyze_final(self, failed_code: int, assumption_set) -> list:
        """Assumptions responsible for forcing `failed_code` true (which
        contradicts the assumption failed_code ^ 1).  Signed literals."""
        core = [_dec(failed_code ^ 1)]
        v0 = failed_code >> 1
        if self.level[v0] == 0:
            return core
        seen = bytearray(self.nvars + 1)
        seen[v0] = 1
        for i in range(len(self.trail) - 1, -1, -1):
            code = self.trail[i]
            v = code >> 1
            if not seen[v]:
                continue
            r = self.reason[v]
            if r is None:
                if code in assumption_set and code != (failed_code ^ 1):
                    core.append(_dec(code))
            else:
                for q in r[1:]:
                    if self.level[q >> 1] > 0:
                        seen[q >> 1] = 1
            seen[v] = 0
        return core

    # -- search ------------------------------------------------------------

    def _decide_var(self) -> int:
        while self.heap:
            act, v = heappop(self.heap)
            if self.val[v] == UNASSIGNED and -act == self.activity[v]:
                return v
        for v in range(1, self.nvars + 1):
            if self.val[v] == UNASSIGNED:
                return v
        return 0

    def _reduce_learnts(self):
        locked = {id(self.reason[code >> 1]) for code in self.trail
                  if self.reason[code >> 1] is not None}
        self.learnts.sort(key=len)
        removed = set()
        kept = []
        half = len(self.learnts) // 2
        for i, c in enumerate(self.learnts):
            if i >= half and len(c) > 2 and id(c) not in locked:
                removed.add(id(c))
            else:
                kept.append(c)
        if removed:
            self.learnts = kept
            for ws in self.watches:
                ws[:] = [c for c in ws if id(c) not in removed]

    def solve(self, assumptions=(), time_limit=None, conflict_limit=None) -> bool:
        """True iff satisfiable under `assumptions` (signed ints).  When False
        and assumptions were given, self.core is a subset of them jointly
        inconsistent with the clauses (empty core: unsatisfiable outright)."""
        self.core = []
        if not self.ok:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            return False
        codes = [_enc(a) for a in assumptions]
        for code in codes:
            self.ensure_vars(code >> 1)
        assumption_set = set(codes)
        deadline = None if time_limit is None else time.monotonic() + time_limit
        start_conflicts = self.conflicts
        since_restart = 0
        restart_idx = 1
        restart_limit = 100 * _luby(restart_idx)

        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    v = self._lit_value(learnt[0])
                    if v == 0:
                        self.ok = False
                        return False
                    if v == UNASSIGNED:
                        self._enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self.learnts.append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                if since_restart >= restart_limit:
                    restart_idx += 1
                    restart_limit = 100 * _luby(restart_idx)
                    since_restart = 0
                    self._cancel_until(0)
                if len(self.learnts) >= self.max_learnts:
                    self._reduce_learnts()
                    self.max_learnts += 500
                if deadline is not None and self.conflicts % 256 == 0 \
                        and time.monotonic() > deadline:
                    raise SolverTimeoutError("SAT search exceeded time limit")
                if conflict_limit is not None \
                        and self.conflicts - start_conflicts > conflict_limit:
                    raise SolverTimeoutError("SAT search exceeded conflict limit")
                continue

            if len(self.trail_lim) < len(codes):
                code = codes[len(self.trail_lim)]
                v = self._lit_value(code)
                if v == 0:
                    self.core = self._analyze_final(code ^ 1, assumption_set)
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                if v == UNASSIGNED:
                    self.decisions += 1
                    self._enqueue(code, None)
                continue

            v = self._decide_var()
            if v == 0:
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue((v << 1) | (self.phase[v] ^ 1), None)

    def model(self) -> list:
        """Values after a satisfiable solve(); entry i is variable i (0/1)."""
        return [0] + [1 if self.val[v] == 1 else 0
                      for v in range(1, self.nvars + 1)]


def _luby(i: int) -> int:
    """1-based Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, ..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i != (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)
