"""Independent reference implementations used to cross-check the package.

Everything here favors clarity over speed: plain dict/set semantics, full
enumeration, no bit tricks.  Results are compared against the real modules
in the tests; the two sides share no code paths.
"""

import itertools


# -- grounding ---------------------------------------------------------------

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
                    return (a.pred,) + tuple(env.get(x, x) for x in a.args)
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
                return (a.pred,) + tuple(env.get(x, x) for x in a.args)
            if all(ground(p) in ever_true for p in schema.pre):
                names.append(f"{schema.name}({','.join(binding)})")
    return sorted(names)


# -- concept evaluation --------------------------------------------------------

def naive_eval_state(expr, gp, state):
    """Set-semantics evaluation of a concept or role expression on a ground
    state; returns a set of objects or of object pairs."""
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
            r = set(role(e.base))
            while True:
                extra = {(x, z) for (x, y) in r for (y2, z) in r
                         if y2 == y} - r
                if not extra:
                    return r
                r |= extra
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
    frontier = set(src)
    seen = set(src)
    dist = 0
    while frontier:
        dist += 1
        nxt = {y for x in frontier for (x2, y) in rol
               if x2 == x and y in res and y not in seen}
        if nxt & tgt:
            return dist
        seen |= nxt
        frontier = nxt
    return m + 1


# -- weighted MaxSAT -------------------------------------------------------------

def brute_force_wcnf(problem):
    """Minimum soft cost over all assignments, or None when the hard part is
    unsatisfiable.  2^n enumeration."""
    n = problem.nvars
    best = None
    for bits in itertools.product((False, True), repeat=n):
        def sat(clause):
            return any((bits[abs(l) - 1]) == (l > 0) for l in clause)
        if not all(sat(c) for c in problem.hard):
            continue
        cost = sum(w for w, c in problem.soft if not sat(c))
        if best is None or cost < best:
            best = cost
    return best


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
    class_ids = {}
    members = []
    for t in range(space.n_transitions):
        s, d = space.src[t], space.dst[t]
        if not space.alive[s]:
            continue
        code = []
        for f in phi:
            vs, vd = matrix_rows[f][s], matrix_rows[f][d]
            code.append((vs > 0, 0 if vs == vd else (1 if vd > vs else 2)))
        c = class_ids.setdefault(tuple(code), len(class_ids))
        if c == len(members):
            members.append([])
        members[c].append(t)

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
            witness = (f"compatible transition {space.gp.actions[space.act[t]].name} "
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
