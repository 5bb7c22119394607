"""Feature-based general policies: representation, extraction, execution.

A policy is a set of rules over a feature subset.  Rule bodies are
conditions on the boolean counterparts of the features (a boolean holds or
not; a numeric is zero or positive).  Each rule offers one or more
qualitative effect alternatives; a state transition matches an alternative
when every mentioned feature changes as stated (true/false for booleans,
strictly up/down for numerics) and every unmentioned feature keeps its exact
value.  A transition is policy-compatible when some rule with a satisfied
body has a matching alternative.

Extraction turns the good equivalence classes of a theory model into rules:
classes are grouped by the source valuation (one rule per distinct body) and
each class contributes its change profile as one alternative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from genpol import concepts as co
from genpol.encoding import FLAT, UP, validate_solution
from genpol.errors import InternalInvariantError, PolicyError
from genpol.features import MAX_BATCH_OBJECTS, feature_values, parse_feature
from genpol.space import expand_labeled

SET_TRUE = "set"
SET_FALSE = "clear"
INC = "inc"
DEC = "dec"


@dataclass(frozen=True)
class Condition:
    feature: int
    positive: bool  # boolean feature: holds; numeric feature: value > 0


@dataclass(frozen=True)
class Effect:
    feature: int
    kind: str  # SET_TRUE | SET_FALSE | INC | DEC


@dataclass(frozen=True)
class Rule:
    body: tuple        # Conditions, sorted by feature
    alternatives: tuple  # tuples of Effects, each sorted by feature

    def body_satisfied(self, values) -> bool:
        return all((values[c.feature] > 0) == c.positive for c in self.body)


class Policy:
    def __init__(self, features: list, rules: list):
        self.features = features  # Feature objects, policy-local indices
        self.rules = rules

    # -- semantics ---------------------------------------------------------

    def evaluate(self, sctx: co.StateContext) -> tuple:
        return tuple(f.evaluate(sctx) for f in self.features)

    def _alternative_matches(self, alt, src, dst) -> bool:
        mentioned = 0
        for e in alt:
            v0, v1 = src[e.feature], dst[e.feature]
            if e.kind == SET_TRUE:
                ok = v1 > 0
            elif e.kind == SET_FALSE:
                ok = v1 == 0
            elif e.kind == INC:
                ok = v1 > v0
            else:
                ok = v1 < v0
            if not ok:
                return False
            mentioned |= 1 << e.feature
        for f in range(len(self.features)):
            if not (mentioned >> f) & 1 and src[f] != dst[f]:
                return False
        return True

    def compatible(self, src, dst) -> bool:
        """Whether a transition with these feature valuations is a policy move."""
        for rule in self.rules:
            if not rule.body_satisfied(src):
                continue
            for alt in rule.alternatives:
                if self._alternative_matches(alt, src, dst):
                    return True
        return False

    def compatible_mask(self, src, dst) -> np.ndarray:
        """`compatible` for many transitions at once: `src` and `dst` are
        int arrays [n_transitions, n_features]; returns one bool each."""
        same = src == dst
        out = np.zeros(len(src), dtype=bool)
        for rule in self.rules:
            body = np.ones(len(src), dtype=bool)
            for c in rule.body:
                body &= (src[:, c.feature] > 0) == c.positive
            for alt in rule.alternatives:
                match = body.copy()
                for e in alt:
                    v0, v1 = src[:, e.feature], dst[:, e.feature]
                    if e.kind == SET_TRUE:
                        match &= v1 > 0
                    elif e.kind == SET_FALSE:
                        match &= v1 == 0
                    elif e.kind == INC:
                        match &= v1 > v0
                    else:
                        match &= v1 < v0
                mentioned = {e.feature for e in alt}
                kept = [f for f in range(len(self.features)) if f not in mentioned]
                out |= match & same[:, kept].all(axis=1)
        return out

    # -- serialization -------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for i, f in enumerate(self.features):
            kind = "bool" if f.is_boolean else "num"
            lines.append(f"feature {i} {f.weight} {kind} {f.render()}")
        for rule in self.rules:
            body = " ".join(self._cond_str(c) for c in rule.body) or "true"
            alts = " | ".join(
                " ".join(self._eff_str(e) for e in alt) or "nop"
                for alt in rule.alternatives)
            lines.append(f"rule {body} -> {alts}")
        return "\n".join(lines) + "\n"

    def _cond_str(self, c: Condition) -> str:
        if self.features[c.feature].is_boolean:
            return f"f{c.feature}" if c.positive else f"!f{c.feature}"
        return f"f{c.feature}>0" if c.positive else f"f{c.feature}=0"

    def _eff_str(self, e: Effect) -> str:
        return {SET_TRUE: f"f{e.feature}", SET_FALSE: f"!f{e.feature}",
                INC: f"f{e.feature}++", DEC: f"f{e.feature}--"}[e.kind]


def parse_policy(text: str) -> Policy:
    features: list = []
    rules: list = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("feature "):
            try:
                _, idx, weight, kind, expr = line.split(maxsplit=4)
                if int(idx) != len(features):
                    raise PolicyError(f"line {ln}: feature ids must be dense")
                features.append(parse_feature(int(weight), kind, expr))
            except (ValueError, co.ExpressionParseError) as e:
                raise PolicyError(f"line {ln}: bad feature: {e}") from e
        elif line.startswith("rule "):
            try:
                head, tail = line[5:].split("->", 1)
            except ValueError:
                raise PolicyError(f"line {ln}: rule lacks '->'") from None
            conds = [_parse_cond(t, features, ln) for t in head.split()]
            body = tuple(sorted((c for c in conds if c is not None),
                                key=lambda c: c.feature))
            alts = []
            for part in tail.split("|"):
                effs = [_parse_eff(t, features, ln)
                        for t in part.split() if t != "nop"]
                alts.append(tuple(sorted(effs, key=lambda e: e.feature)))
            rules.append(Rule(body, tuple(alts)))
        else:
            raise PolicyError(f"line {ln}: unrecognized: '{raw}'")
    return Policy(features, rules)


def _feature_index(token: str, features: list, ln: int) -> int:
    if not token.startswith("f") or not token[1:].isdigit():
        raise PolicyError(f"line {ln}: bad feature reference '{token}'")
    i = int(token[1:])
    if i >= len(features):
        raise PolicyError(f"line {ln}: feature f{i} is not declared")
    return i


def _parse_cond(token: str, features: list, ln: int):
    if token == "true":
        return None
    if token.endswith(">0"):
        return Condition(_feature_index(token[:-2], features, ln), True)
    if token.endswith("=0"):
        return Condition(_feature_index(token[:-2], features, ln), False)
    if token.startswith("!"):
        return Condition(_feature_index(token[1:], features, ln), False)
    return Condition(_feature_index(token, features, ln), True)


def _parse_eff(token: str, features: list, ln: int) -> Effect:
    if token.endswith("++"):
        return Effect(_feature_index(token[:-2], features, ln), INC)
    if token.endswith("--"):
        return Effect(_feature_index(token[:-2], features, ln), DEC)
    if token.startswith("!"):
        return Effect(_feature_index(token[1:], features, ln), SET_FALSE)
    return Effect(_feature_index(token, features, ln), SET_TRUE)


# ---------------------------------------------------------------------------
# Extraction from a theory model
# ---------------------------------------------------------------------------

def extract_policy(pool, phi: list, classes: list, goods: list,
                   check: bool = True) -> Policy:
    """Builds the policy of a model.  `phi` and `goods` are the selected
    feature ids and good class ids of the decoded solution."""
    if check:
        bad = validate_solution(classes, phi, goods)
        if bad:
            raise InternalInvariantError(
                f"model does not separate good from bad classes: pairs {bad[:5]}")
    features = [pool.features[f] for f in phi]
    rules: dict = {}
    for c in goods:
        codes = classes[c].codes
        body = []
        effects = []
        for local, f in enumerate(phi):
            code = codes[f]
            src_true = bool(code >> 2)
            body.append(Condition(local, src_true))
            direction = code & 3
            if direction == FLAT:
                continue
            if features[local].is_boolean:
                effects.append(Effect(local, SET_TRUE if direction == UP else SET_FALSE))
            else:
                effects.append(Effect(local, INC if direction == UP else DEC))
        key = tuple(body)
        rules.setdefault(key, [])
        alt = tuple(effects)
        if alt not in rules[key]:
            rules[key].append(alt)
    out = [Rule(body, tuple(sorted(alts, key=lambda a: tuple(
        (e.feature, e.kind) for e in a)))) for body, alts in rules.items()]
    out.sort(key=lambda r: tuple((c.feature, not c.positive) for c in r.body))
    return Policy(features, out)


# ---------------------------------------------------------------------------
# Execution and verification
# ---------------------------------------------------------------------------

@dataclass
class ExecutionResult:
    status: str        # goal | no_compatible | cycle | step_limit
    steps: int
    trajectory: list   # action names, in order

    @property
    def solved(self) -> bool:
        return self.status == "goal"


def greedy_execute(policy: Policy, gp, max_steps: int | None = None,
                   tie_break: str = "first", seed: int = 0) -> ExecutionResult:
    """Follows policy-compatible transitions from the initial state."""
    if max_steps is None:
        max_steps = 10 * max(4, len(gp.objects)) ** 2
    rng = random.Random(seed)
    ictx = co.InstanceContext(gp)
    cache: dict = {}

    def values(state):
        got = cache.get(state)
        if got is None:
            got = policy.evaluate(co.state_context(ictx, state))
            cache[state] = got
        return got

    state = gp.init
    visited = {state}
    trajectory: list = []
    for step in range(max_steps):
        if gp.goal <= state:
            return ExecutionResult("goal", step, trajectory)
        src_vals = values(state)
        options = [(aid, nxt) for aid, nxt in gp.successors(state)
                   if policy.compatible(src_vals, values(nxt))]
        if not options:
            return ExecutionResult("no_compatible", step, trajectory)
        aid, nxt = options[0] if tie_break == "first" else rng.choice(options)
        if nxt in visited:
            return ExecutionResult("cycle", step, trajectory)
        visited.add(nxt)
        trajectory.append(gp.actions[aid].name)
        state = nxt
    if gp.goal <= state:
        return ExecutionResult("goal", max_steps, trajectory)
    return ExecutionResult("step_limit", max_steps, trajectory)


@dataclass
class VerifyResult:
    ok: bool
    complete: bool
    safe: bool         # no compatible move into a dead end
    acyclic: bool
    witness: str | None
    n_states: int
    n_compatible: int


def _state_values(policy: Policy, gp, space):
    """Feature values of every state of `space`, [n_states, n_features]:
    batched when the instance fits in int64 masks, per state otherwise."""
    ictx = co.InstanceContext(gp)
    if ictx.n > MAX_BATCH_OBJECTS:
        return [policy.evaluate(co.state_context(ictx, s)) for s in space.states]
    return feature_values(policy.features, ictx, space.states)


def _compatible(policy: Policy, space, vals) -> np.ndarray:
    """Whether each transition leaves an alive state and is policy-compatible,
    given per-state feature values `vals` (any 2-D int array-like)."""
    vals = np.asarray(vals, dtype=np.int64)
    src, dst = space.src, space.dst
    return space.alive[src] & policy.compatible_mask(vals[src], vals[dst])


def verify_space(policy: Policy, space, vals) -> VerifyResult:
    """Checks the certificate conditions on an expanded, labeled space:
    every alive state has a compatible transition, none leads to a dead end,
    and the compatible subgraph is acyclic.  Together these imply the policy
    solves the instance from every solvable reachable state.  `vals` holds
    the policy's feature values per state."""
    src, dst, alive = space.src, space.dst, space.alive
    compat = _compatible(policy, space, vals)
    n_compat = int(compat.sum())
    unsafe = np.flatnonzero(compat & (space.goal_dist[dst] < 0))
    stuck = np.flatnonzero(alive & (np.bincount(src[compat],
                                                minlength=space.n_states) == 0))
    safe, complete = not len(unsafe), not len(stuck)

    # The first witness in state order: a compatible move into a dead end
    # (transitions are stored by source state), or a state with no move.
    witness = None
    if not safe and (complete or src[unsafe[0]] < stuck[0]):
        t = int(unsafe[0])
        witness = (f"compatible transition {space.gp.actions[space.act[t]].name} "
                   f"from state {src[t]} reaches dead end {dst[t]}")
    elif not complete:
        witness = f"alive state {int(stuck[0])} has no compatible transition"

    keep = np.flatnonzero(compat & alive[dst])
    start = np.searchsorted(src[keep], np.arange(space.n_states + 1))
    cycle_at = _find_cycle(np.flatnonzero(alive).tolist(), start.tolist(),
                           dst[keep].tolist())
    acyclic = cycle_at is None
    if not acyclic:
        witness = witness or f"compatible cycle through state {cycle_at}"

    ok = complete and safe and acyclic
    return VerifyResult(ok, complete, safe, acyclic, witness,
                        space.n_states, n_compat)


def verify_exhaustive(policy: Policy, gp, max_states: int = 10 ** 6) -> VerifyResult:
    """`verify_space` on the full reachable space of a ground instance."""
    space = expand_labeled(gp, max_states=max_states)
    return verify_space(policy, space, _state_values(policy, gp, space))


def _find_cycle(roots: list, start: list, succ: list):
    """First node on a cycle of the graph whose node v has successors
    succ[start[v]:start[v + 1]], searching from `roots` in order, or None.
    Iterative three-color depth-first search."""
    color = [0] * (len(start) - 1)  # 0 unseen, 1 active, 2 done
    for root in roots:
        if color[root]:
            continue
        stack = [(root, start[root])]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            end = start[node + 1]
            while i < end:
                nxt = succ[i]
                i += 1
                if color[nxt] == 1:
                    return nxt
                if color[nxt] == 0:
                    stack[-1] = (node, i)
                    color[nxt] = 1
                    stack.append((nxt, start[nxt]))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def check_descending(policy: Policy, gp, tuple_values,
                     max_states: int = 10 ** 6) -> tuple:
    """Whether every policy-compatible transition strictly decreases the
    given tuple lexicographically.  `tuple_values(state) -> tuple`.
    Returns (holds, witness transition or None)."""
    space = expand_labeled(gp, max_states=max_states)
    compat = _compatible(policy, space, _state_values(policy, gp, space))
    tups = [tuple_values(s) for s in space.states]
    for sid, did, aid in zip(space.src[compat].tolist(), space.dst[compat].tolist(),
                             space.act[compat].tolist()):
        if not tups[did] < tups[sid]:
            return False, (sid, did, gp.actions[aid].name)
    return True, None
