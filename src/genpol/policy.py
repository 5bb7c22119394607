"""Feature-based general policies: representation, extraction, execution.

A policy is a set of rules over a feature subset.  Rule bodies are
conditions on the boolean counterparts of the features (a boolean holds or
not; a numeric is zero or positive).  Each rule offers one or more
qualitative effect alternatives; a state transition matches an alternative
when every mentioned feature changes as stated (true/false for booleans,
strictly up/down for numerics) and every unmentioned feature keeps its exact
value.  A transition is policy-compatible when some rule with a satisfied
body has a matching alternative.  A feature named twice in a body or an
alternative must meet both tokens.  In a policy file, each rule token has
one form, in `_CONDITION_TOKENS` or `_EFFECT_TOKENS`, which `Policy.dump`
prints and `parse_policy` reads back.

In verification, feature values come as int64 tables, one row per state
(`Policy.evaluate`), and compatibility is decided for one block of
transitions at once (`Policy.compatible_mask`): `verify_space` walks a
space's transitions `MASK_BLOCK` at a time and gathers the feature values
of one block only.  Each rule alternative is compiled to the change codes
it allows per feature, so a transition costs one bit test per feature and
alternative; `Policy.compatible` makes the same test on one transition in
plain Python.
Greedy execution keeps the feature values of one state in a
`concepts.DeltaContext`, which evaluates the first state and then each
successor by deltas.  A step takes the ids of the actions applicable in one
state from `GroundProblem.successors`, which tests only the actions keyed
by bits the state holds, and reads the moves among them from a generator
(`_moves`), each move (action id, feature values, change) in action order;
the generator evaluates the successors one at a time from the actions'
bits, only as far as the moves are read, and tests each with
`Policy.compatible`.  The "first" tie break takes the first move; the
"random" tie break draws one of all of them.  Stepping builds the one
successor row of the chosen action (`GroundProblem.apply`), for the cycle
check, and applies the move's change without evaluating anything.

Extraction turns the good equivalence classes of a theory model into rules:
classes are grouped by the source valuation (one rule per distinct body) and
each class contributes its change profile as one alternative.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np

from genpol import concepts as co
from genpol.encoding import FLAT, UP, Classes, validate_solution
from genpol.errors import GenpolError, InternalInvariantError, PolicyError
from genpol.features import parse_feature_line, render_feature_line
from genpol.space import MAX_STATES, expand_labeled, predecessors

SET_TRUE = "set"
SET_FALSE = "clear"
INC = "inc"
DEC = "dec"

BLOCK_STATES = 8192  # states evaluated together by `Policy.evaluate`
MASK_BLOCK = 1 << 16  # transitions whose feature values `verify_space` gathers at once
TIE_BREAKS = ("first", "random")  # how `greedy_execute` picks among moves


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


# A feature's change from value v0 to v1 (both non-negative) has the code
# 6 * (v0 > 0) + 3 * (v1 > 0) + sign(v1 - v0) + 1.  As 12-bit sets: the codes
# with v0 > 0, with v1 > 0, all codes, and those of v1 = v0, > v0 and < v0.
_V0, _V1, _ALL = 0b111111000000, 0b111000111000, 0b111111111111
_SAME, _UP, _DOWN = 0b010010010010, 0b100100100100, 0b001001001001
_EFFECTS = {SET_TRUE: _V1, SET_FALSE: _ALL ^ _V1, INC: _UP, DEC: _DOWN}


class Policy:
    def __init__(self, features: list, rules: list):
        self.features = features  # Feature objects, policy-local indices
        self.rules = rules
        # Per (rule, alternative), the compiled test of `compatible_mask`:
        # per feature, the set of its change codes that meet the body and
        # the alternative (a bool table [features, 12], packed as uint16).
        # A feature named twice must meet both tokens.
        masks = []
        for rule in rules:
            body: dict = {}
            for c in rule.body:
                body[c.feature] = body.get(c.feature, _ALL) & (_V0 if c.positive else _ALL ^ _V0)
            for alt in rule.alternatives:
                change: dict = {}
                for e in alt:
                    change[e.feature] = change.get(e.feature, _ALL) & _EFFECTS[e.kind]
                masks.append([change.get(f, _SAME) & body.get(f, _ALL)
                              for f in range(len(features))])
        self._masks = np.array(masks, dtype=np.uint16).reshape(len(masks), len(features))
        # The same, each (rule, alternative) as one int for `compatible`:
        # feature f's 12 bits at bits 12 f to 12 f + 11.
        self._mask_ints = [sum(m << 12 * f for f, m in enumerate(row))
                           for row in self._masks.tolist()]

    # -- semantics ---------------------------------------------------------

    def evaluate(self, ictx: co.InstanceContext, states) -> np.ndarray:
        """int64 [len(states), n_features]: the feature values of states of
        one instance, evaluated `BLOCK_STATES` states at a time."""
        out = np.empty((len(states), len(self.features)), dtype=np.int64)
        for lo in range(0, len(states), BLOCK_STATES):
            ctx = co.state_context(ictx, states[lo:lo + BLOCK_STATES])
            for j, f in enumerate(self.features):
                out[lo:lo + BLOCK_STATES, j] = f.values(ctx)
        return out

    def compatible(self, src, dst) -> bool:
        """Whether a transition with these feature valuations is a policy
        move: `compatible_mask` of one transition, in plain Python.  Each
        feature sets the bit of its change code in its 12 bits of one int,
        and an alternative matches when it holds all of them."""
        codes = 0
        for f, (a, b) in enumerate(zip(src, dst)):
            codes |= 1 << int(12 * f + 6 * (a > 0) + 3 * (b > 0) + (b > a) - (b < a) + 1)
        n = len(self.features)
        return any((m & codes).bit_count() == n for m in self._mask_ints)

    def compatible_mask(self, src, dst) -> np.ndarray:
        """Whether each transition is a policy move: `src` and `dst` are int
        arrays [n_transitions, n_features] of the feature valuations before
        and after; returns one bool each.  Its temporaries grow with the
        transitions, so `verify_space` passes `MASK_BLOCK` at a time."""
        codes = np.ascontiguousarray((np.uint8(6) * (src > 0) + np.uint8(3) * (dst > 0)
                                      + np.uint8(1) + (dst > src) - (dst < src)).T)
        match = np.ones((len(self._masks), len(src)), dtype=bool)
        for f, bits in enumerate(np.left_shift(np.uint16(1), codes, dtype=np.uint16)):
            match &= (self._masks[:, f, None] & bits) != 0
        return match.any(axis=0)

    # -- serialization -------------------------------------------------------

    def dump(self) -> str:
        lines = [f"feature {render_feature_line(i, f)}"
                 for i, f in enumerate(self.features)]
        for rule in self.rules:
            body = " ".join(_CONDITION_TOKENS[self.features[c.feature].is_boolean, c.positive]
                            .format(c.feature) for c in rule.body) or "true"
            alts = " | ".join(
                " ".join(_EFFECT_TOKENS[e.kind].format(e.feature) for e in alt) or "nop"
                for alt in rule.alternatives)
            lines.append(f"rule {body} -> {alts}")
        return "\n".join(lines) + "\n"


# The rule tokens, ``{}`` the feature's id: a condition by (boolean feature,
# positive), an effect by kind.  Parsing inverts them and reads a token by
# its form alone, so `f0>0` may test a boolean feature and `f0` a numeric one.
_CONDITION_TOKENS = {(True, True): "f{}", (True, False): "!f{}",
                     (False, True): "f{}>0", (False, False): "f{}=0"}
_EFFECT_TOKENS = {SET_TRUE: "f{}", SET_FALSE: "!f{}", INC: "f{}++", DEC: "f{}--"}
_READ_CONDITION = {form: positive for (_, positive), form in _CONDITION_TOKENS.items()}
_READ_EFFECT = {form: kind for kind, form in _EFFECT_TOKENS.items()}
_TOKEN = re.compile(r"(!?)f([0-9]+)(.*)")


def parse_policy(text: str) -> Policy:
    features: list = []
    rules: list = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("feature "):
            try:
                features.append(parse_feature_line(line[len("feature "):],
                                                   len(features)))
            except co.ExpressionParseError as e:
                raise PolicyError(f"line {ln}: bad feature: {e}") from e
        elif line.startswith("rule "):
            try:
                head, tail = line[5:].split("->", 1)
            except ValueError:
                raise PolicyError(f"line {ln}: rule lacks '->'") from None
            body = _parse_tokens(head, "true", Condition, _READ_CONDITION, len(features), ln)
            alts = tuple(_parse_tokens(part, "nop", Effect, _READ_EFFECT, len(features), ln)
                         for part in tail.split("|"))
            rules.append(Rule(body, alts))
        else:
            raise PolicyError(f"line {ln}: unrecognized: '{raw}'")
    return Policy(features, rules)


def _parse_tokens(text: str, empty: str, make, forms: dict, n_features: int, ln: int):
    """The tokens of `text` but `empty`, each read as `make(feature, value)`
    with the value of its form in `forms`, sorted by feature."""
    got = []
    for token in text.split():
        if token == empty:
            continue
        m = _TOKEN.fullmatch(token)
        form = m and f"{m[1]}f{{}}{m[3]}"
        if form not in forms:
            raise PolicyError(f"line {ln}: bad token '{token}'")
        i = int(m[2])
        if i >= n_features:
            raise PolicyError(f"line {ln}: feature f{i} is not declared")
        got.append(make(i, forms[form]))
    return tuple(sorted(got, key=lambda x: x.feature))


# ---------------------------------------------------------------------------
# Extraction from a theory model
# ---------------------------------------------------------------------------

def extract_policy(pool, phi: list, classes: Classes, goods: list) -> Policy:
    """Builds the policy of a model.  `phi` and `goods` are the selected
    feature ids and good class ids of the decoded solution."""
    bad = validate_solution(classes, phi, goods)
    if bad:
        raise InternalInvariantError(
            f"model does not separate good from bad classes: pairs {bad[:5]}")
    features = [pool.features[f] for f in phi]
    rules: dict = {}
    for c in goods:
        body = []
        effects = []
        for local, code in enumerate(classes.codes[c, phi].tolist()):
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


def check_max_steps(max_steps: int | None):
    """Rejects a negative step limit; None is the default limit."""
    if max_steps is not None and max_steps < 0:
        raise GenpolError(f"max_steps must be non-negative, got {max_steps}")


def check_tie_break(tie_break: str):
    """Rejects a tie break not in `TIE_BREAKS`."""
    if tie_break not in TIE_BREAKS:
        raise GenpolError(f"unknown tie_break '{tie_break}'")


def greedy_execute(policy: Policy, gp, max_steps: int | None = None,
                   tie_break: str = "first", seed: int = 0) -> ExecutionResult:
    """Follows policy-compatible transitions from the initial state: the
    first in action order, or one drawn by `seed` among all of them.  The
    feature values are kept by deltas in one `co.DeltaContext`."""
    check_max_steps(max_steps)
    check_tie_break(tie_break)
    if max_steps is None:
        max_steps = 10 * max(4, len(gp.objects)) ** 2
    first = tie_break == "first"
    rng = random.Random(seed)
    state = gp.init
    kept = co.DeltaContext(co.InstanceContext(gp), state, policy.features)
    src = kept.values()
    visited = {state.tobytes()}
    trajectory: list = []
    for step in range(max_steps):
        if gp.is_goal(state):
            return ExecutionResult("goal", step, trajectory)
        moves = _moves(policy, kept, src, gp.successors(state))
        if first:
            move = next(moves, None)
        else:
            moves = list(moves)
            move = moves[rng.randrange(len(moves))] if moves else None
        if move is None:
            return ExecutionResult("no_compatible", step, trajectory)
        aid, src, change = move
        state = gp.apply(state, aid)
        key = state.tobytes()
        if key in visited:
            return ExecutionResult("cycle", step, trajectory)
        visited.add(key)
        trajectory.append(gp.actions[aid])
        kept.apply(change)
    if gp.is_goal(state):
        return ExecutionResult("goal", max_steps, trajectory)
    return ExecutionResult("step_limit", max_steps, trajectory)


def _moves(policy: Policy, kept, src, aids):
    """Yields the moves among the successors by actions `aids` of the state
    that the `co.DeltaContext` `kept` holds, with feature values `src`, in
    action order: (action id, feature values, change to apply to `kept`).
    The successors are evaluated by deltas one at a time as the moves are
    read, each tested with `Policy.compatible`."""
    for aid in aids.tolist():
        dst, change = kept.successor(aid)
        if policy.compatible(src, dst):
            yield aid, dst, change


@dataclass
class VerifyResult:
    ok: bool
    complete: bool
    safe: bool         # no compatible move into a dead end
    acyclic: bool
    witness: str | None
    n_states: int
    n_compatible: int


def verify_space(policy: Policy, space, vals) -> VerifyResult:
    """Checks the certificate conditions on an expanded, labeled space:
    every alive state has a compatible transition, none leads to a dead end,
    and the compatible subgraph is acyclic.  Together these imply the policy
    solves the instance from every solvable reachable state.  `vals` holds
    the policy's feature values per state.  Acyclicity is decided by
    peeling (`_peels_away`); a depth-first search (`_find_cycle`) names a
    state on a cycle only when peeling leaves some."""
    src, dst, alive = space.src, space.dst, space.alive
    vals = np.asarray(vals, dtype=np.int64)
    compat = alive[src]
    for lo in range(0, len(src), MASK_BLOCK):
        s, d = src[lo:lo + MASK_BLOCK], dst[lo:lo + MASK_BLOCK]
        compat[lo:lo + MASK_BLOCK] &= policy.compatible_mask(vals[s], vals[d])
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
        witness = (f"compatible transition {space.gp.actions[space.act[t]]} "
                   f"from state {src[t]} reaches dead end {dst[t]}")
    elif not complete:
        witness = f"alive state {int(stuck[0])} has no compatible transition"

    keep = np.flatnonzero(compat & alive[dst])
    acyclic = _peels_away(alive, src[keep], dst[keep])
    if not acyclic:
        start = np.searchsorted(src[keep], np.arange(space.n_states + 1))
        cycle_at = _find_cycle(np.flatnonzero(alive).tolist(), start.tolist(),
                               dst[keep].tolist())
        witness = witness or f"compatible cycle through state {cycle_at}"

    ok = complete and safe and acyclic
    return VerifyResult(ok, complete, safe, acyclic, witness,
                        space.n_states, n_compat)


def verify_exhaustive(policy: Policy, gp, max_states: int = MAX_STATES) -> VerifyResult:
    """`verify_space` on the full reachable space of a ground instance."""
    space = expand_labeled(gp, max_states=max_states)
    return verify_space(policy, space,
                        policy.evaluate(co.InstanceContext(gp), space.states))


def _peels_away(nodes: np.ndarray, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether the graph on the nodes that the bool array `nodes` marks, with
    edges src[i] -> dst[i] among them, is acyclic: removing the nodes with no
    out-edge left, level by level, removes them all (Kahn, CACM 1962).  A
    bool mark over the nodes gives each level's sinks once, without a sort."""
    n = len(nodes)
    out = np.bincount(src, minlength=n)
    preds = predecessors(src, dst, n)
    sinks = np.flatnonzero(nodes & (out == 0))
    mark = np.zeros(n, dtype=bool)
    removed = 0
    while len(sinks):
        removed += len(sinks)
        p = preds(sinks)
        out -= np.bincount(p, minlength=n)
        mark[p[out[p] == 0]] = True
        sinks = np.flatnonzero(mark)
        mark[sinks] = False
    return removed == int(np.count_nonzero(nodes))


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

