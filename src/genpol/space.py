"""Complete state-space expansion and goal-distance labeling.

A `StateSpace` is the full reachable transition system of one ground
instance: breadth-first from the initial state, goal states included and
expanded like any other.  The states are one uint64 matrix [n_states,
words] of packed rows (see `pddl.GroundProblem`), numbered in breadth-first
order; the transitions are int64 arrays `src`, `dst` and `act`, stored by
source state; `is_goal` is a bool array per state.

`expand` works one breadth-first level at a time: one mask test finds the
applicable actions of the whole frontier, the successors are `(row & ~del)
| add`, and a sorted array of row keys tells the known states from the new
ones, which are numbered in (source, action id) order of first occurrence.
A row of one word is its own uint64 key; a wider row is keyed by a salted
splitmix64-style mix of its words (`row_keys`; Steele, Lea and Flood,
OOPSLA 2014).  Such keys can collide, so every level of wider rows checks
that each successor equals the row of the state it was merged into, and a
collision restarts the expansion with the next salt, up to `SALTS` salts.
A level's successors are grouped by key with one default-kind sort
(`group`), not the stable sort of `np.unique`.

`label_goal_distances` is the one place that decides the labeling the
theory and the certificates range over:

* `goal_dist`: optimal distance to a goal per state, -1 for dead ends
  (states from which no goal is reachable);
* `alive`: per state, solvable and not a goal;
* `alive_t`: the ids, ascending, of the transitions leaving an alive state.
  Self loops count; transitions out of goal or dead-end states do not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from genpol.errors import GenpolError, LimitExceededError
from genpol.maxsat import ranges
from genpol.pddl import GroundProblem

log = logging.getLogger(__name__)

# Salts `expand` tries before it gives up on keying an instance's rows.  Two
# different rows share a splitmix64 key with chance about 2^-64 per pair, so
# a second salt is already rare; running out means a broken key mix.
SALTS = 8

# The default caps of one expansion, which every command, `RunConfig` and
# verification read.
MAX_STATES = 10 ** 6
MAX_TRANSITIONS = 10 ** 7


@dataclass
class StateSpace:
    gp: GroundProblem
    states: np.ndarray  # uint64 [n_states, words] packed rows; 0 is the initial state
    src: np.ndarray  # transition id -> source state id (int64, ascending)
    dst: np.ndarray  # transition id -> target state id
    act: np.ndarray  # transition id -> ground action id
    is_goal: np.ndarray  # bool per state
    # Filled by label_goal_distances:
    goal_dist: np.ndarray = None  # int64 per state, -1 for dead ends
    alive: np.ndarray = None  # bool per state: solvable and not a goal
    alive_t: np.ndarray = None  # int64 ids of transitions leaving alive states

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.src)

    def max_goal_distance(self) -> int:
        return int(self.goal_dist.max(initial=0))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, a bijection of uint64, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def row_keys(rows: np.ndarray, salt: int = 0) -> np.ndarray:
    """One uint64 key per packed row [n, words]: a one-word row's value, and
    for wider rows the words mixed in one at a time, from a start that
    `salt` picks.  Equal rows have equal keys; wider rows that differ can
    share one, so a caller that merges rows by key must check them."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    key = np.full(len(rows), (salt + 1) * 0x9E3779B97F4A7C15 % 2**64, dtype=np.uint64)
    for w in range(rows.shape[1]):
        key ^= rows[:, w]
        key = _mix(key)
    return key


def group(keys: np.ndarray):
    """`np.unique(keys, return_index=True, return_inverse=True)` from one
    default-kind sort, not a stable one: a key's first occurrence is the
    least index in its run of equal sorted keys, whatever their order."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return ordered[starts], np.minimum.reduceat(order, starts), inverse


def _merged(a: np.ndarray, old: np.ndarray, values: np.ndarray, to: np.ndarray):
    """`a` at the places `old` marks and `values` at the places `to`."""
    out = np.empty(len(old), dtype=a.dtype)
    out[old] = a
    out[to] = values
    return out


def check_caps(max_states: int, max_transitions: int):
    """Rejects a state cap below 1 and a negative transition cap."""
    if max_states < 1:
        raise GenpolError(f"max_states must be at least 1, got {max_states}")
    if max_transitions < 0:
        raise GenpolError(f"max_transitions must be non-negative, got {max_transitions}")


def expand(gp: GroundProblem, max_states: int = MAX_STATES,
           max_transitions: int = MAX_TRANSITIONS) -> StateSpace:
    """Breadth-first complete expansion from the initial state.  The caps
    fire as the one-state-at-a-time search would: at the first transition,
    in (source, action id) order, that makes a state beyond `max_states` or
    a transition beyond `max_transitions`."""
    check_caps(max_states, max_transitions)
    for salt in range(SALTS):  # a salt whose keys merged no different rows
        space = _expand(gp, max_states, max_transitions, salt)
        if space is not None:
            return space
    raise GenpolError(f"the row keys of '{gp.instance.name}' merged different states "
                      f"under each of {SALTS} salts")


def _expand(gp: GroundProblem, max_states: int, max_transitions: int, salt: int):
    """`expand` with the row keys of `salt`; None if two different rows
    shared a key."""
    name = gp.instance.name
    states = gp.init[None].copy()  # the states in id order, then spare rows
    known, known_ids = row_keys(states, salt), np.zeros(1, dtype=np.int64)
    src, dst, act = [], [], []
    lo, n_states, n_transitions = 0, 1, 0  # lo: id of the frontier's first state
    while lo < n_states:
        at, aids, succ = gp.transitions(states[lo:n_states])
        uniq, first, inverse = group(row_keys(succ, salt))
        pos = np.searchsorted(known, uniq)
        near = np.minimum(pos, len(known) - 1)
        ids = known_ids[near]
        fresh = np.flatnonzero(known[near] != uniq)  # in key order
        new = fresh[np.argsort(first[fresh])]  # in order of first occurrence
        ids[new] = np.arange(n_states, n_states + len(new))
        end = n_states + len(new)
        if end > len(states):  # double the room; the rows past n_states are spare
            states = np.resize(states, (max(end, 2 * len(states)), gp.words))
        states[n_states:end] = succ[first[new]]
        targets = ids[inverse]
        # A one-word row is its own key, so only wider rows can collide.
        if gp.words > 1 and not np.array_equal(states[targets], succ):
            return None

        # The level's first transition beyond the cap, and its first new
        # state beyond the cap; at one transition the state cap comes first.
        at_t = max_transitions - n_transitions
        at_s = max_states - n_states
        if at_s < len(new) and first[new[at_s]] <= at_t:
            raise LimitExceededError(f"more than {max_states} states in '{name}'")
        if at_t < len(succ):
            raise LimitExceededError(
                f"more than {max_transitions} transitions in '{name}'")

        src.append(at + lo)
        dst.append(targets)
        act.append(aids)
        to = pos[fresh] + np.arange(len(fresh))  # their places once merged
        old = np.ones(len(known) + len(fresh), dtype=bool)
        old[to] = False
        known = _merged(known, old, uniq[fresh], to)
        known_ids = _merged(known_ids, old, ids[fresh], to)
        lo, n_states = n_states, end
        n_transitions += len(succ)
    states = states[:n_states].copy()
    # One array at a time, each per-level list released before the next
    # array is built, so the lists and the results are never all held.
    for parts in (src, dst, act):
        parts[:] = [np.concatenate(parts, dtype=np.int64)]
    return StateSpace(gp=gp, states=states, src=src[0], dst=dst[0],
                      act=act[0], is_goal=gp.is_goal(states))


def label_goal_distances(space: StateSpace) -> StateSpace:
    """Fill `goal_dist`, `alive` and `alive_t` by one backward breadth-first
    search, level by level, from all goal states at once."""
    dist = _goal_distances(space.src, space.dst, space.is_goal)
    space.goal_dist = dist
    space.alive = (dist >= 0) & ~space.is_goal
    space.alive_t = np.flatnonzero(space.alive[space.src])
    return space


def _goal_distances(src: np.ndarray, dst: np.ndarray, is_goal: np.ndarray) -> np.ndarray:
    """Each state's distance to a goal, -1 for dead ends.  A bool mark over
    the states gives each next frontier, ascending, without a sort; the
    predecessor lists are freed on return, before `alive_t` is built."""
    preds = predecessors(src, dst, len(is_goal))
    dist = np.full(len(is_goal), -1, dtype=np.int64)
    mark = np.zeros(len(is_goal), dtype=bool)
    frontier = np.flatnonzero(is_goal)
    d = 0
    while len(frontier):
        dist[frontier] = d
        d += 1
        p = preds(frontier)
        mark[p[dist[p] < 0]] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
    return dist


def predecessors(src: np.ndarray, dst: np.ndarray, n: int):
    """The edges src[i] -> dst[i] (int64 arrays) of a graph on nodes
    0..n-1, n < 2^32, grouped by target: a function from an array of nodes
    to the sources of the edges into them, concatenated in node order, each
    node's ascending.  One in-place sort of dst << 32 | src keys groups
    them, 8 bytes per edge."""
    if n >= 2**32:
        raise LimitExceededError(f"{n} nodes, more than predecessors packs (2^32 - 1)")
    count = np.bincount(dst, minlength=n)
    pred = dst.astype(np.uint64)
    pred <<= np.uint64(32)
    pred |= src.view(np.uint64)
    pred.sort()
    pred &= np.uint64(0xFFFFFFFF)
    pred, first = pred.view(np.int64), np.cumsum(count) - count
    return lambda nodes: pred[ranges(first[nodes], count[nodes])]


def expand_labeled(gp: GroundProblem, max_states: int = MAX_STATES,
                   max_transitions: int = MAX_TRANSITIONS) -> StateSpace:
    """The labeled space of `gp`; warns when its initial state is a dead
    end.  Training refuses such an instance with an error instead
    (`pipeline.prepare`), so it labels its spaces without the warning."""
    space = label_goal_distances(expand(gp, max_states, max_transitions))
    if space.goal_dist[0] < 0:
        log.warning("initial state of '%s' is a dead end: no goal is reachable",
                    gp.instance.name)
    return space


@dataclass
class SampleSet:
    """Several labeled state spaces with one global state numbering: state s
    of space k is global state `offsets[k] + s`.

    The theory reads the sample through arrays built here once:

    * `goal_dist`, `is_goal`, `alive`: the spaces' labels per global state;
    * `src`, `dst`: global source and target of every alive transition,
      space by space in `alive_t` order.  Position i in them is the sample's
      alive transition i, the numbering `encoding.compute_classes` uses.
    """

    spaces: list

    def __post_init__(self):
        if any(sp.goal_dist is None for sp in self.spaces):
            raise ValueError("sample spaces must be labeled first")
        sizes = [sp.n_states for sp in self.spaces]
        self.offsets = [sum(sizes[:k]) for k in range(len(sizes))]
        self.n_states = sum(sizes)
        placed = list(zip(self.spaces, self.offsets))
        self.goal_dist = np.concatenate([sp.goal_dist for sp in self.spaces])
        self.is_goal = np.concatenate([sp.is_goal for sp in self.spaces])
        self.alive = np.concatenate([sp.alive for sp in self.spaces])
        self.src = np.concatenate([sp.src[sp.alive_t] + off for sp, off in placed])
        self.dst = np.concatenate([sp.dst[sp.alive_t] + off for sp, off in placed])

    def n_alive_transitions(self) -> int:
        return len(self.src)

    def max_goal_distance(self) -> int:
        return int(self.goal_dist.max(initial=0))


def dump_transitions(space: StateSpace) -> str:
    """Debug dump, one line per transition:

    ``src dst action src_goal dst_goal src_dead dst_dead src_dist dst_dist``

    Goal/dead flags are 0/1; distances print ``-`` for dead ends.
    """
    if space.goal_dist is None:
        raise ValueError("label the space before dumping")
    goal = space.is_goal.astype(int).tolist()
    dist = space.goal_dist.tolist()
    names = space.gp.actions
    lines = []
    for s, d, a in zip(space.src.tolist(), space.dst.tolist(), space.act.tolist()):
        lines.append(" ".join([
            str(s), str(d), names[a], str(goal[s]), str(goal[d]),
            str(int(dist[s] < 0)), str(int(dist[d] < 0)),
            "-" if dist[s] < 0 else str(dist[s]), "-" if dist[d] < 0 else str(dist[d]),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
