"""Complete state-space expansion and goal-distance labeling.

A `StateSpace` is the full reachable transition system of one ground
instance: breadth-first from the initial state, goal states included and
expanded like any other.  The transitions are int64 arrays `src`, `dst` and
`act`, stored by source state; `is_goal` is a bool array per state.

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
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from genpol.errors import LimitExceededError
from genpol.pddl import GroundProblem

log = logging.getLogger(__name__)


@dataclass
class StateSpace:
    gp: GroundProblem
    states: list  # id -> frozenset of atom ids; id 0 is the initial state
    src: np.ndarray  # transition id -> source state id (int64, ascending)
    dst: np.ndarray  # transition id -> target state id
    act: np.ndarray  # transition id -> ground action id
    is_goal: np.ndarray  # bool per state
    out_start: np.ndarray  # CSR offsets into src/dst/act, n_states + 1
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

    def out_edges(self, state_id: int) -> range:
        return range(self.out_start[state_id], self.out_start[state_id + 1])

    def max_goal_distance(self) -> int:
        return int(self.goal_dist.max(initial=0))


def expand(gp: GroundProblem, max_states: int = 10**6,
           max_transitions: int = 10**7) -> StateSpace:
    """Breadth-first complete expansion from the initial state."""
    init = gp.init
    index = {init: 0}
    states = [init]  # also the BFS queue: the loop below walks it as it grows
    src, dst, act = array("q"), array("q"), array("q")  # wrapped below, not copied
    out_start = array("q", [0])
    actions = gp.actions
    applicable = gp.applicable
    for sid, s in enumerate(states):
        for aid in applicable(s):
            a = actions[aid]
            t = (s - a.dele) | a.add
            tid = index.get(t)
            if tid is None:
                tid = len(states)
                if tid >= max_states:
                    raise LimitExceededError(
                        f"more than {max_states} states in '{gp.instance.name}'")
                index[t] = tid
                states.append(t)
            src.append(sid)
            dst.append(tid)
            act.append(aid)
            if len(src) > max_transitions:
                raise LimitExceededError(
                    f"more than {max_transitions} transitions in '{gp.instance.name}'")
        out_start.append(len(src))
    is_goal = np.fromiter(map(gp.is_goal, states), dtype=bool, count=len(states))
    ids = lambda xs: np.frombuffer(xs, dtype=np.int64)
    return StateSpace(gp=gp, states=states, src=ids(src), dst=ids(dst),
                      act=ids(act), is_goal=is_goal, out_start=ids(out_start))


def label_goal_distances(space: StateSpace) -> StateSpace:
    """Fill `goal_dist`, `alive` and `alive_t` by one backward breadth-first
    search, level by level, from all goal states at once."""
    n = space.n_states
    src, dst = space.src, space.dst
    by_dst = np.argsort(dst)
    pred = src[by_dst]  # predecessors of state v: pred[start[v]:start[v + 1]]
    start = np.searchsorted(dst[by_dst], np.arange(n + 1))
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.flatnonzero(space.is_goal)
    d = 0
    while len(frontier):
        dist[frontier] = d
        d += 1
        lo, count = start[frontier], start[frontier + 1] - start[frontier]
        ends = np.cumsum(count)  # the frontier's predecessor slots, concatenated:
        at = np.arange(ends[-1]) + np.repeat(lo - (ends - count), count)
        p = pred[at]
        frontier = np.unique(p[dist[p] < 0])
    space.goal_dist = dist
    space.alive = (dist >= 0) & ~space.is_goal
    space.alive_t = np.flatnonzero(space.alive[src])
    if dist[0] < 0:
        log.warning("initial state of '%s' is a dead end: no goal is reachable",
                    space.gp.instance.name)
    return space


def expand_labeled(gp: GroundProblem, max_states: int = 10**6,
                   max_transitions: int = 10**7) -> StateSpace:
    return label_goal_distances(expand(gp, max_states, max_transitions))


@dataclass
class SampleSet:
    """Several labeled state spaces with a shared global state numbering."""

    spaces: list

    def __post_init__(self):
        self.offsets = []
        off = 0
        for sp in self.spaces:
            if sp.goal_dist is None:
                raise ValueError("sample spaces must be labeled first")
            self.offsets.append(off)
            off += sp.n_states
        self.n_states = off

    def iter_states(self):
        """Yields (global_id, space, local_id)."""
        for k, sp in enumerate(self.spaces):
            off = self.offsets[k]
            for sid in range(sp.n_states):
                yield off + sid, sp, sid

    def iter_alive_transitions(self):
        """Yields (space_idx, transition_id, global_src, global_dst), as ints."""
        for k, sp in enumerate(self.spaces):
            off, t = self.offsets[k], sp.alive_t
            yield from zip(repeat(k), t.tolist(), (sp.src[t] + off).tolist(),
                           (sp.dst[t] + off).tolist())

    def n_alive_transitions(self) -> int:
        return sum(len(sp.alive_t) for sp in self.spaces)

    def max_goal_distance(self) -> int:
        return max(sp.max_goal_distance() for sp in self.spaces)


def dump_transitions(space: StateSpace) -> str:
    """Debug dump, one line per transition:

    ``src dst action src_goal dst_goal src_dead dst_dead src_dist dst_dist``

    Goal/dead flags are 0/1; distances print ``-`` for dead ends.
    """
    if space.goal_dist is None:
        raise ValueError("label the space before dumping")
    goal = space.is_goal.astype(int).tolist()
    dist = space.goal_dist.tolist()
    names = [a.name for a in space.gp.actions]
    lines = []
    for s, d, a in zip(space.src.tolist(), space.dst.tolist(), space.act.tolist()):
        lines.append(" ".join([
            str(s), str(d), names[a], str(goal[s]), str(goal[d]),
            str(int(dist[s] < 0)), str(int(dist[d] < 0)),
            "-" if dist[s] < 0 else str(dist[s]), "-" if dist[d] < 0 else str(dist[d]),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
