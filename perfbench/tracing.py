"""Spans and counters around genpol's module boundaries, for the traced run.

`Tracer.install()` replaces each traced function by a wrapper that records
one span per call: name, start, end, parent span and operation (pass) id.
Each name is patched where its caller looks it up: `policy` reaches
`expand_labeled` and `validate_solution` through from-imports, so those
copies are patched too; methods are patched on their class.  Spans stay in
memory until `save()`; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

from genpol import (concepts, encoding, features, maxsat, pddl, pipeline,
                    policy, sat, space)


def _theory(t, args, theory, _):
    t.count("pipeline.rounds", 1)
    for key in ("n_vars", "n_hard", "n_soft", "n_pairs"):
        t.count(f"encoding.{key}", theory.stats.get(key, 0))


def _sat_before(args):
    s = args[0]
    return s.conflicts, s.decisions, s.propagations


def _sat_after(t, args, result, before):
    s = args[0]
    t.count("sat.conflicts", s.conflicts - before[0])
    t.count("sat.decisions", s.decisions - before[1])
    t.count("sat.propagations", s.propagations - before[2])
    t.count("maxsat.cores", not result)


def _expanded(t, args, sp, _):
    t.count("space.states", sp.n_states)
    t.count("space.transitions", sp.n_transitions)


# (owner, attribute, span name, after hook, before hook)
TRACED = [
    (pddl, "parse_domain", "pddl.parse_domain", None, None),
    (pddl, "parse_instance", "pddl.parse_instance", None, None),
    (pddl, "ground", "pddl.ground",
     lambda t, a, gp, _: t.count("pddl.ground_actions", len(gp.actions)), None),
    (pddl.GroundProblem, "successors", "pddl.successors", None, None),
    (space, "expand", "space.expand", _expanded, None),
    (space, "label_goal_distances", "space.label", None, None),
    (space, "expand_labeled", "space.expand_labeled", None, None),
    (policy, "expand_labeled", "space.expand_labeled", None, None),
    (features, "generate_pool", "features.generate_pool",
     lambda t, a, r, _: t.count("features.pool_size", len(r[0])), None),
    (concepts, "state_context", "concepts.state_context", None, None),
    (encoding, "compute_classes", "encoding.compute_classes",
     lambda t, a, r, _: t.count("encoding.n_classes", len(r[0])), None),
    (encoding, "initial_pairs", "encoding.initial_pairs", None, None),
    (encoding, "build_theory", "encoding.build_theory", _theory, None),
    (encoding, "decode", "encoding.decode", None, None),
    (encoding, "validate_solution", "encoding.validate_solution", None, None),
    (policy, "validate_solution", "encoding.validate_solution", None, None),
    (maxsat, "solve_wcnf", "maxsat.solve_wcnf", None, None),
    (sat.Cdcl, "solve", "sat.solve", _sat_after, _sat_before),
    (policy.Policy, "evaluate", "policy.evaluate", None, None),
    (policy.Policy, "compatible", "policy.compatible",
     lambda t, a, ok, _: ok and t.count("policy.compatible_true", 1), None),
    (policy, "extract_policy", "policy.extract_policy", None, None),
    (policy, "verify_exhaustive", "policy.verify_exhaustive", None, None),
    (policy, "greedy_execute", "policy.greedy_execute",
     lambda t, a, r, _: t.count("policy.greedy_steps", r.steps), None),
    (pipeline, "learn", "pipeline.learn", None, None),
    (pipeline, "verify_space", "pipeline.verify_space", None, None),
]

# Per-layer metric -> (unit, how it is read from one pass): a total time of
# spans, the self time of spans, a number of calls, or a counter.
METRICS = {
    "pddl.parse_s": ("s", "time", ["pddl.parse_domain", "pddl.parse_instance"]),
    "pddl.ground_s": ("s", "time", ["pddl.ground"]),
    "pddl.ground_actions": ("count", "counter", "pddl.ground_actions"),
    "pddl.successors_s": ("s", "time", ["pddl.successors"]),
    "space.expand_s": ("s", "time", ["space.expand"]),
    "space.label_s": ("s", "time", ["space.label"]),
    "space.states": ("count", "counter", "space.states"),
    "space.transitions": ("count", "counter", "space.transitions"),
    "features.pool_s": ("s", "time", ["features.generate_pool"]),
    "features.pool_size": ("count", "counter", "features.pool_size"),
    "concepts.state_context_s": ("s", "time", ["concepts.state_context"]),
    "concepts.state_context_calls": ("count", "calls", ["concepts.state_context"]),
    "policy.evaluate_s": ("s", "time", ["policy.evaluate"]),
    "policy.evaluate_calls": ("count", "calls", ["policy.evaluate"]),
    "encoding.classes_s": ("s", "time", ["encoding.compute_classes"]),
    "encoding.build_s": ("s", "time", ["encoding.build_theory"]),
    "encoding.validate_s": ("s", "time", ["encoding.validate_solution"]),
    "encoding.n_classes": ("count", "counter", "encoding.n_classes"),
    "encoding.n_vars": ("count", "counter", "encoding.n_vars"),
    "encoding.n_hard": ("count", "counter", "encoding.n_hard"),
    "encoding.n_soft": ("count", "counter", "encoding.n_soft"),
    "encoding.n_pairs": ("count", "counter", "encoding.n_pairs"),
    "pipeline.rounds": ("count", "counter", "pipeline.rounds"),
    "maxsat.solve_s": ("s", "time", ["maxsat.solve_wcnf"]),
    "maxsat.self_s": ("s", "self", ["maxsat.solve_wcnf"]),
    "maxsat.sat_calls": ("count", "calls", ["sat.solve"]),
    "maxsat.cores": ("count", "counter", "maxsat.cores"),
    "sat.solve_s": ("s", "time", ["sat.solve"]),
    "sat.conflicts": ("count", "counter", "sat.conflicts"),
    "sat.decisions": ("count", "counter", "sat.decisions"),
    "sat.propagations": ("count", "counter", "sat.propagations"),
    "policy.extract_s": ("s", "time", ["policy.extract_policy"]),
    "policy.verify_s": ("s", "time", ["policy.verify_exhaustive"]),
    "policy.compatible_s": ("s", "time", ["policy.compatible"]),
    "policy.compatible_calls": ("count", "calls", ["policy.compatible"]),
    "policy.greedy_s": ("s", "time", ["policy.greedy_execute"]),
    "policy.greedy_steps": ("count", "counter", "policy.greedy_steps"),
    "pipeline.verify_space_s": ("s", "time", ["pipeline.verify_space"]),
    "pipeline.learn_self_s": ("s", "self", ["pipeline.learn"]),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self._stack = [-1]
        self._op = -1
        self._saved: list = []

    def begin_op(self, op: int):
        self._op = op
        self.counters[op]  # a pass with no counted event still has an entry

    def count(self, name: str, n):
        self.counters[self._op][name] += n

    def install(self):
        for owner, attr, span, after, before in TRACED:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, after, before))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, after, before):
        sid = self._ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        name, parent, op = self.name, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(sid)
            parent.append(stack[-1])
            op.append(tracer._op)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            token = before(args) if before is not None else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = time.perf_counter()
                start[i] = t0
                stack.pop()
            if after is not None:
                after(tracer, args, result, token)
            return result

        return traced

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def pass_metrics(self, host) -> dict:
        """Per-layer metrics of each traced pass: {op: {metric: value}}.
        Span times are net of the host-speed slices (`host`, a
        speed.HostSpeed) that ran inside them; a slice runs from a signal
        handler, so it lies wholly inside or wholly outside each span."""
        a = self.arrays()
        n_names = len(self.names)
        starts = np.array(host.starts)
        cum = np.concatenate([[0.0], np.cumsum(host.slices)])
        sliced = lambda t: cum[np.searchsorted(starts, t)]
        dur = (a["end"] - a["start"]) - (sliced(a["end"]) - sliced(a["start"]))
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for op, counters in self.counters.items():
            mask = a["op"] == op
            ids = a["name"][mask]
            table = {
                "time": np.bincount(ids, weights=dur[mask], minlength=n_names),
                "self": np.bincount(ids, weights=self_time[mask], minlength=n_names),
                "calls": np.bincount(ids, minlength=n_names),
            }
            m = {}
            for metric, (_unit, kind, source) in METRICS.items():
                if kind == "counter":
                    m[metric] = counters.get(source, 0)
                else:
                    m[metric] = sum(table[kind][self._ids[s]] for s in source)
            calls = m["policy.compatible_calls"]
            m["policy.compatible_frac"] = (
                counters.get("policy.compatible_true", 0) / calls if calls else 0.0)
            m["trace.spans"] = int(mask.sum())
            out[op] = m
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
