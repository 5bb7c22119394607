"""End-to-end learning pipeline.

Stages: parse and ground the training instances, expand and label their
state spaces, generate the feature pool, group transitions into equivalence
classes, then alternate between solving the theory restricted to a pair set
tau and validating the solution against all class pairs, growing tau with
the violated ones until a model of the full theory is found.  The final
model is extracted into a policy, verified exhaustively on the training
instances, and optionally executed greedily on held-out test instances
(test outcomes are reported but never gate success).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from genpol import encoding, features, maxsat, pddl, policy as policy_mod, space
from genpol.errors import GenpolError, InternalInvariantError
from genpol.policy import verify_space


@dataclass
class RunConfig:
    domain_path: str
    training_paths: list
    test_paths: list = field(default_factory=list)
    goal_params: list = field(default_factory=list)
    max_feature_weight: int = 8
    v_slack: int = 2
    seed: int = 0
    extra_pairs_per_class: int = 2
    pair_full_limit: int = 4000
    max_states: int = 10 ** 6
    max_transitions: int = 10 ** 7
    max_pool: int = 200_000
    max_iterations: int = 100
    solver_time_limit: float | None = None
    solver_backend: str = "embedded"
    include_types: bool = True
    ignore_high_arity: bool = False
    merge_classes: bool = True
    tie_break: str = "first"
    max_steps: int | None = None

    def validate(self):
        if self.max_feature_weight < 1:
            raise GenpolError("max_feature_weight must be at least 1")
        if self.v_slack < 1:
            raise GenpolError("v_slack must be at least 1")
        if not self.training_paths:
            raise GenpolError("at least one training instance is required")
        if self.tie_break not in ("first", "random"):
            raise GenpolError(f"unknown tie_break '{self.tie_break}'")


@dataclass
class TestOutcome:
    name: str
    status: str
    steps: int


@dataclass
class LearnResult:
    status: str                  # ok | unsat
    message: str = ""
    policy: object = None
    report_machine: str = ""
    report_human: str = ""
    cost: int | None = None
    iterations: int = 0
    verify_ok: bool = False
    tests: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "ok" else 1


@dataclass
class Prepared:
    """Everything the stages after transition classes start from."""
    dom: object
    sample: space.SampleSet
    pool: features.FeaturePool
    matrix: object             # features x global states
    classes: list
    class_of: dict
    times: dict                # "expand" and "pool" stage times, in seconds


def prepare(config: RunConfig) -> Prepared:
    """Parse and ground the training instances, expand and label their
    spaces, generate the feature pool and group transitions into classes."""
    t0 = time.monotonic()
    with open(config.domain_path) as f:
        dom = pddl.parse_domain(f.read())
    spaces = []
    for path in config.training_paths:
        with open(path) as f:
            inst = pddl.parse_instance(f.read(), dom, config.goal_params)
        spaces.append(space.expand_labeled(pddl.ground(dom, inst),
                                           config.max_states,
                                           config.max_transitions))
    sample = space.SampleSet(spaces)
    t1 = time.monotonic()
    pool, matrix = features.generate_pool(
        sample, max_weight=config.max_feature_weight, max_pool=config.max_pool,
        include_types=config.include_types,
        ignore_high_arity=config.ignore_high_arity)
    t2 = time.monotonic()
    classes, class_of = encoding.compute_classes(sample, matrix,
                                                 merge=config.merge_classes)
    return Prepared(dom, sample, pool, matrix, classes, class_of,
                    {"expand": t1 - t0, "pool": t2 - t1})


def _solve(config: RunConfig, wcnf: maxsat.WcnfProblem) -> maxsat.MaxSatResult:
    if config.solver_backend == "embedded":
        return maxsat.solve_wcnf(wcnf, time_limit=config.solver_time_limit)
    return maxsat.solve_wcnf_external(wcnf, config.solver_backend,
                                      time_limit=config.solver_time_limit)


def learn(config: RunConfig) -> LearnResult:
    config.validate()
    t0 = time.monotonic()
    prep = prepare(config)
    sample, pool, matrix = prep.sample, prep.pool, prep.matrix
    classes, class_of = prep.classes, prep.class_of
    times = prep.times

    t2 = time.monotonic()
    pairs = encoding.initial_pairs(classes, class_of, sample,
                                   extra_per_class=config.extra_pairs_per_class,
                                   seed=config.seed,
                                   full_limit=config.pair_full_limit)
    iterations = 0
    theory = None
    result = None
    phi = goods = None
    while True:
        iterations += 1
        if iterations > config.max_iterations:
            raise GenpolError(f"constraint generation did not converge in "
                              f"{config.max_iterations} rounds")
        theory = encoding.build_theory(sample, pool, matrix, classes, class_of,
                                       v_slack=config.v_slack, pairs=pairs)
        if theory.infeasible is not None:
            g, ng = theory.infeasible
            times["solve"] = time.monotonic() - t2
            msg = (f"no policy in feature space: goal state {g} and non-goal "
                   f"state {ng} have identical feature values")
            return _finish_unsat(config, sample, pool, theory, msg, iterations,
                                 times, t0)
        result = _solve(config, theory.wcnf)
        if result.status != maxsat.OPTIMUM:
            times["solve"] = time.monotonic() - t2
            return _finish_unsat(config, sample, pool, theory,
                                 "no policy in feature space: theory is "
                                 "unsatisfiable", iterations, times, t0)
        phi, goods, _values = encoding.decode(theory, result.model)
        violated = encoding.validate_solution(classes, phi, goods)
        if not violated:
            break
        known = set(pairs)
        fresh = [p for p in violated if p not in known]
        if not fresh:
            raise InternalInvariantError(
                "validation reports violated pairs already encoded")
        pairs = sorted(known | set(fresh))
    times["solve"] = time.monotonic() - t2

    t3 = time.monotonic()
    pol = policy_mod.extract_policy(pool, phi, classes, goods)
    verify_results = []
    for sp, off in zip(sample.spaces, sample.offsets):
        vals = [tuple(int(x) for x in matrix[phi, off + i])
                for i in range(sp.n_states)]
        verify_results.append(verify_space(pol, sp, vals))
    verify_ok = all(v.ok for v in verify_results)
    times["verify"] = time.monotonic() - t3

    t4 = time.monotonic()
    tests = run_tests(config, prep.dom, pol)
    times["tests"] = time.monotonic() - t4
    times["total"] = time.monotonic() - t0

    machine, human = _report(config, sample, pool, theory, result, phi, pol,
                             iterations, verify_results, tests, times)
    return LearnResult("ok", "", pol, machine, human, result.cost, iterations,
                       verify_ok, tests)


def run_tests(config: RunConfig, dom, pol) -> list:
    outcomes = []
    for path in config.test_paths:
        with open(path) as f:
            inst = pddl.parse_instance(f.read(), dom, config.goal_params)
        gp = pddl.ground(dom, inst)
        res = policy_mod.greedy_execute(pol, gp, max_steps=config.max_steps,
                                        tie_break=config.tie_break,
                                        seed=config.seed)
        outcomes.append(TestOutcome(inst.name, res.status, res.steps))
    return outcomes


def _finish_unsat(config, sample, pool, theory, msg, iterations, times, t0):
    times["total"] = time.monotonic() - t0
    machine, human = _report(config, sample, pool, theory, None, None, None,
                             iterations, [], [], times, status="unsat",
                             message=msg)
    return LearnResult("unsat", msg, None, machine, human, None, iterations,
                       False, [])


def _report(config, sample, pool, theory, result, phi, pol, iterations,
            verify_results, tests, times, status="ok", message=""):
    lines = [
        f"status={status}",
        f"seed={config.seed}",
        f"max_feature_weight={config.max_feature_weight}",
        f"v_slack={config.v_slack}",
        f"merge_classes={int(config.merge_classes)}",
        f"n_instances={len(sample.spaces)}",
    ]
    for i, sp in enumerate(sample.spaces):
        lines.append(f"instance.{i}.name={sp.gp.instance.name}")
        lines.append(f"instance.{i}.states={sp.n_states}")
        lines.append(f"instance.{i}.alive_transitions={len(sp.alive_transitions())}")
        lines.append(f"instance.{i}.max_goal_distance={sp.max_goal_distance()}")
    lines.append(f"n_states={sample.n_states}")
    lines.append(f"n_alive_transitions={sample.n_alive_transitions()}")
    lines.append(f"max_goal_distance={sample.max_goal_distance()}")
    lines.append(f"pool_size={len(pool)}")
    stats = theory.stats if theory is not None else {}
    lines.append(f"n_classes={theory.n_good if theory else 0}")
    for key in ("n_vars", "n_hard", "n_soft", "n_clauses_full", "n_pairs"):
        if key in stats:
            lines.append(f"{key}={stats[key]}")
    lines.append(f"iterations={iterations}")
    if message:
        lines.append(f"message={message}")
    if result is not None:
        lines.append(f"optimum_cost={result.cost}")
    if phi is not None and pol is not None:
        lines.append(f"n_selected={len(phi)}")
        feats = ";".join(f"{f.render()}:{f.weight}" for f in pol.features)
        lines.append(f"selected={feats}")
        lines.append(f"n_rules={len(pol.rules)}")
    for i, v in enumerate(verify_results):
        lines.append(f"verify.{i}.ok={int(v.ok)}")
        lines.append(f"verify.{i}.complete={int(v.complete)}")
        lines.append(f"verify.{i}.safe={int(v.safe)}")
        lines.append(f"verify.{i}.acyclic={int(v.acyclic)}")
    if tests:
        solved = sum(1 for t in tests if t.status == "goal")
        lines.append(f"tests.solved={solved}")
        lines.append(f"tests.total={len(tests)}")
        for i, t in enumerate(tests):
            lines.append(f"test.{i}.name={t.name}")
            lines.append(f"test.{i}.status={t.status}")
            lines.append(f"test.{i}.steps={t.steps}")
    machine = "\n".join(lines) + "\n"

    rows = [("status", status)]
    rows.append(("instances", ", ".join(sp.gp.instance.name for sp in sample.spaces)))
    rows.append(("states", str(sample.n_states)))
    rows.append(("alive transitions", str(sample.n_alive_transitions())))
    rows.append(("feature pool", str(len(pool))))
    if theory is not None:
        rows.append(("classes", str(theory.n_good)))
        rows.append(("vars", str(stats.get("n_vars", 0))))
        rows.append(("hard clauses", str(stats.get("n_hard", 0))))
    rows.append(("iterations", str(iterations)))
    if result is not None:
        rows.append(("optimum cost", str(result.cost)))
    if pol is not None:
        rows.append(("selected features",
                     ", ".join(f.render() for f in pol.features)))
        rows.append(("rules", str(len(pol.rules))))
    if verify_results:
        rows.append(("verification",
                     "pass" if all(v.ok for v in verify_results) else "FAIL"))
    if tests:
        solved = sum(1 for t in tests if t.status == "goal")
        rows.append(("tests solved", f"{solved}/{len(tests)}"))
    if message:
        rows.append(("message", message))
    for key in sorted(times):
        rows.append((f"time {key}", f"{times[key]:.2f}s"))
    width = max(len(r[0]) for r in rows)
    human = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    return machine, human
