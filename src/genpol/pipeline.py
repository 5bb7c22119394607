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

# Constraint-generation rounds before `learn` gives up.
MAX_ITERATIONS = 100


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
    max_states: int = 10 ** 6
    max_transitions: int = 10 ** 7
    max_pool: int = 200_000
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


def load_domain(path: str) -> pddl.DomainModel:
    with open(path) as f:
        return pddl.parse_domain(f.read())


def load_problem(dom, path: str, goal_params=()) -> pddl.GroundProblem:
    """Parse the instance file at `path` against `dom` and ground it."""
    with open(path) as f:
        inst = pddl.parse_instance(f.read(), dom, goal_params)
    return pddl.ground(dom, inst)


def prepare(config: RunConfig) -> Prepared:
    """Parse and ground the training instances, expand and label their
    spaces, generate the feature pool and group transitions into classes."""
    t0 = time.monotonic()
    dom = load_domain(config.domain_path)
    sample = space.SampleSet([
        space.expand_labeled(load_problem(dom, path, config.goal_params),
                             config.max_states, config.max_transitions)
        for path in config.training_paths])
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


# report.txt: one row per record key present, under these labels.
_TABLE = (("status", "status"), ("instances", "n_instances"),
          ("states", "n_states"), ("alive transitions", "n_alive_transitions"),
          ("feature pool", "pool_size"), ("classes", "n_classes"),
          ("vars", "n_vars"), ("hard clauses", "n_hard"),
          ("iterations", "iterations"), ("optimum cost", "optimum_cost"),
          ("selected features", "selected"), ("rules", "n_rules"),
          ("verification", "verify.0.ok"), ("tests solved", "tests.solved"),
          ("message", "message"))


@dataclass
class RunRecord:
    """What one `learn` run established, filled in as each stage finishes.

    `facts` is report.kv key for key, in order.  `times` holds the stage
    times in seconds, in stage order; only report.txt shows them, so
    report.kv stays deterministic.
    """
    facts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)

    def verified(self) -> bool:
        n = self.facts["n_instances"]
        return all(self.facts.get(f"verify.{i}.ok") for i in range(n))

    def machine(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.facts.items())

    def human(self) -> str:
        facts = self.facts
        shown = dict(facts)
        shown["n_instances"] = ", ".join(
            facts[f"instance.{i}.name"] for i in range(facts["n_instances"]))
        if "selected" in facts:
            shown["selected"] = ", ".join(
                s.rsplit(":", 1)[0] for s in facts["selected"].split(";"))
        if "verify.0.ok" in facts:
            shown["verify.0.ok"] = "pass" if self.verified() else "FAIL"
        if "tests.solved" in facts:
            shown["tests.solved"] = f"{facts['tests.solved']}/{facts['tests.total']}"
        rows = [(label, str(shown[key])) for label, key in _TABLE if key in shown]
        rows += [(f"time {k}", f"{v:.2f}s") for k, v in self.times.items()]
        width = max(len(label) for label, _ in rows)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def learn(config: RunConfig) -> LearnResult:
    config.validate()
    t0 = time.monotonic()
    prep = prepare(config)
    sample, pool, matrix = prep.sample, prep.pool, prep.matrix
    classes, class_of = prep.classes, prep.class_of
    rec = RunRecord(times=prep.times)
    facts = rec.facts
    facts.update(status="ok", seed=config.seed,
                 max_feature_weight=config.max_feature_weight,
                 v_slack=config.v_slack,
                 merge_classes=int(config.merge_classes),
                 n_instances=len(sample.spaces))
    for i, sp in enumerate(sample.spaces):
        facts[f"instance.{i}.name"] = sp.gp.instance.name
        facts[f"instance.{i}.states"] = sp.n_states
        facts[f"instance.{i}.alive_transitions"] = len(sp.alive_t)
        facts[f"instance.{i}.max_goal_distance"] = sp.max_goal_distance()
    facts.update(n_states=sample.n_states,
                 n_alive_transitions=sample.n_alive_transitions(),
                 max_goal_distance=sample.max_goal_distance(),
                 pool_size=len(pool))

    t2 = time.monotonic()
    pairs = encoding.initial_pairs(classes, class_of, sample,
                                   extra_per_class=config.extra_pairs_per_class,
                                   seed=config.seed)
    iterations = 0
    message = ""
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise GenpolError(f"constraint generation did not converge in "
                              f"{MAX_ITERATIONS} rounds")
        theory = encoding.build_theory(sample, pool, matrix, classes, class_of,
                                       v_slack=config.v_slack, pairs=pairs)
        if theory.infeasible is not None:
            g, ng = theory.infeasible
            message = (f"no policy in feature space: goal state {g} and "
                       f"non-goal state {ng} have identical feature values")
            break
        result = maxsat.solve(theory.wcnf, config.solver_backend,
                              time_limit=config.solver_time_limit)
        if result.status != maxsat.OPTIMUM:
            message = "no policy in feature space: theory is unsatisfiable"
            break
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
    rec.times["solve"] = time.monotonic() - t2
    facts["n_classes"] = theory.n_good
    for key in ("n_vars", "n_hard", "n_soft", "n_clauses_full", "n_pairs"):
        facts[key] = theory.stats[key]
    facts["iterations"] = iterations

    pol = None
    tests = []
    if message:
        facts["status"] = "unsat"
        facts["message"] = message
    else:
        facts["optimum_cost"] = result.cost
        t3 = time.monotonic()
        pol = policy_mod.extract_policy(pool, phi, classes, goods)
        facts["n_selected"] = len(phi)
        facts["selected"] = ";".join(f"{f.render()}:{f.weight}"
                                     for f in pol.features)
        facts["n_rules"] = len(pol.rules)
        for i, (sp, off) in enumerate(zip(sample.spaces, sample.offsets)):
            v = verify_space(pol, sp, matrix[phi, off:off + sp.n_states].T)
            for key in ("ok", "complete", "safe", "acyclic"):
                facts[f"verify.{i}.{key}"] = int(getattr(v, key))
        rec.times["verify"] = time.monotonic() - t3

        t4 = time.monotonic()
        tests = run_tests(config, prep.dom, pol)
        if tests:
            facts["tests.solved"] = sum(1 for t in tests if t.status == "goal")
            facts["tests.total"] = len(tests)
            for i, t in enumerate(tests):
                facts[f"test.{i}.name"] = t.name
                facts[f"test.{i}.status"] = t.status
                facts[f"test.{i}.steps"] = t.steps
        rec.times["tests"] = time.monotonic() - t4
    rec.times["total"] = time.monotonic() - t0

    return LearnResult(facts["status"], message, pol, rec.machine(),
                       rec.human(), facts.get("optimum_cost"), iterations,
                       rec.verified(), tests)


def run_tests(config: RunConfig, dom, pol) -> list:
    outcomes = []
    for path in config.test_paths:
        gp = load_problem(dom, path, config.goal_params)
        res = policy_mod.greedy_execute(pol, gp, max_steps=config.max_steps,
                                        tie_break=config.tie_break,
                                        seed=config.seed)
        outcomes.append(TestOutcome(gp.instance.name, res.status, res.steps))
    return outcomes
