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

# Constraint-generation rounds before `solve_fixpoint` gives up.
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
    max_states: int = space.MAX_STATES
    max_transitions: int = space.MAX_TRANSITIONS
    max_pool: int = 200_000
    solver_time_limit: float | None = None
    solver_backend: str = "embedded"
    ignore_high_arity: bool = False
    tie_break: str = "first"
    max_steps: int | None = None

    def validate(self):
        if self.max_feature_weight < 1:
            raise GenpolError("max_feature_weight must be at least 1")
        if self.v_slack < 1:
            raise GenpolError("v_slack must be at least 1")
        if not self.training_paths:
            raise GenpolError("at least one training instance is required")
        space.check_caps(self.max_states, self.max_transitions)
        features.check_max_pool(self.max_pool)
        maxsat.check_time_limit(self.solver_time_limit)
        policy_mod.check_tie_break(self.tie_break)
        policy_mod.check_max_steps(self.max_steps)


@dataclass
class Prepared:
    """Everything the stages after transition classes start from."""
    dom: object
    sample: space.SampleSet
    pool: features.FeaturePool
    matrix: object             # features x global states
    classes: encoding.Classes
    class_of: object           # class per alive transition of the sample
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
    spaces, generate the feature pool and group transitions into classes.
    A dead-end initial state is refused: the theory constrains alive states."""
    t0 = time.monotonic()
    dom = load_domain(config.domain_path)
    sample = space.SampleSet([
        space.label_goal_distances(space.expand(load_problem(dom, path, config.goal_params),
                                                config.max_states, config.max_transitions))
        for path in config.training_paths])
    for sp in sample.spaces:
        if sp.goal_dist[0] < 0:
            raise GenpolError(f"initial state of training instance "
                              f"'{sp.gp.instance.name}' is a dead end: no goal is reachable")
    t1 = time.monotonic()
    pool, matrix = features.generate_pool(
        sample, max_weight=config.max_feature_weight, max_pool=config.max_pool,
        ignore_high_arity=config.ignore_high_arity)
    t2 = time.monotonic()
    classes, class_of = encoding.compute_classes(sample, matrix)
    return Prepared(dom, sample, pool, matrix, classes, class_of,
                    {"expand": t1 - t0, "pool": t2 - t1})


def start_pairs(prep: Prepared, config: RunConfig) -> list:
    """The class pairs tau that constraint generation starts from."""
    return encoding.initial_pairs(prep.classes, prep.class_of, prep.sample,
                                  seed=config.seed)


def build_theory(prep: Prepared, pairs: list, config: RunConfig) -> encoding.Theory:
    """The theory of a prepared sample with its separation constraints
    restricted to the class pairs `pairs`."""
    return encoding.build_theory(prep.sample, prep.pool, prep.matrix,
                                 prep.classes, prep.class_of,
                                 v_slack=config.v_slack, pairs=pairs)


@dataclass
class Fixpoint:
    """Where constraint generation stopped."""
    theory: encoding.Theory  # of the last round
    result: object           # maxsat.MaxSatResult; None for an infeasible pool
    phi: list                # selected features of the final model
    goods: list              # good classes of the final model
    iterations: int
    message: str             # why no policy exists; empty when one does


def solve_fixpoint(prep: Prepared, pairs: list, config: RunConfig) -> Fixpoint:
    """Solves the theory restricted to the pair set tau, starting from
    `pairs`, and grows tau with the pairs the model leaves unseparated until
    it leaves none: the model then satisfies the full theory.

    Each round builds the whole theory: perfbench's tracer counts one round per
    `encoding.build_theory` call, as `tests/test_trace_hooks.py` pins.  The
    embedded backend continues one OLL search across rounds: the fresh pairs
    are appended to tau, so a round's hard clauses extend the last round's
    by the new `separate` clauses, and only those are loaded."""
    oll = maxsat.Oll()
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise GenpolError(f"constraint generation did not converge in "
                              f"{MAX_ITERATIONS} rounds")
        theory = build_theory(prep, pairs, config)
        if theory.infeasible is not None:
            g, ng = theory.infeasible
            return Fixpoint(theory, None, [], [], iterations,
                            f"no policy in feature space: goal state {g} and "
                            f"non-goal state {ng} have identical feature values")
        result = maxsat.solve(theory.wcnf, config.solver_backend,
                              time_limit=config.solver_time_limit, oll=oll)
        if result.status != maxsat.OPTIMUM:
            return Fixpoint(theory, result, [], [], iterations,
                            "no policy in feature space: theory is unsatisfiable")
        phi, goods = encoding.decode(theory, result.model)
        violated = encoding.validate_solution(prep.classes, phi, goods)
        if not violated:
            return Fixpoint(theory, result, phi, goods, iterations, "")
        known = set(pairs)
        fresh = [p for p in violated if p not in known]
        if not fresh:
            raise InternalInvariantError(
                "validation reports violated pairs already encoded")
        pairs = pairs + fresh


# report.txt: one row per record key present, under these labels.
_TABLE = (("status", "status"), ("instances", "n_instances"),
          ("states", "n_states"), ("alive transitions", "n_alive_transitions"),
          ("feature pool", "pool_size"), ("classes", "n_classes"),
          ("vars", "n_vars"), ("hard clauses", "n_hard"),
          ("iterations", "iterations"), ("optimum cost", "optimum_cost"),
          ("selected features", "selected"), ("rules", "n_rules"),
          ("verification", "verify.0.ok"), ("tests solved", "tests.solved"),
          ("message", "message"))


def render_kv(facts: dict) -> str:
    """One `key=value` line per fact, in order: report.kv and the stdout of
    the stage commands."""
    return "".join(f"{k}={v}\n" for k, v in facts.items())


@dataclass
class LearnResult:
    """What one `learn` run established, filled in as each stage finishes.

    `facts` is report.kv key for key, in order.  `times` holds the stage
    times in seconds, in stage order; only report.txt shows them, so
    report.kv stays deterministic.  `policy` is None unless one was found.
    The other attributes read `facts`.
    """
    facts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    policy: object = None

    @property
    def status(self) -> str:  # ok | unsat
        return self.facts["status"]

    @property
    def message(self) -> str:  # why no policy exists; empty when one does
        return self.facts.get("message", "")

    @property
    def cost(self) -> int | None:
        return self.facts.get("optimum_cost")

    @property
    def verify_ok(self) -> bool:
        """Whether the policy verified on every training instance."""
        n = self.facts["n_instances"]
        return all(self.facts.get(f"verify.{i}.ok") for i in range(n))

    @property
    def exit_code(self) -> int:
        """0 for a policy found and verified on every training instance."""
        return 0 if self.status == "ok" and self.verify_ok else 1

    def machine(self) -> str:
        """report.kv"""
        return render_kv(self.facts)

    def human(self) -> str:
        """report.txt"""
        facts = self.facts
        shown = dict(facts)
        shown["n_instances"] = ", ".join(
            facts[f"instance.{i}.name"] for i in range(facts["n_instances"]))
        if "selected" in facts:
            shown["selected"] = ", ".join(
                s.rsplit(":", 1)[0] for s in facts["selected"].split(";"))
        if "verify.0.ok" in facts:
            shown["verify.0.ok"] = "pass" if self.verify_ok else "FAIL"
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
    res = LearnResult(times=prep.times)
    facts = res.facts
    facts.update(status="ok", seed=config.seed,
                 max_feature_weight=config.max_feature_weight,
                 v_slack=config.v_slack, n_instances=len(sample.spaces))
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
    fix = solve_fixpoint(prep, start_pairs(prep, config), config)
    res.times["solve"] = time.monotonic() - t2
    facts["n_classes"] = fix.theory.n_good
    for key in ("n_vars", "n_hard", "n_soft", "n_clauses_full", "n_pairs"):
        facts[key] = fix.theory.stats[key]
    facts["iterations"] = fix.iterations

    if fix.message:
        facts.update(status="unsat", message=fix.message)
    else:
        facts["optimum_cost"] = fix.result.cost
        t3 = time.monotonic()
        phi = fix.phi
        pol = res.policy = policy_mod.extract_policy(pool, phi, prep.classes,
                                                     fix.goods)
        facts["n_selected"] = len(phi)
        facts["selected"] = ";".join(f"{f.render()}:{f.weight}"
                                     for f in pol.features)
        facts["n_rules"] = len(pol.rules)
        for i, (sp, off) in enumerate(zip(sample.spaces, sample.offsets)):
            v = verify_space(pol, sp, matrix[phi, off:off + sp.n_states].T)
            for key in ("ok", "complete", "safe", "acyclic"):
                facts[f"verify.{i}.{key}"] = int(getattr(v, key))
        res.times["verify"] = time.monotonic() - t3

        t4 = time.monotonic()
        if config.test_paths:
            facts.update({"tests.solved": 0, "tests.total": len(config.test_paths)})
        for i, path in enumerate(config.test_paths):
            gp = load_problem(prep.dom, path, config.goal_params)
            run = policy_mod.greedy_execute(pol, gp, max_steps=config.max_steps,
                                            tie_break=config.tie_break,
                                            seed=config.seed)
            facts["tests.solved"] += run.solved
            facts[f"test.{i}.name"] = gp.instance.name
            facts[f"test.{i}.status"] = run.status
            facts[f"test.{i}.steps"] = run.steps
        res.times["tests"] = time.monotonic() - t4
    res.times["total"] = time.monotonic() - t0
    return res
