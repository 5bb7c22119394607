"""Feature pool generation and evaluation.

The value matrix of generation is checked, every feature on every state,
against the set-semantics oracle in `oracles.py` (`oracles.feature_value`).
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import domains
import oracles
from genpol import cli, concepts as co, features, pddl, space
from genpol.errors import ArityError, GenpolError, LimitExceededError
from genpol.features import (CardinalityFeature, DistanceFeature,
                             NullaryFeature)

TERNARY_DOMAIN = """
(define (domain tern)
  (:predicates (p ?x) (q ?x) (link ?x ?y ?z))
  (:action mark :parameters (?x) :precondition (and (p ?x))
           :effect (and (q ?x))))
"""

TERNARY_INSTANCE = """
(define (problem t1) (:domain tern)
  (:objects a b)
  (:init (p a) (p b) (link a a b))
  (:goal (and (q a) (q b))))
"""


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _sample(domain_text, instance_text, goal_params=()):
    return _sample_of(domain_text, [instance_text], goal_params)


def _sample_of(domain_text, instances, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    return space.SampleSet([
        space.expand_labeled(pddl.ground(
            dom, pddl.parse_instance(text, dom, list(goal_params))))
        for text in instances])


def _benchmark_sample(name, prob, goal_params):
    bench = BENCHMARKS / name
    return _sample((bench / "domain.pddl").read_text(),
                   (bench / f"{prob}.pddl").read_text(), goal_params)


def _oracle_matrix(pool, sample):
    """int64 [n_features, n_states]: every pool feature on every state of
    the sample, from the oracle."""
    states = [(sp.gp, s) for sp in sample.spaces for s in oracles.state_sets(sp)]
    return np.array([[oracles.feature_value(f, gp, s) for gp, s in states]
                     for f in pool.features], dtype=np.int64)


ONE_INSTANCE = [
    pytest.param(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",), 4,
                 id="blocks"),
    pytest.param(domains.GRIPPER_DOMAIN, domains.gripper_instance(2), (), 5, id="gripper"),
    pytest.param(domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)), (), 4,
                 id="visitall"),
]

TWO_SIZES = [
    pytest.param(domains.BLOCKS_DOMAIN,
                 [domains.clear_tower_instance(3), domains.clear_tower_instance(4)], ("b1",),
                 5, id="blocks-3-4"),
    pytest.param(domains.VISITALL_DOMAIN,
                 [domains.visitall_instance(2, 2, (0, 0)),
                  domains.visitall_instance(3, 2, (1, 0))], (), 5, id="visitall-2x2-3x2"),
    pytest.param(domains.VISITALL_DOMAIN,
                 [domains.visitall_instance(3, 1, (0, 0)), domains.visitall_instance(
                     65, 1, (64, 0), visited=[(x, 0) for x in range(1, 65)])], (), 5,
                 id="visitall-3x1-65x1"),
]


@pytest.mark.parametrize("domain_text,instance_text,goal_params,k", ONE_INSTANCE)
def test_generation_matches_per_state_evaluation(domain_text, instance_text,
                                                 goal_params, k):
    sample = _sample(domain_text, instance_text, goal_params)
    pool, matrix = features.generate_pool(sample, max_weight=k)
    assert len(pool) > 0
    assert matrix.shape == (len(pool), sample.n_states)
    assert np.array_equal(matrix, _oracle_matrix(pool, sample))


@pytest.mark.parametrize("domain_text,instances,goal_params,k", TWO_SIZES)
def test_generation_over_instances_of_different_sizes(domain_text, instances,
                                                      goal_params, k):
    # Sets and roles are padded to the larger instance (to two words for 65
    # objects), and an unreachable distance is n + 1 with each state's own n.
    sample = _sample_of(domain_text, instances, goal_params)
    sizes = [len(sp.gp.objects) for sp in sample.spaces]
    assert sizes[0] < sizes[1]
    pool, matrix = features.generate_pool(sample, max_weight=k)
    assert np.array_equal(matrix, _oracle_matrix(pool, sample))
    dist = [i for i, f in enumerate(pool.features) if isinstance(f, DistanceFeature)]
    assert dist
    off = sample.offsets[1]
    assert (matrix[dist, :off] == sizes[0] + 1).any()
    assert (matrix[dist, off:] == sizes[1] + 1).any()


@pytest.mark.parametrize("domain_text,instances,goal_params,k", [
    pytest.param(*p.values[:1], [p.values[1]], *p.values[2:], id=p.id)
    for p in ONE_INSTANCE] + TWO_SIZES)
def test_minimum_blocks_do_not_change_the_pool(domain_text, instances, goal_params, k,
                                               monkeypatch):
    # Blocks of one map and one target, and blocks that split the largest
    # target stack of the default run in halves.
    sample = _sample_of(domain_text, instances, goal_params)
    shapes = []
    min_distance = co.StateContext.min_distance

    def recorded(ctx, maps, targets):
        shapes.append((len(maps), len(targets)))
        return min_distance(ctx, maps, targets)

    monkeypatch.setattr(co.StateContext, "min_distance", recorded)
    pool, matrix = features.generate_pool(sample, max_weight=k)
    calls = len(shapes)
    n_maps, n_targets = max(shapes, key=lambda shape: shape[1])
    assert n_targets > 1
    half = (n_maps, n_targets // 2)
    per_map = sample.n_states * max(len(sp.gp.objects) for sp in sample.spaces)
    for bound in (1, half[0] * half[1] * per_map):
        shapes.clear()
        monkeypatch.setattr(features, "_MIN_BLOCK", bound)
        got_pool, got_matrix = features.generate_pool(sample, max_weight=k)
        assert got_pool.dump() == pool.dump()
        assert got_matrix.dtype == matrix.dtype and np.array_equal(got_matrix, matrix)
        assert len(shapes) > calls
        assert max(m * t * per_map for m, t in shapes) <= max(bound, per_map)
    assert half in shapes


# sha256 of the pool dump and of the value matrix bytes of each benchmark
# training sample at its benchmark weight, and of visitall at weight 8.
PINNED_POOLS = {
    ("clear", "prob05", ("b1",), 4): (
        38, "2b69b6ecb6f9ea0c7ec3cf7abf4fa27fabedda8dc72c54ada35c67f25f84ba90",
        "7974f4f2c38b526ac319aa76dfd9cec13d19e444d49aefd4c92adc1a2cdbb63b"),
    ("gripper", "prob04", (), 8): (
        216, "92a4fbfbbd6e6e183b4f9cf17263097565e253c20e97315f0f96cda9203f58ec",
        "850c780bbd0d91691e427c55e313af4a4033b76d4155a646bf97312ef6db16cb"),
    ("visitall", "prob3x3", (), 6): (
        56, "257a4df10ac4e382b04dad30150e237cc1889a59b54d8e55f2119e2083f62d66",
        "68baad520422845b017c031ef77e4db9ed430b7c3e2b19d1df1c831a22aa11df"),
    ("visitall", "prob3x3", (), 8): (
        203, "44058e3810afa2742646986ff34bacff02ce147d3d46d543ef431e495d84f2c7",
        "e59aaf7da17e8959e9bcb95e727a2b6bd2c018b529742889466fe8674d530e13"),
}


@pytest.mark.parametrize("name,prob,goal_params,k", list(PINNED_POOLS),
                         ids=[f"{name}-{k}" for name, _, _, k in PINNED_POOLS])
def test_benchmark_pools_are_pinned(name, prob, goal_params, k):
    sample = _benchmark_sample(name, prob, goal_params)
    pool, matrix = features.generate_pool(sample, max_weight=k)
    assert matrix.dtype == np.int64 and matrix.shape == (len(pool), sample.n_states)
    assert (len(pool), hashlib.sha256(pool.dump().encode()).hexdigest(),
            hashlib.sha256(matrix.tobytes()).hexdigest()) == PINNED_POOLS[name, prob,
                                                                          goal_params, k]


def test_feature_values_match_naive_oracle():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=5)
    assert np.array_equal(matrix, _oracle_matrix(pool, sample))


def test_weight_bound_and_minimal_pool():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                     ("b1",))
    pool, _ = features.generate_pool(sample, max_weight=1)
    assert len(pool) > 0
    # At the minimum bound only nullary atoms and atomic-concept counts fit.
    for f in pool.features:
        assert f.weight == 1
        assert isinstance(f, (NullaryFeature, CardinalityFeature))
    pool4, _ = features.generate_pool(sample, max_weight=4)
    assert max(f.weight for f in pool4.features) <= 4
    assert len(pool4) > len(pool)


def test_boolean_flag_iff_counts_never_exceed_one():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    sp = sample.spaces[0]
    pool, _ = features.generate_pool(sample, max_weight=4)
    cardinality = [f for f in pool.features if isinstance(f, CardinalityFeature)]
    assert cardinality
    states = oracles.state_sets(sp)
    for f in cardinality[::4]:
        counts = [len(oracles.naive_eval_state(f.concept, sp.gp, s))
                  for s in states]
        assert f.is_boolean == (max(counts) <= 1), f.render()
    # Distance features are always numeric.
    for f in pool.features:
        if isinstance(f, DistanceFeature):
            assert not f.is_boolean


def test_rows_are_distinct_and_non_constant():
    sample = _sample(domains.GRIPPER_DOMAIN, domains.gripper_instance(3), ())
    pool, matrix = features.generate_pool(sample, max_weight=5)
    sigs = {matrix[i].tobytes() for i in range(matrix.shape[0])}
    assert len(sigs) == matrix.shape[0]
    for i in range(matrix.shape[0]):
        assert not np.all(matrix[i] == matrix[i, 0]), pool.features[i].render()


def test_pool_order_is_weight_then_name():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, _ = features.generate_pool(sample, max_weight=4)
    keys = [(f.weight, f.render()) for f in pool.features]
    assert keys == sorted(keys)


@pytest.mark.parametrize("domain_text,instance_text,goal_params,k", [
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5), ("b1",), 4),
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(4), (), 8),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(3, 3, (1, 1)), (), 6),
], ids=["clear", "gripper", "visitall"])
def test_pool_weights_are_complexities(domain_text, instance_text, goal_params, k):
    # The paper's cost of a feature: 1 for a nullary atom, the syntax-tree
    # size of C for |C|, and the sum over the four components of a Dist.
    sample = _sample(domain_text, instance_text, goal_params)
    pool, _ = features.generate_pool(sample, max_weight=k)
    for f, w in zip(pool.features, pool.weights.tolist()):
        if isinstance(f, NullaryFeature):
            want = 1
        elif isinstance(f, CardinalityFeature):
            want = oracles.complexity(f.concept)
        else:
            want = sum(oracles.complexity(e) for e in (f.source, f.role, f.restrict,
                                                       f.target))
        assert f.weight == w == want, f.render()


def test_known_useful_features_survive():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                     ("b1",))
    pool, _ = features.generate_pool(sample, max_weight=4)
    renders = {f.render(): f.weight for f in pool.features}
    assert renders.get("holding") == 1
    assert renders.get("And(Nominal(goal0),holding)") == 3
    assert renders.get("Exists(on_plus,Nominal(goal0))") == 4

    gsample = _sample(domains.GRIPPER_DOMAIN, domains.gripper_instance(4), ())
    gpool, _ = features.generate_pool(gsample, max_weight=4)
    grenders = {f.render(): f.weight for f in gpool.features}
    assert grenders.get("Exists(carry,Top)") == 3
    assert grenders.get("Forall(at_g,at-robby)") == 3
    assert grenders.get("Not(Equal(at,at_g))") == 4


def test_distance_features_generated():
    sample = _sample(domains.VISITALL_DOMAIN,
                     domains.visitall_instance(3, 2, (0, 0)), ())
    pool, matrix = features.generate_pool(sample, max_weight=5)
    dists = [f for f in pool.features if isinstance(f, DistanceFeature)]
    assert dists
    # Unreachability is encoded as number-of-objects + 1.
    n = len(sample.spaces[0].gp.objects)
    assert matrix.max() <= n + 1


def test_high_arity_predicates_rejected_unless_ignored():
    sample = _sample(TERNARY_DOMAIN, TERNARY_INSTANCE)
    with pytest.raises(ArityError):
        features.generate_pool(sample, max_weight=3)
    pool, _ = features.generate_pool(sample, max_weight=3,
                                     ignore_high_arity=True)
    assert all("link" not in f.render() for f in pool.features)


SUFFIX_DOMAIN = """
(define (domain suffixes)
  (:predicates (p ?x) (p_g ?x) (on ?x ?y) (on_plus ?x ?y) (link ?x ?y ?z))
  (:action put :parameters (?x ?y) :precondition (and (p_g ?x) (on_plus ?x ?y))
           :effect (and (p ?x) (on ?x ?y))))
"""

SUFFIX_INSTANCE = """
(define (problem s1) (:domain suffixes)
  (:objects a b)
  (:init (p_g a) (on_plus a b))
  (:goal (and (p a) (on a b))))
"""


def test_predicate_names_with_reserved_suffixes_rejected(tmp_path, capsys):
    # `p_g` would print as the goal version of `p`, and `on_plus` as the
    # closure of `on`, so a feature over one would reload as the other.
    sample = _sample(SUFFIX_DOMAIN, SUFFIX_INSTANCE)
    for ignore in (False, True):
        with pytest.raises(GenpolError, match="on_plus, p_g$") as err:
            features.generate_pool(sample, max_weight=3, ignore_high_arity=ignore)
        assert not isinstance(err.value, ArityError)
    (tmp_path / "domain.pddl").write_text(SUFFIX_DOMAIN)
    (tmp_path / "s1.pddl").write_text(SUFFIX_INSTANCE)
    files = ["--domain", str(tmp_path / "domain.pddl"), "--training", str(tmp_path / "s1.pddl"),
             "--ignore-high-arity"]
    for command in ("features", "learn"):
        assert cli.main([command, *files]) == 2
        assert "on_plus, p_g" in capsys.readouterr().err


CONSTANT_DOMAIN = """
(define (domain consts)
  (:constants goal0)
  (:predicates (p ?x) (q ?x))
  (:action mark :parameters (?x) :precondition (q ?x) :effect (p ?x)))
"""

CONSTANT_INSTANCE = """
(define (problem c1) (:domain consts)
  (:objects a)
  (:init (q a) (q goal0))
  (:goal (p a)))
"""


def test_constant_named_like_a_goal_parameter_nominal_rejected(tmp_path, capsys):
    # `Nominal(goal0)` would mean the goal parameter `a`, not the constant.
    message = "domain constant 'goal0' has the name of the nominal of goal parameter 0"
    with pytest.raises(GenpolError, match=message):
        features.generate_pool(_sample(CONSTANT_DOMAIN, CONSTANT_INSTANCE, ["a"]),
                               max_weight=3)
    pool, _ = features.generate_pool(_sample(CONSTANT_DOMAIN, CONSTANT_INSTANCE),
                                     max_weight=3)
    assert any("Nominal(goal0)" in f.render() for f in pool.features)
    (tmp_path / "domain.pddl").write_text(CONSTANT_DOMAIN)
    (tmp_path / "c1.pddl").write_text(CONSTANT_INSTANCE)
    files = ["--domain", str(tmp_path / "domain.pddl"), "--training",
             str(tmp_path / "c1.pddl"), "--goal-params", "a"]
    for command in ("features", "learn"):
        assert cli.main([command, *files]) == 2
        assert message in capsys.readouterr().err


def test_mismatched_goal_parameter_counts_rejected():
    dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
    inst1 = pddl.parse_instance(domains.clear_tower_instance(3), dom, ["b1"])
    inst2 = pddl.parse_instance(domains.clear_tower_instance(4), dom, [])
    sample = space.SampleSet([
        space.expand_labeled(pddl.ground(dom, inst1)),
        space.expand_labeled(pddl.ground(dom, inst2)),
    ])
    with pytest.raises(GenpolError):
        features.generate_pool(sample, max_weight=3)


def test_pool_size_cap():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    with pytest.raises(LimitExceededError):
        features.generate_pool(sample, max_weight=4, max_pool=5)


@pytest.mark.parametrize("cap", [0, -1])
def test_pool_cap_below_one_is_rejected_before_generation(cap, monkeypatch):
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3), ("b1",))
    with pytest.raises(LimitExceededError):
        features.generate_pool(sample, max_weight=2, max_pool=1)  # 1 is a cap
    monkeypatch.setattr(features, "primitive_vocabulary",
                        lambda *args: pytest.fail("generation started"))
    with pytest.raises(GenpolError, match=f"^max_pool must be at least 1, got {cap}$") as err:
        features.generate_pool(sample, max_weight=2, max_pool=cap)
    assert not isinstance(err.value, LimitExceededError)


def test_pool_dump_load_round_trip():
    # A small blocks pool, then the three benchmark pools at their weights.
    for sample, k in [(_sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                               ("b1",)), 5),
                      (_benchmark_sample("clear", "prob05", ("b1",)), 4),
                      (_benchmark_sample("gripper", "prob04", ()), 8),
                      (_benchmark_sample("visitall", "prob3x3", ()), 6)]:
        pool, matrix = features.generate_pool(sample, max_weight=k)
        loaded = oracles.load_pool(pool.dump())
        assert [f.render() for f in loaded.features] == [f.render() for f in pool.features]
        assert loaded.features == pool.features
        assert np.array_equal(loaded.weights, pool.weights)
        # The reloaded features' oracle values are the generated ones.
        assert np.array_equal(_oracle_matrix(loaded, sample), matrix)


def test_load_pool_rejects_sparse_ids():
    with pytest.raises(GenpolError):
        oracles.load_pool("0 1 bool Atom(arm-empty)\n2 1 bool clear\n")


@pytest.mark.parametrize("text", [
    "0 1 Bool holding\n",                              # no such kind
    "0 1 numeric clear\n",
    "0 1 num Atom(arm-empty)\n",                       # an atom is bool
    "0 3 bool Dist(Nominal(b1),on,Top,clear)\n",       # a distance is num
    "0 1 bool Atom(arm-empty)\n1 one num clear\n",     # weight not an integer
    "0 1 bool Atom()\n",                               # names are not empty,
    "0 1 bool Atom(x))\n",                             # hold no parenthesis,
    "0 1 bool Atom(arm empty)\n",                      # no whitespace
    "0 2 bool Not(x))\n",
    "0 1 bool Atom(a,b)\n",                            # a form's argument count
    "0 3 num Dist(Nominal(b1),on,Top)\n",
    "0 3 num Dist(Nominal(b1),on,Top,clear,clear)\n",
])
def test_load_pool_rejects_malformed_lines(text):
    with pytest.raises(co.ExpressionParseError, match=r"^line \d: bad feature: "):
        oracles.load_pool(text)


def test_feature_lines_round_trip_every_kind():
    feats = [NullaryFeature("arm-empty"),
             CardinalityFeature(co.PrimitiveConcept("clear"), 1, True),
             CardinalityFeature(co.parse("Exists(on_plus,Nominal(b1))", co.CONCEPT), 4,
                                False),
             features.parse_feature(5, "num", "Dist(Nominal(b1),on,Top,clear)")]
    lines = [features.render_feature_line(i, f) for i, f in enumerate(feats)]
    assert [l.split()[2] for l in lines] == ["bool", "bool", "num", "num"]
    assert [features.parse_feature_line(l, i) for i, l in enumerate(lines)] == feats


def test_boolean_matrix_thresholds_numerics():
    # Row 0 holds a boolean feature's values, row 1 a numeric one's.
    values = np.array([[1, 0, 1], [0, 2, 5]], dtype=np.int64)
    assert features.boolean_matrix(values).tolist() == [[1, 0, 1], [0, 1, 1]]
