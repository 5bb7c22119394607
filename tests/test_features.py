"""Feature pool generation and evaluation.

The vectorized generation path is cross-checked two ways: against the
per-state `evaluate` methods (two independent code paths inside the
package) and against the naive set-semantics oracle in `oracles.py`.
"""

import numpy as np
import pytest

import domains
import oracles
from genpol import concepts as co, features, pddl, space
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


def _sample(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    gp = pddl.ground(dom, inst)
    return space.SampleSet([space.expand_labeled(gp)])


@pytest.mark.parametrize("domain_text,instance_text,goal_params,k", [
    (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4), ("b1",), 4),
    (domains.GRIPPER_DOMAIN, domains.gripper_instance(2), (), 5),
    (domains.VISITALL_DOMAIN, domains.visitall_instance(2, 2, (0, 0)), (), 4),
], ids=["blocks", "gripper", "visitall"])
def test_generation_matches_per_state_evaluation(domain_text, instance_text,
                                                 goal_params, k):
    sample = _sample(domain_text, instance_text, goal_params)
    pool, matrix = features.generate_pool(sample, max_weight=k)
    assert len(pool) > 0
    assert matrix.shape == (len(pool), sample.n_states)
    fresh = features.evaluate_matrix(pool, sample)
    assert np.array_equal(matrix, fresh)


@pytest.mark.parametrize("domain_text,instances,goal_params,k", [
    (domains.BLOCKS_DOMAIN,
     [domains.clear_tower_instance(3), domains.clear_tower_instance(4)], ("b1",), 5),
    (domains.VISITALL_DOMAIN,
     [domains.visitall_instance(2, 2, (0, 0)), domains.visitall_instance(3, 2, (1, 0))],
     (), 5),
], ids=["blocks-3-4", "visitall-2x2-3x2"])
def test_generation_over_instances_of_different_sizes(domain_text, instances,
                                                      goal_params, k):
    # Roles are padded to the larger instance, and an unreachable distance
    # is n + 1 with each state's own n.
    dom = pddl.parse_domain(domain_text)
    sample = space.SampleSet([
        space.expand_labeled(pddl.ground(
            dom, pddl.parse_instance(text, dom, list(goal_params))))
        for text in instances])
    sizes = [len(sp.gp.objects) for sp in sample.spaces]
    assert sizes[0] < sizes[1]
    pool, matrix = features.generate_pool(sample, max_weight=k)
    assert np.array_equal(matrix, features.evaluate_matrix(pool, sample))
    dist = [i for i, f in enumerate(pool.features) if isinstance(f, DistanceFeature)]
    assert dist
    off = sample.offsets[1]
    assert (matrix[dist, :off] == sizes[0] + 1).any()
    assert (matrix[dist, off:] == sizes[1] + 1).any()


def test_feature_values_match_naive_oracle():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    sp = sample.spaces[0]
    gp = sp.gp
    pool, matrix = features.generate_pool(sample, max_weight=5)
    states = list(range(0, sp.n_states, 13))
    checked = 0
    for i in range(0, len(pool), 3):
        f = pool.features[i]
        for sid in states:
            state = sp.states[sid]
            if isinstance(f, NullaryFeature):
                want = int(any(gp.atoms[a] == (f.pred,) for a in state))
            elif isinstance(f, CardinalityFeature):
                card = len(oracles.naive_eval_state(f.concept, gp, state))
                want = int(card == 1) if f.is_boolean else card
            else:
                want = oracles.naive_distance(gp, state, f.source, f.role,
                                              f.restrict, f.target)
            assert matrix[i, sid] == want, (f.render(), sid)
            checked += 1
    assert checked > 100


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
    for f in cardinality[::4]:
        counts = [len(oracles.naive_eval_state(f.concept, sp.gp, s))
                  for s in sp.states]
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
            want = co.complexity(f.concept)
        else:
            want = sum(co.complexity(e) for e in (f.source, f.role, f.restrict,
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


def test_pool_dump_load_round_trip():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=5)
    text = pool.dump()
    loaded = features.load_pool(text)
    assert [f.render() for f in loaded.features] == [f.render() for f in pool.features]
    assert loaded.features == pool.features
    assert np.array_equal(loaded.weights, pool.weights)
    assert np.array_equal(loaded.booleans, pool.booleans)
    # Values computed from the reloaded pool agree with the originals.
    assert np.array_equal(features.evaluate_matrix(loaded, sample), matrix)


def test_load_pool_rejects_sparse_ids():
    with pytest.raises(GenpolError):
        features.load_pool("0 1 bool Atom(arm-empty)\n2 1 bool clear\n")


def test_boolean_matrix_thresholds_numerics():
    pool = features.load_pool(
        "0 1 bool Atom(arm-empty)\n"
        "1 1 num clear\n")
    values = np.array([[1, 0, 1], [0, 2, 5]], dtype=np.int64)
    got = features.boolean_matrix(pool, values)
    assert got.tolist() == [[1, 0, 1], [0, 1, 1]]
