"""Propositional theory construction: classes, constraints, decoding."""

import numpy as np
import pytest

import domains
from genpol import encoding, features, maxsat, pddl, space
from genpol.encoding import (build_theory, compute_classes, decode,
                             initial_pairs, validate_solution)

ONEWAY_DOMAIN = """
(define (domain oneway)
  (:predicates (fresh) (done) (ash))
  (:action finish :parameters () :precondition (and (fresh))
           :effect (and (done) (not (fresh))))
  (:action burn :parameters () :precondition (and (fresh))
           :effect (and (ash) (not (fresh)))))
"""

ONEWAY_INSTANCE = """
(define (problem p1) (:domain oneway)
  (:init (fresh)) (:goal (and (done))))
"""


def _sample(domain_text, instance_text, goal_params=()):
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, list(goal_params))
    gp = pddl.ground(dom, inst)
    return space.SampleSet([space.expand_labeled(gp)])


def _oneway():
    sample = _sample(ONEWAY_DOMAIN, ONEWAY_INSTANCE)
    pool, matrix = features.generate_pool(sample, max_weight=1)
    return sample, pool, matrix


def test_direction_codes_track_value_changes():
    matrix = np.array([[3, 5], [2, 2], [4, 1], [0, 2]], dtype=np.int64)
    codes = encoding._direction_codes(matrix, 0, 1)
    # (source > 0) << 2 | direction, direction in {flat 0, up 1, down 2}.
    assert codes.tolist() == [
        (1 << 2) | encoding.UP,
        (1 << 2) | encoding.FLAT,
        (1 << 2) | encoding.DOWN,
        (0 << 2) | encoding.UP,
    ]


def test_classes_merge_by_change_profile():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    # finish (to the goal) and burn (to the dead end) change different
    # nullary atoms, so they stay distinct.
    assert len(classes) == 2
    assert len(class_of) == 2
    by_action = {}
    for (k, t), ci in class_of.items():
        sp = sample.spaces[k]
        by_action[sp.gp.actions[sp.act[t]].name] = classes[ci]
    assert by_action["finish()"].dst_dead is False
    assert by_action["burn()"].dst_dead is True
    assert {c.size for c in classes} == {1}


def test_unmerged_classes_are_singletons():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=4)
    merged, _ = compute_classes(sample, matrix, merge=True)
    single, class_of = compute_classes(sample, matrix, merge=False)
    n_alive = sample.n_alive_transitions()
    assert len(single) == n_alive
    assert all(c.size == 1 for c in single)
    assert len({class_of[key] for key in class_of}) == n_alive
    # Grouping singletons by codes reproduces the merged class count.
    assert len({c.codes for c in single}) == len(merged)


def test_training_space_class_counts():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=4)
    classes, _ = compute_classes(sample, matrix)
    assert len(classes) == 46

    gsample = _sample(domains.GRIPPER_DOMAIN, domains.gripper_instance(4))
    gpool, gmatrix = features.generate_pool(gsample, max_weight=8)
    gclasses, _ = compute_classes(gsample, gmatrix)
    assert len(gclasses) == 61


def test_value_domains_and_exactly_one():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of, v_slack=2)
    # fresh: distance 1 -> {1, 2}; done: goal -> {0}; ash: dead end -> absent.
    assert theory.v_dom == {0: [1, 2], 2: [0]}
    value_clauses = [theory.wcnf.hard[i] for i, t in enumerate(theory.tags)
                     if t == "value"]
    # One at-least-one per solvable state plus one pairwise exclusion for the
    # two-value state.
    assert len(value_clauses) == 3
    at_least = [c for c in value_clauses if all(l > 0 for l in c)]
    pairwise = [c for c in value_clauses if all(l < 0 for l in c)]
    assert len(at_least) == 2 and len(pairwise) == 1
    wide = build_theory(sample, pool, matrix, classes, class_of, v_slack=3)
    assert wide.v_dom[0] == [1, 2, 3]


def test_descend_skips_goal_and_dead_targets():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    # finish ends in a goal, burn in a dead end: no descend clause at all.
    assert theory.tags.count("descend") == 0
    assert theory.tags.count("deadend") == 1

    bsample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                      ("b1",))
    bpool, bmatrix = features.generate_pool(bsample, max_weight=3)
    bclasses, bclass_of = compute_classes(bsample, bmatrix)
    btheory = build_theory(bsample, bpool, bmatrix, bclasses, bclass_of,
                           v_slack=2)
    sp = bsample.spaces[0]
    expected = 0
    for t in sp.alive_t:
        did = sp.dst[t]
        if sp.goal_dist[did] >= 0 and not sp.is_goal[did]:
            expected += len(btheory.v_dom[sp.src[t]])
    assert btheory.tags.count("descend") == expected


def test_cover_clauses_one_per_alive_state():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=3)
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    sp = sample.spaces[0]
    n_alive_states = sum(1 for s in range(sp.n_states) if sp.alive[s])
    assert theory.tags.count("cover") == n_alive_states


def test_goal_separation_minimal_and_irredundant():
    sample, pool, matrix = _oneway()
    clauses, witness = encoding._separation_clauses(pool, matrix, sample)
    assert witness is None
    # Pool order: Atom(ash)=0, Atom(done)=1, Atom(fresh)=2.  The goal state
    # differs from `fresh` on {done, fresh} and from `ash` on {ash, done}.
    assert [sorted(c) for c in clauses] == [[0, 1], [1, 2]]

    bsample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                      ("b1",))
    bpool, bmatrix = features.generate_pool(bsample, max_weight=4)
    bclauses, bwitness = encoding._separation_clauses(bpool, bmatrix, bsample)
    assert bwitness is None
    sets = [frozenset(c) for c in bclauses]
    assert len(set(sets)) == len(sets)
    for a in sets:
        for b in sets:
            if a is not b:
                assert not a < b  # no clause subsumes another


def test_indistinguishable_goal_pair_marks_theory_infeasible():
    sample, pool, matrix = _oneway()
    # A pool that only sees `fresh` cannot tell the goal from the dead end.
    crippled = features.load_pool("0 1 bool Atom(fresh)\n")
    cmatrix = features.evaluate_matrix(crippled, sample)
    classes, class_of = compute_classes(sample, cmatrix)
    theory = build_theory(sample, crippled, cmatrix, classes, class_of)
    assert theory.infeasible is not None
    g, s = theory.infeasible
    assert {g, s} == {1, 2}  # the burned state and the goal state
    assert [] in theory.wcnf.hard
    assert maxsat.solve_wcnf(theory.wcnf).status == maxsat.UNSATISFIABLE


def test_variable_layout_and_soft_clauses():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    assert theory.n_select == len(pool)
    assert [theory.select_var(f) for f in range(len(pool))] == [1, 2, 3]
    assert theory.good_var(0) == len(pool) + 1
    v_ids = sorted(theory.v_var.values())
    assert v_ids[0] == len(pool) + len(classes) + 1
    assert v_ids == list(range(v_ids[0], v_ids[0] + len(v_ids)))
    assert theory.wcnf.nvars == v_ids[-1]
    assert theory.wcnf.soft == [(int(pool.weights[f]), [-theory.select_var(f)])
                                for f in range(len(pool))]
    assert len(theory.tags) == len(theory.wcnf.hard)
    assert theory.stats["n_hard"] == len(theory.wcnf.hard)
    assert theory.stats["n_soft"] == len(pool)
    assert theory.stats["n_alive_transitions"] == 2


def test_oneway_theory_solves_to_known_optimum():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    pairs = initial_pairs(classes, class_of, sample)
    theory = build_theory(sample, pool, matrix, classes, class_of, pairs=pairs)
    res = maxsat.solve_wcnf(theory.wcnf)
    assert res.status == maxsat.OPTIMUM
    # Atom(done) alone separates the goal and certifies the finish move.
    assert res.cost == 1
    phi, goods, values = decode(theory, res.model)
    assert [pool.features[f].render() for f in phi] == ["Atom(done)"]
    finish = [classes[ci] for (k, t), ci in class_of.items()
              if sample.spaces[k].gp.actions[sample.spaces[k].act[t]].name
              == "finish()"][0]
    assert goods == [finish.index]
    assert validate_solution(classes, phi, goods) == []
    # Value labels: the goal is 0 and the initial state within its band.
    assert values[2] == 0
    assert values[0] in (1, 2)


def test_initial_pairs_full_quadratic_when_small():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=3)
    classes, class_of = compute_classes(sample, matrix)
    pairs = initial_pairs(classes, class_of, sample)
    n = len(classes)
    assert len(pairs) == n * (n - 1) // 2
    assert all(a < b for a, b in pairs)


def test_initial_pairs_chain_identical_codes():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=4)
    classes, class_of = compute_classes(sample, matrix, merge=False)
    pairs = initial_pairs(classes, class_of, sample)
    pair_set = set(pairs)
    groups = {}
    for c in classes:
        groups.setdefault(c.codes, []).append(c.index)
    reps = {codes: members[0] for codes, members in groups.items()}
    # Every non-representative is chained to its representative...
    for members in groups.values():
        for ci in members[1:]:
            assert (members[0], ci) in pair_set
    # ...and representatives are pairwise covered, so label-equality plus
    # representative separation implies separation for all class pairs.
    rep_ids = sorted(reps.values())
    for i in range(len(rep_ids)):
        for j in range(i + 1, len(rep_ids)):
            assert (rep_ids[i], rep_ids[j]) in pair_set
    n_chain = sum(len(m) - 1 for m in groups.values())
    n_rep = len(rep_ids) * (len(rep_ids) - 1) // 2
    assert len(pairs) == n_chain + n_rep


def test_separation_clauses_only_for_requested_pairs():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=3)
    classes, class_of = compute_classes(sample, matrix)
    bare = build_theory(sample, pool, matrix, classes, class_of, pairs=[])
    assert bare.tags.count("separate") == 0
    assert bare.pairs == []
    one = build_theory(sample, pool, matrix, classes, class_of,
                       pairs=[(1, 0), (0, 1), (0, 0)])
    # Deduplicated, normalized, self-pairs dropped; two directions per pair.
    assert one.pairs == [(0, 1)]
    assert one.tags.count("separate") == 2


def test_validate_solution_flags_unseparated_mixtures():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=4)
    classes, class_of = compute_classes(sample, matrix)
    # With no features selected every class has the same (empty) signature,
    # so any mix of good and bad classes is a violation.
    goods = [0]
    violations = validate_solution(classes, [], goods)
    assert violations
    assert all(a < b for a, b in violations)
    # The single good class must appear in every reported pair.
    assert all(a == 0 or b == 0 for a, b in violations)
    # Selecting every feature separates everything: no violations.
    assert validate_solution(classes, list(range(len(pool))), goods) == []
