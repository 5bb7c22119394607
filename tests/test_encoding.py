"""Propositional theory construction: classes, constraints, decoding."""

import hashlib
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import domains
import oracles
from genpol import encoding, features, maxsat, pddl, pipeline, space
from genpol.encoding import (build_theory, compute_classes, decode,
                             initial_pairs, validate_solution)
from genpol.errors import GenpolError, InternalInvariantError
from genpol.sat import Cdcl

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

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


def _alive_actions(sample):
    """The action name of each alive transition of the sample, in order."""
    return [sp.gp.actions[a] for sp in sample.spaces
            for a in sp.act[sp.alive_t].tolist()]


def _domains(theory):
    """Solvable global state -> its admissible value labels."""
    return {g: list(range(d, d + n)) for g, (d, n) in enumerate(
        zip(theory.goal_dist.tolist(), theory.v_count.tolist())) if n}


def test_direction_codes_track_value_changes():
    matrix = np.array([[3, 5], [2, 2], [4, 1], [0, 2]], dtype=np.int64)
    codes = encoding._direction_codes(matrix, np.array([0]), np.array([1]))
    # (source > 0) << 2 | direction, direction in {flat 0, up 1, down 2}.
    assert codes.shape == (1, 4)
    assert codes[0].tolist() == [
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
    by_action = dict(zip(_alive_actions(sample), class_of.tolist()))
    assert not classes.dst_dead[by_action["finish()"]]
    assert classes.dst_dead[by_action["burn()"]]
    assert classes.size.tolist() == [1, 1]


def test_unmerged_classes_are_singletons():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=4)
    merged, merged_of = compute_classes(sample, matrix)
    single, class_of = oracles.unmerged_classes(sample, matrix)
    n_alive = sample.n_alive_transitions()
    assert len(single) == n_alive
    assert single.size.tolist() == [1] * n_alive
    assert class_of.tolist() == list(range(n_alive))
    # Each singleton has its transition's merged code and dead-end target.
    assert (single.codes == merged.codes[merged_of]).all()
    assert (single.dst_dead == (sample.goal_dist[sample.dst] < 0)).all()
    # Grouping singletons by codes reproduces the merged class count.
    assert len({row.tobytes() for row in single.codes}) == len(merged)


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
    assert _domains(theory) == {0: [1, 2], 2: [0]}
    value_clauses = [c for c, t in zip(theory.wcnf.hard.tolist(),
                                       oracles.tags(theory)) if t == "value"]
    # One at-least-one per solvable state plus one pairwise exclusion for the
    # two-value state.
    assert len(value_clauses) == 3
    at_least = [c for c in value_clauses if all(l > 0 for l in c)]
    pairwise = [c for c in value_clauses if all(l < 0 for l in c)]
    assert len(at_least) == 2 and len(pairwise) == 1
    wide = build_theory(sample, pool, matrix, classes, class_of, v_slack=3)
    assert _domains(wide)[0] == [1, 2, 3]


def test_descend_skips_goal_and_dead_targets():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    # finish ends in a goal, burn in a dead end: no descend clause at all.
    assert oracles.tags(theory).count("descend") == 0
    assert oracles.tags(theory).count("deadend") == 1

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
            expected += btheory.v_count[sp.src[t]]
    assert oracles.tags(btheory).count("descend") == expected


def test_cover_clauses_one_per_alive_state():
    sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(3),
                     ("b1",))
    pool, matrix = features.generate_pool(sample, max_weight=3)
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    sp = sample.spaces[0]
    n_alive_states = sum(1 for s in range(sp.n_states) if sp.alive[s])
    assert oracles.tags(theory).count("cover") == n_alive_states


def test_goal_separation_minimal_and_irredundant():
    sample, pool, matrix = _oneway()
    clauses, witness = encoding._separation_clauses(matrix, sample)
    assert witness is None
    # Pool order: Atom(ash)=0, Atom(done)=1, Atom(fresh)=2.  The goal state
    # differs from `fresh` on {done, fresh} and from `ash` on {ash, done}.
    assert [sorted(c) for c in clauses.tolist()] == [[0, 1], [1, 2]]

    bsample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(4),
                      ("b1",))
    _, bmatrix = features.generate_pool(bsample, max_weight=4)
    bclauses, bwitness = encoding._separation_clauses(bmatrix, bsample)
    assert bwitness is None
    sets = [frozenset(c) for c in bclauses.tolist()]
    assert len(set(sets)) == len(sets)
    for a in sets:
        for b in sets:
            if a is not b:
                assert not a < b  # no clause subsumes another


def test_indistinguishable_goal_pair_marks_theory_infeasible():
    sample, pool, matrix = _oneway()
    # A pool that only sees `fresh` cannot tell the goal from the dead end.
    crippled = oracles.load_pool("0 1 bool Atom(fresh)\n")
    sp = sample.spaces[0]
    states = oracles.state_sets(sp)
    cmatrix = np.array([[oracles.feature_value(f, sp.gp, s) for s in states]
                        for f in crippled.features], dtype=np.int64)
    classes, class_of = compute_classes(sample, cmatrix)
    theory = build_theory(sample, crippled, cmatrix, classes, class_of)
    assert theory.infeasible is not None
    g, s = theory.infeasible
    assert {g, s} == {1, 2}  # the burned state and the goal state
    assert [] in theory.wcnf.hard.tolist()
    assert maxsat.solve_wcnf(theory.wcnf).status == maxsat.UNSATISFIABLE


def test_an_empty_pool_separates_goals_only_when_both_sides_exist():
    # Zero features give every state the one empty signature: a goal and a
    # non-goal state are the witness pair, and states of one side alone need
    # no goal separation clause.
    sample, _, matrix = _oneway()
    none = matrix[:0]
    goal = int(np.flatnonzero(sample.is_goal)[0])
    other = int(np.flatnonzero(~sample.is_goal)[0])
    assert encoding._separation_clauses(none, sample) == (None, (goal, other))
    empty = oracles.load_pool("")
    theory = build_theory(sample, empty, none, *compute_classes(sample, none))
    assert theory.infeasible == (goal, other)
    assert maxsat.solve_wcnf(theory.wcnf).status == maxsat.UNSATISFIABLE
    for side in (True, False):
        one_side = SimpleNamespace(is_goal=np.full(sample.n_states, side))
        clauses, witness = encoding._separation_clauses(none, one_side)
        assert witness is None and clauses.tolist() == []


def test_variable_layout_and_soft_clauses():
    sample, pool, matrix = _oneway()
    classes, class_of = compute_classes(sample, matrix)
    theory = build_theory(sample, pool, matrix, classes, class_of)
    assert theory.n_select == len(pool)
    assert [oracles.select_var(f) for f in range(len(pool))] == [1, 2, 3]
    assert oracles.good_var(theory, 0) == len(pool) + 1
    v_ids = sorted(oracles.value_var(theory, g, d)
                   for g, dom in _domains(theory).items() for d in dom)
    assert v_ids[0] == len(pool) + len(classes) + 1
    assert v_ids == list(range(v_ids[0], v_ids[0] + len(v_ids)))
    assert theory.wcnf.nvars == v_ids[-1]
    assert theory.wcnf.soft.tolist() == [[-oracles.select_var(f)]
                                         for f in range(len(pool))]
    assert theory.wcnf.weights.tolist() == pool.weights.tolist()
    assert len(oracles.tags(theory)) == len(theory.wcnf.hard)
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
    phi, goods = decode(theory, res.model)
    assert [pool.features[f].render() for f in phi] == ["Atom(done)"]
    finish = dict(zip(_alive_actions(sample), class_of.tolist()))["finish()"]
    assert goods == [finish]
    assert validate_solution(classes, phi, goods) == []
    # Value labels: the goal is 0, the initial state within its band and
    # the dead end unlabeled.
    values = oracles.value_labels(theory, res.model)
    assert values[2] == 0
    assert values[0] in (1, 2)
    assert values[1] == -1
    encoding.check_model(theory, classes, res.model)
    # A model with two labels on one state violates a `value` clause.
    twice = list(res.model)
    twice[oracles.value_var(theory, 0, 1)] = twice[oracles.value_var(theory, 0, 2)] = 1
    with pytest.raises(InternalInvariantError, match="state 0 carries two"):
        oracles.value_labels(theory, twice)
    with pytest.raises(GenpolError, match=r"hard clause \d+ \(value\)") as caught:
        encoding.check_model(theory, classes, twice)
    assert not isinstance(caught.value, InternalInvariantError)


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
    # Merged classes share no code, so chaining adds nothing to the full set
    # of class pairs that initial_pairs starts from.
    merged, merged_of = compute_classes(sample, matrix)
    assert oracles.chained_pairs(merged) == initial_pairs(merged, merged_of, sample)
    classes, _ = oracles.unmerged_classes(sample, matrix)
    pairs = oracles.chained_pairs(classes)
    pair_set = set(pairs)
    groups = {}
    for c, row in enumerate(classes.codes):
        groups.setdefault(row.tobytes(), []).append(c)
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
    assert oracles.tags(bare).count("separate") == 0
    assert bare.pairs == []
    one = build_theory(sample, pool, matrix, classes, class_of,
                       pairs=[(1, 0), (0, 1), (0, 0)])
    # Deduplicated, normalized, self-pairs dropped; two directions per pair.
    assert one.pairs == [(0, 1)]
    assert oracles.tags(one).count("separate") == 2


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


# sha256 of `format_wcnf` and of the `.tags` lines of the starting theory
# (`initial_pairs`, default seed; unmerged, the oracle's singleton classes and
# chained pairs); any change to clause order, variable numbering, class ids or
# pair selection changes them.
PINNED = {
    ("clear-5", True): (
        "a79f7a986472e4cf3f07a9645e9764156433244dd52e94e0fd40d99b343e8cf6",
        "6844094439f8119fa1076a28afc0212908c2341d7cb47bc9f6c4a36c8e1e0980"),
    ("clear-5", False): (
        "79ad72f6dbe9abfe593ad7b76968fad8ee6ccf408c1a6f41a2fd09039f0993a0",
        "341129547d23c66b0317d10a130c05f09eb5a498be4b62556209e7ed3ae07752"),
    # More than PAIR_FULL_LIMIT class pairs: shared sources and random extras.
    ("visitall", True): (
        "cc45398b1cd94e5c09dc43a4c25fedbb3729f0c34494741ef2a54ef203255922",
        "90c875bea80aad553207e36254f70bfc0ab5859f48e47bf4be54912e4e5957f1"),
}

# The three benchmark training instances: (problem, goal parameters, weight).
BENCHMARK_SAMPLES = {"clear": ("prob05", ["b1"], 4),
                     "gripper": ("prob04", [], 8),
                     "visitall": ("prob3x3", [], 6)}

# A ladder climbed rung by rung, from which one can fall at any rung into a
# dead end: transition classes whose targets are dead ends.
LADDER_DOMAIN = """
(define (domain ladder)
  (:types rung)
  (:predicates (at ?r - rung) (next ?a ?b - rung) (fallen))
  (:action up :parameters (?a ?b - rung) :precondition (and (at ?a) (next ?a ?b))
           :effect (and (at ?b) (not (at ?a))))
  (:action down :parameters (?a ?b - rung)
           :precondition (and (at ?b) (next ?a ?b))
           :effect (and (at ?a) (not (at ?b))))
  (:action fall :parameters (?a - rung) :precondition (and (at ?a))
           :effect (and (fallen) (not (at ?a)))))
"""


def _ladder_instance(n):
    rungs = " ".join(f"r{i}" for i in range(n))
    steps = " ".join(f"(next r{i} r{i + 1})" for i in range(n - 1))
    return (f"(define (problem ladder-{n}) (:domain ladder)\n"
            f"  (:objects {rungs} - rung)\n"
            f"  (:init (at r0) {steps})\n"
            f"  (:goal (and (at r{n - 1}))))")


def _ladders():
    """A sample of two spaces, ladders of 3 and 5 rungs."""
    dom = pddl.parse_domain(LADDER_DOMAIN)
    return space.SampleSet([space.expand_labeled(pddl.ground(
        dom, pddl.parse_instance(_ladder_instance(n), dom, [])))
        for n in (3, 5)])


def _prepared(name):
    """(sample, pool, matrix) of a benchmark sample or of "ladders"."""
    if name == "ladders":
        sample = _ladders()
        return (sample, *features.generate_pool(sample, max_weight=4))
    prob, goal_params, k = BENCHMARK_SAMPLES[name]
    d = BENCHMARKS / name
    prep = pipeline.prepare(pipeline.RunConfig(
        domain_path=str(d / "domain.pddl"),
        training_paths=[str(d / f"{prob}.pddl")],
        goal_params=goal_params, max_feature_weight=k))
    return prep.sample, prep.pool, prep.matrix


@pytest.fixture(scope="module")
def prepared():
    """_prepared, each sample built once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _prepared(name)
        return cache[name]
    return get


def _starting_theory(name, merge, prepared):
    """The theory of the first learning round on sample `name`."""
    if name == "clear-5":
        sample = _sample(domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5),
                         ("b1",))
        pool, matrix = features.generate_pool(sample, max_weight=4)
    else:
        sample, pool, matrix = prepared(name)
    if merge:
        classes, class_of = compute_classes(sample, matrix)
        pairs = initial_pairs(classes, class_of, sample)
    else:
        classes, class_of = oracles.unmerged_classes(sample, matrix)
        pairs = oracles.chained_pairs(classes)
    return build_theory(sample, pool, matrix, classes, class_of, pairs=pairs)


@pytest.mark.parametrize("name, merge", sorted(PINNED))
def test_starting_theory_bytes_are_pinned(name, merge, prepared):
    theory = _starting_theory(name, merge, prepared)
    wcnf = maxsat.format_wcnf(theory.wcnf)
    tags = "".join(f"{i} {tag}\n" for i, tag in enumerate(oracles.tags(theory)))
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (digest(wcnf), digest(tags)) == PINNED[(name, merge)]


# Per starting theory: the optimum cost, the sha256 of the model's 0/1 bytes,
# and the SAT calls, conflicts, decisions and propagations of the embedded
# search, summed over the Cdcl.solve calls that return.  Loading the clauses
# in another order or state changes the search and so these counts.
PINNED_SEARCH = {
    ("clear-5", False): (
        8, "1a07817a59ad743691f8443ee822aed6b3a701791f7f6f8c06041131c0da1fce",
        9, 5, 776, 6119),
    ("clear-5", True): (
        8, "0bb99fe786c602eb8ce9caaf8731e0e3d744c6979153a5e32db8850f21a56804",
        9, 5, 774, 3050),
    # 7 cores, so 7 sums built and 8 bounds extended between solves.
    ("gripper", True): (
        10, "ec777dcc83c604c4bf96c83a52e60bddd19305e1c4d7b5aced83079f042bf7e2",
        17, 63, 4607, 25398),
    ("visitall", True): (
        7, "e1053e26e99da5564271eea8b27dc93395974cf67f1422b64f00dd6686f7f51e",
        7, 18, 2574, 13186),
}


@pytest.mark.parametrize("name, merge", sorted(PINNED_SEARCH))
def test_starting_theory_search_is_pinned(name, merge, prepared, monkeypatch):
    theory = _starting_theory(name, merge, prepared)
    counts = [0, 0, 0, 0]
    solve = Cdcl.solve

    def counted(self, *args, **kwargs):
        before = (0, self.conflicts, self.decisions, self.propagations)
        result = solve(self, *args, **kwargs)
        after = (1, self.conflicts, self.decisions, self.propagations)
        counts[:] = [n + b - a for n, a, b in zip(counts, before, after)]
        return result

    monkeypatch.setattr(Cdcl, "solve", counted)
    res = maxsat.solve_wcnf(theory.wcnf)
    model = hashlib.sha256(bytes(res.model)).hexdigest()
    assert (res.cost, model, *counts) == PINNED_SEARCH[(name, merge)]


@pytest.mark.parametrize("merge", [True, False])
@pytest.mark.parametrize("name", sorted(BENCHMARK_SAMPLES) + ["ladders"])
def test_classes_and_validation_match_dict_grouping(name, merge, prepared):
    sample, _pool, matrix = prepared(name)
    want_of, want_codes, want_size, want_dead = oracles.transition_classes(
        sample, matrix, merge)
    if merge:
        classes, class_of = compute_classes(sample, matrix)
        assert class_of.tolist() == want_of
        assert [tuple(row) for row in classes.codes.tolist()] == want_codes
        assert classes.size.tolist() == want_size
        assert classes.dst_dead.tolist() == want_dead
    else:
        # Singleton classes share codes, which validation must group.
        classes, _ = oracles.unmerged_classes(sample, matrix)
    if name == "ladders":
        assert len(sample.spaces) == 2 and 0 < classes.dst_dead.sum() < len(classes)

    # Rows are keyed by their bytes, one column or many; ids number the
    # distinct rows by first occurrence.
    codes = classes.codes
    wide = codes.sum(axis=1, dtype=np.uint64)
    wide[1::2] += np.uint64(1) << np.uint64(63)  # beyond float64 precision
    assert len(codes) > 1
    for rows in (codes, *(codes[:, [f]] for f in range(codes.shape[1])),
                 wide[:, None]):
        ids, first = encoding._first_ids(rows)
        want, groups = oracles.group_by_first_occurrence(
            [row.tobytes() for row in rows])
        assert ids.tolist() == want
        assert first.tolist() == [g[0] for g in groups]

    n_feat, n = matrix.shape[0], len(classes)
    rng = random.Random(f"{name}-{merge}")
    for size in (0, 1, 2, 3, 5, n_feat):
        for _ in range(3):
            phi = sorted(rng.sample(range(n_feat), size))
            goods = sorted(rng.sample(range(n), rng.randrange(n + 1)))
            assert validate_solution(classes, phi, goods) == \
                oracles.separation_violations(want_codes, phi, goods)
