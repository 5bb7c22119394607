"""Acceptance suite: the end-to-end criteria the package must meet.

Each criterion is one test that prints a single PASS/FAIL line directly to
the terminal (bypassing capture) with the measured quantities, so a plain
pytest run doubles as an acceptance report.  Criterion 9 is informational
only and never fails.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import domains
import oracles
from genpol import encoding, features, maxsat, pddl, pipeline, policy as po, space

# Encoding sizes (variables, clauses) reported for comparable runs of the
# same construction; compared informationally with a +/-50% band because the
# counts depend on pool grammar and constraint sampling details.
REFERENCE_SIZES = {
    "clear": (7_900, 243_700),
    "gripper": (6_500, 102_600),
    "visitall": (13_900, 244_500),
}

TRAINING = {
    "clear": (domains.BLOCKS_DOMAIN, domains.clear_tower_instance(5), ["b1"], 4),
    "gripper": (domains.GRIPPER_DOMAIN, domains.gripper_instance(4), [], 8),
    "visitall": (domains.VISITALL_DOMAIN, domains.visitall_instance(3, 3, (1, 1)),
                 [], 6),
}


@contextmanager
def criterion(capsys, num, label):
    info = {"detail": ""}
    t0 = time.monotonic()
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"CRITERION {num}: FAIL — {label}: "
                  f"{type(exc).__name__}: {exc}", flush=True)
        raise
    dt = time.monotonic() - t0
    with capsys.disabled():
        print(f"CRITERION {num}: PASS — {label}: {info['detail']} "
              f"[{dt:.1f}s]", flush=True)


def _config(tmp_path, name, **kw):
    domain_text, instance_text, goal_params, k = TRAINING[name]
    dom = tmp_path / f"{name}-domain.pddl"
    dom.write_text(domain_text)
    train = tmp_path / f"{name}-train.pddl"
    train.write_text(instance_text)
    base = dict(domain_path=str(dom), training_paths=[str(train)],
                goal_params=goal_params, max_feature_weight=k)
    base.update(kw)
    return pipeline.RunConfig(**base)


def _training_gp(name):
    domain_text, instance_text, goal_params, _k = TRAINING[name]
    dom = pddl.parse_domain(domain_text)
    inst = pddl.parse_instance(instance_text, dom, goal_params)
    return pddl.ground(dom, inst)


# ---------------------------------------------------------------------------
# Criteria 1-3: domain reproductions
# ---------------------------------------------------------------------------

def test_criterion_1_gripper_reproduction(tmp_path, capsys):
    with criterion(capsys, 1, "gripper: 4-ball training, 30 random tests") as info:
        t0 = time.monotonic()
        result = pipeline.learn(_config(tmp_path, "gripper"))
        assert result.status == "ok"
        assert len(result.policy.features) == 3
        assert 9 <= result.cost <= 11
        assert result.verify_ok
        assert po.verify_exhaustive(result.policy, _training_gp("gripper")).ok

        dom = pddl.parse_domain(domains.GRIPPER_DOMAIN)
        for n in range(1, 11):  # up to 68,608 states
            inst = pddl.parse_instance(domains.gripper_instance(n), dom, [])
            rep = po.verify_exhaustive(result.policy, pddl.ground(dom, inst))
            assert rep.ok, f"{n} balls: {rep.witness}"

        rng = random.Random(20260815)
        solved = 0
        for i in range(30):
            n = rng.randrange(2, 31)
            inst = pddl.parse_instance(domains.gripper_instance(n, seed=9000 + i),
                                       dom, [])
            run = po.greedy_execute(result.policy, pddl.ground(dom, inst))
            solved += run.solved
        assert solved == 30
        elapsed = time.monotonic() - t0
        assert elapsed < 60
        info["detail"] = (f"|Φ|=3, cost={result.cost} in [9,11], training "
                          f"verified, verified on 1-10 balls, {solved}/30 "
                          f"random ≤30-ball instances solved")


def test_criterion_2_clear_reproduction(tmp_path, capsys):
    with criterion(capsys, 2, "blocks clearing: 5-block training, 30 random tests") as info:
        t0 = time.monotonic()
        result = pipeline.learn(_config(tmp_path, "clear"))
        assert result.status == "ok"
        report = dict(line.split("=", 1)
                      for line in result.machine().splitlines())
        assert report["n_alive_transitions"] == "1161"
        assert 8 <= result.cost <= 10
        assert result.verify_ok
        assert po.verify_exhaustive(result.policy, _training_gp("clear")).ok

        dom = pddl.parse_domain(domains.BLOCKS_DOMAIN)
        for n in range(2, 8):  # up to 65,990 states
            text, target = domains.clear_random_instance(n, seed=700 + n)
            inst = pddl.parse_instance(text, dom, [target])
            rep = po.verify_exhaustive(result.policy, pddl.ground(dom, inst))
            assert rep.ok, f"{n} blocks: {rep.witness}"

        rng = random.Random(42)
        solved = 0
        for i in range(30):
            n = rng.randrange(3, 16)
            text, target = domains.clear_random_instance(n, seed=500 + i)
            inst = pddl.parse_instance(text, dom, [target])
            run = po.greedy_execute(result.policy, pddl.ground(dom, inst))
            solved += run.solved
        assert solved == 30
        elapsed = time.monotonic() - t0
        assert elapsed < 120
        info["detail"] = (f"1161 transitions exact, cost={result.cost} in [8,10], "
                          f"verified on 2-7 blocks, {solved}/30 random "
                          f"≤15-block instances solved")


def test_criterion_3_visitall_reproduction(tmp_path, capsys):
    with criterion(capsys, 3, "visitall: 3x3 training, five 4x4 verifications") as info:
        t0 = time.monotonic()
        result = pipeline.learn(_config(tmp_path, "visitall"))
        assert result.status == "ok"
        report = dict(line.split("=", 1)
                      for line in result.machine().splitlines())
        assert report["n_alive_transitions"] == "2396"
        assert len(result.policy.rules) <= 2

        dom = pddl.parse_domain(domains.VISITALL_DOMAIN)
        verified = 0
        for start in [(0, 0), (1, 1), (3, 3), (2, 0), (0, 2)]:
            inst = pddl.parse_instance(domains.visitall_instance(4, 4, start),
                                       dom, [])
            rep = po.verify_exhaustive(result.policy, pddl.ground(dom, inst))
            assert rep.ok, (start, rep.witness)
            verified += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 60
        info["detail"] = (f"2396 transitions exact, {len(result.policy.rules)} "
                          f"rule(s), verified on {verified}/5 unseen 4x4 grids")


# ---------------------------------------------------------------------------
# Criteria 4-5: toy-space equivalence with brute force
# ---------------------------------------------------------------------------

class _ToyFeature:
    def __init__(self, idx, boolean):
        self.idx = idx
        self.is_boolean = boolean
        self.weight = 1

    def render(self):
        return f"toy{self.idx}"


def _make_toy(seed):
    """Random labeled transition system (≤ 16 states) with a random feature
    matrix (≤ 5 features): some rows are distance-like or goal indicators so
    that both solvable and unsolvable spaces occur."""
    rng = random.Random(seed)
    n = rng.randrange(4, 16)
    goals = set(rng.sample(range(n), max(1, n // 4)))
    edges = set()
    for s in range(n):
        for _ in range(rng.randrange(1, 4)):
            edges.add((s, rng.randrange(n)))
    edges = sorted(edges)
    src = [s for s, _ in edges]
    dst = [d for _, d in edges]
    sp = space.StateSpace(
        gp=SimpleNamespace(instance=SimpleNamespace(name=f"toy-{seed}")),
        states=np.zeros((n, 1), dtype=np.uint64),
        src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64),
        act=np.arange(len(edges), dtype=np.int64),
        is_goal=np.array([s in goals for s in range(n)], dtype=bool))
    space.label_goal_distances(sp)

    n_feat = rng.randrange(2, 6)
    rows = []
    for _f in range(n_feat):
        kind = rng.random()
        if kind < 0.35:
            rows.append([min(sp.goal_dist[s], 3) if sp.goal_dist[s] >= 0
                         else 3 for s in range(n)])
        elif kind < 0.55:
            rows.append([int(s in goals) for s in range(n)])
        else:
            rows.append([rng.randrange(0, 3) for _ in range(n)])
    matrix = np.array(rows, dtype=np.int64)
    feats = [_ToyFeature(i, bool(matrix[i].max() <= 1)) for i in range(n_feat)]
    pool = features.FeaturePool(feats, np.array([1] * n_feat, dtype=np.int64))
    return sp, pool, matrix


def _toy_theory(sp, pool, matrix):
    """Full (all class pairs) theory of a toy space, with a value-label range
    wide enough never to bind, matching the brute-force search."""
    sample = space.SampleSet([sp])
    classes, class_of = encoding.compute_classes(sample, matrix)
    nc = len(classes)
    pairs = [(a, b) for a in range(nc) for b in range(a + 1, nc)]
    theory = encoding.build_theory(sample, pool, matrix, classes, class_of,
                                   v_slack=sp.n_states, pairs=pairs)
    return theory, classes


def _oracle_policy_exists(sp, matrix):
    rows = matrix.tolist()
    n_feat = matrix.shape[0]
    for r in range(n_feat, -1, -1):
        for phi in itertools.combinations(range(n_feat), r):
            if oracles.policy_exists(sp, rows, list(phi), sp.n_states):
                return True
    return False


def test_criterion_4_theory_sat_equals_policy_existence(capsys):
    with criterion(capsys, 4, "toy spaces: theory SAT == brute-force existence") as info:
        n_sat = n_unsat = 0
        for seed in range(60):
            sp, pool, matrix = _make_toy(seed)
            theory, _classes = _toy_theory(sp, pool, matrix)
            if theory.infeasible is not None:
                sat = False
            else:
                sat = maxsat.solve_wcnf(theory.wcnf).status == maxsat.OPTIMUM
            brute = _oracle_policy_exists(sp, matrix)
            assert sat == brute, f"toy seed {seed}: theory={sat} brute={brute}"
            n_sat += sat
            n_unsat += not sat
        assert n_sat + n_unsat == 60 and n_sat >= 10 and n_unsat >= 10
        info["detail"] = (f"60 spaces, {n_sat} solvable / {n_unsat} unsolvable, "
                          f"0 mismatches")


def test_criterion_5_every_sampled_model_yields_verified_policy(capsys):
    with criterion(capsys, 5, "toy spaces: blocked-model policies all verify") as info:
        total_models = 0
        sat_spaces = 0
        exhausted = 0
        for seed in range(60):
            sp, pool, matrix = _make_toy(seed)
            theory, classes = _toy_theory(sp, pool, matrix)
            if theory.infeasible is not None:
                continue
            n_models = 0
            while n_models < 10:
                res = maxsat.solve_wcnf(theory.wcnf)
                if res.status != maxsat.OPTIMUM:
                    break
                phi, goods = encoding.decode(theory, res.model)
                # extract_policy re-validates the class separation
                pol = po.extract_policy(pool, phi, classes, goods)
                vals = [tuple(int(matrix[f, s]) for f in phi)
                        for s in range(sp.n_states)]
                rep = pipeline.verify_space(pol, sp, vals)
                assert rep.ok, (seed, n_models, rep.witness)
                n_models += 1
                block = []
                for f in range(theory.n_select):
                    v = oracles.select_var(f)
                    block.append(-v if res.model[v] else v)
                for c in range(theory.n_good):
                    v = oracles.good_var(theory, c)
                    block.append(-v if res.model[v] else v)
                theory.wcnf = oracles.add_hard(theory.wcnf, block)
            if n_models:
                sat_spaces += 1
                total_models += n_models
                exhausted += n_models < 10
        assert sat_spaces >= 10
        info["detail"] = (f"{total_models} models over {sat_spaces} solvable "
                          f"spaces (10 per space; {exhausted} spaces had "
                          f"fewer models in total, all enumerated), every "
                          f"extracted policy verified")


# ---------------------------------------------------------------------------
# Criterion 6: solver exactness
# ---------------------------------------------------------------------------

def test_criterion_6_maxsat_exactness(capsys):
    with criterion(capsys, 6, "exact optimum on 200 random weighted CNFs") as info:
        rng = random.Random(1234)
        n_unsat = 0
        for i in range(200):
            n = rng.randrange(1, 13)
            p = maxsat.WcnfProblem()
            for _ in range(rng.randrange(0, 3 * n + 1)):
                size = rng.randrange(1, 4)
                vs = rng.sample(range(1, n + 1), min(size, n))
                p = oracles.add_hard(p, [v if rng.random() < 0.5 else -v for v in vs])
            for _ in range(rng.randrange(1, n + 2)):
                size = rng.randrange(1, 4)
                vs = rng.sample(range(1, n + 1), min(size, n))
                p = oracles.add_soft(p, rng.randrange(1, 9),
                                     [v if rng.random() < 0.5 else -v for v in vs])
            p.nvars = max(p.nvars, n)
            want = oracles.brute_force_wcnf(p)
            got = maxsat.solve_wcnf(p)
            if want is None:
                assert got.status != maxsat.OPTIMUM, f"formula {i}"
                n_unsat += 1
            else:
                assert got.status == maxsat.OPTIMUM, f"formula {i}"
                assert got.cost == want, f"formula {i}: {got.cost} != {want}"
                hard_ok, model_cost = maxsat.evaluate(p, got.model)
                assert hard_ok and model_cost == want
            text = maxsat.format_wcnf(p)
            assert maxsat.format_wcnf(maxsat.parse_wcnf(text)) == text
        info["detail"] = (f"200 formulas (≤12 vars, {n_unsat} hard-unsat), 0 "
                          f"mismatches, export/import round-trips byte-exact")


# ---------------------------------------------------------------------------
# Criterion 7: encoding equivalences
# ---------------------------------------------------------------------------

def test_criterion_7_merged_and_incremental_equivalences(tmp_path, capsys):
    with criterion(capsys, 7, "merged==unmerged cost; fixpoint satisfies full theory") as info:
        details = []
        for name in ("clear", "gripper"):
            cfg = _config(tmp_path, name)
            merged = pipeline.prepare(cfg)
            # The unmerged encoding, one class per transition, from the oracle.
            classes, class_of = oracles.unmerged_classes(merged.sample,
                                                         merged.matrix)
            unmerged = dataclasses.replace(merged, classes=classes,
                                           class_of=class_of)
            runs = [(True, merged, encoding.initial_pairs(
                        merged.classes, merged.class_of, merged.sample)),
                    (False, unmerged, oracles.chained_pairs(classes))]
            costs = {}
            for merge, prep, pairs in runs:
                fix = pipeline.solve_fixpoint(prep, pairs, cfg)
                assert fix.message == "", fix.message
                costs[merge] = fix.result.cost
                # (b) the fixpoint model satisfies the full theory
                assert encoding.validate_solution(prep.classes, fix.phi,
                                                  fix.goods) == []
                if merge:
                    nc = len(prep.classes)
                    full = encoding.build_theory(
                        prep.sample, prep.pool, prep.matrix, prep.classes,
                        prep.class_of, pairs=[(a, b) for a in range(nc)
                                              for b in range(a + 1, nc)])
                    hard_ok, model_cost = maxsat.evaluate(full.wcnf,
                                                          fix.result.model)
                    assert hard_ok and model_cost == fix.result.cost
            # (a) merging transition classes does not change the optimum
            assert costs[True] == costs[False], (name, costs)
            details.append(f"{name} cost {costs[True]}")
        info["detail"] = ("identical optima with/without class merging "
                          f"({', '.join(details)}); fixpoint models satisfy "
                          f"every clause of the full theories")


# ---------------------------------------------------------------------------
# Criterion 8: termination certificates
# ---------------------------------------------------------------------------

def _clear_tuple_fn(gp):
    unpack = oracles.unpacker(gp)

    def values(row):
        atoms = [gp.atoms[i] for i in unpack(row)]
        above = {a[2]: a[1] for a in atoms if a[0] == "on"}
        n, cur = 0, "b1"
        while cur in above:
            n += 1
            cur = above[cur]
        h = int(any(a[0] == "holding" for a in atoms))
        return (n, h)
    return values


def _gripper_tuple_fn(gp):
    unpack = oracles.unpacker(gp)

    def values(row):
        atoms = [gp.atoms[i] for i in unpack(row)]
        b_a = sum(1 for a in atoms if a[0] == "at" and a[2] == "rooma")
        carried = sum(1 for a in atoms if a[0] == "carry")
        r_b = int(("at-robby", "roomb") in atoms)
        b_ra = 0 if r_b else carried
        b_rb = carried if r_b else 0
        return (b_a, b_ra, b_rb, r_b)
    return values


def test_criterion_8_certificates(tmp_path, capsys):
    with criterion(capsys, 8, "learned policies are complete and descending") as info:
        tuple_fns = {"clear": _clear_tuple_fn, "gripper": _gripper_tuple_fn}
        checked = []
        for name in ("clear", "gripper", "visitall"):
            result = pipeline.learn(_config(tmp_path, name))
            assert result.status == "ok"
            gp = _training_gp(name)
            rep = po.verify_exhaustive(result.policy, gp)
            assert rep.complete, (name, rep.witness)
            if name in tuple_fns:
                ok, witness = oracles.check_descending(result.policy, gp,
                                                       tuple_fns[name](gp))
                assert ok, (name, witness)
                checked.append(name)
        info["detail"] = ("verify_exhaustive finds every alive state of "
                          "all training spaces covered; "
                          "check_descending holds for blocks-clearing over "
                          "⟨blocks-above, holding⟩ and gripper over "
                          "⟨balls-left, carried-at-source, carried-at-target, "
                          "robot-at-target⟩")


# ---------------------------------------------------------------------------
# Criterion 9: informational encoding sizes (never fails)
# ---------------------------------------------------------------------------

def test_criterion_9_informational_encoding_sizes(tmp_path, capsys):
    with criterion(capsys, 9, "encoding sizes (informational, ±50% band)") as info:
        parts = []
        for name in ("clear", "gripper", "visitall"):
            result = pipeline.learn(_config(tmp_path, name))
            report = dict(line.split("=", 1)
                          for line in result.machine().splitlines())
            n_vars = int(report["n_vars"])
            n_clauses = int(report["n_clauses_full"])
            ref_v, ref_c = REFERENCE_SIZES[name]
            in_band = (0.5 <= n_vars / ref_v <= 1.5
                       and 0.5 <= n_clauses / ref_c <= 1.5)
            parts.append(f"{name} vars={n_vars} ({n_vars / ref_v:.2f}x ref) "
                         f"clauses={n_clauses} ({n_clauses / ref_c:.2f}x ref) "
                         f"band={'yes' if in_band else 'no'}")
        info["detail"] = ("; ".join(parts) + " — sizes depend on pool grammar "
                          "and pair sampling, reported for reference only; "
                          "larger-domain runs excluded at this scale")
