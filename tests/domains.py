"""PDDL text builders and seeded random instance generators for the tests,
and seeded random toy state spaces with their feature matrices."""

import random
from types import SimpleNamespace

import numpy as np

from genpol import encoding, features, space

GRIPPER_DOMAIN = """
(define (domain gripper)
  (:requirements :strips :typing)
  (:types room ball gripper - object)
  (:predicates (at-robby ?r - room)
               (at ?b - ball ?r - room)
               (free ?g - gripper)
               (carry ?b - ball ?g - gripper))
  (:action move
    :parameters (?from ?to - room)
    :precondition (and (at-robby ?from))
    :effect (and (at-robby ?to) (not (at-robby ?from))))
  (:action pick
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (at ?b ?r) (at-robby ?r) (free ?g))
    :effect (and (carry ?b ?g) (not (at ?b ?r)) (not (free ?g))))
  (:action drop
    :parameters (?b - ball ?r - room ?g - gripper)
    :precondition (and (carry ?b ?g) (at-robby ?r))
    :effect (and (at ?b ?r) (free ?g) (not (carry ?b ?g)))))
"""

BLOCKS_DOMAIN = """
(define (domain blocksworld)
  (:requirements :strips)
  (:predicates (clear ?x) (on-table ?x) (holding ?x) (on ?x ?y) (arm-empty))
  (:action pickup
    :parameters (?ob)
    :precondition (and (clear ?ob) (on-table ?ob) (arm-empty))
    :effect (and (holding ?ob) (not (clear ?ob)) (not (on-table ?ob))
                 (not (arm-empty))))
  (:action putdown
    :parameters (?ob)
    :precondition (and (holding ?ob))
    :effect (and (clear ?ob) (arm-empty) (on-table ?ob) (not (holding ?ob))))
  (:action stack
    :parameters (?ob ?underob)
    :precondition (and (clear ?underob) (holding ?ob))
    :effect (and (arm-empty) (clear ?ob) (on ?ob ?underob)
                 (not (clear ?underob)) (not (holding ?ob))))
  (:action unstack
    :parameters (?ob ?underob)
    :precondition (and (on ?ob ?underob) (clear ?ob) (arm-empty))
    :effect (and (holding ?ob) (clear ?underob)
                 (not (on ?ob ?underob)) (not (clear ?ob)) (not (arm-empty)))))
"""

VISITALL_DOMAIN = """
(define (domain grid-visit-all)
  (:requirements :strips :typing)
  (:types place - object)
  (:predicates (at-robot ?x - place)
               (connected ?x ?y - place)
               (visited ?x - place))
  (:action move
    :parameters (?curpos ?nextpos - place)
    :precondition (and (at-robot ?curpos) (connected ?curpos ?nextpos))
    :effect (and (at-robot ?nextpos) (visited ?nextpos)
                 (not (at-robot ?curpos)))))
"""


# Functional roles with cycles: `next` is a static ring, and `link` gains
# any edge of it or the edge of the static `also`, which gives a second
# successor to an object that already has one on the ring.
RING_DOMAIN = """
(define (domain ring)
  (:requirements :strips)
  (:predicates (next ?a ?b) (also ?a ?b) (link ?a ?b))
  (:action join
    :parameters (?a ?b)
    :precondition (and (next ?a ?b))
    :effect (and (link ?a ?b)))
  (:action fork
    :parameters (?a ?b)
    :precondition (and (also ?a ?b))
    :effect (and (link ?a ?b))))
"""


def ring_instance(n: int) -> str:
    """Objects o0 ... o(n-1) on the ring o0 -> o1 -> ... -> o0, and o0 ->
    o2 by `also`; goal: the ring edge out of o0."""
    objects = [f"o{i}" for i in range(n)]
    init = [f"(next {a} {b})" for a, b in zip(objects, objects[1:] + objects[:1])]
    return (f"(define (problem ring-{n}) (:domain ring)\n"
            f"  (:objects {' '.join(objects)})\n"
            f"  (:init {' '.join(init)} (also o0 o2))\n"
            f"  (:goal (and (link o0 o1))))")


# Static preconditions on a constant (home), with a repeated variable
# (spin), over a nullary predicate (home, shut) and over a supertype of the
# parameter (tour, look: road takes places, ?c is a city); shadowed deletes
# when ?a = ?b (drive) or ?a = depot (home).  road and big are static.
ROADS_DOMAIN = """
(define (domain roads)
  (:requirements :strips :typing)
  (:types place vehicle - object city - place)
  (:constants depot - city)
  (:predicates (at ?v - vehicle ?p - place) (road ?a ?b - place)
               (big ?c - city) (visited ?p - place) (open) (closed))
  (:action drive
    :parameters (?v - vehicle ?a ?b - place)
    :precondition (and (at ?v ?a) (road ?a ?b))
    :effect (and (at ?v ?b) (visited ?b) (not (at ?v ?a))))
  (:action home
    :parameters (?v - vehicle ?a - place)
    :precondition (and (at ?v ?a) (road ?a depot) (open))
    :effect (and (at ?v depot) (not (at ?v ?a))))
  (:action spin
    :parameters (?v - vehicle ?p - place)
    :precondition (and (at ?v ?p) (road ?p ?p))
    :effect (and (visited ?p)))
  (:action shut
    :parameters (?v - vehicle)
    :precondition (and (closed) (at ?v depot))
    :effect (and (not (at ?v depot))))
  (:action tour
    :parameters (?c - city ?p - place)
    :precondition (and (road ?p ?c) (big ?c))
    :effect (and (visited ?c)))
  (:action look
    :parameters (?p - place ?c - city)
    :precondition (and (road ?p ?c))
    :effect (and (visited ?c))))
"""


def roads_instance(flag="open", goal="", extra=0) -> str:
    """Two vehicles on seven roads between four places and the depot; `flag`
    is the nullary atom that holds, `goal` extra goal atoms.  `extra` more
    cities r0, r1, ... lie on a one-way road from q; the even ones are big."""
    cities = [f"r{i}" for i in range(extra)]
    roads = "".join(f" (road {a} {b})" for a, b in zip(["q"] + cities, cities))
    big = "".join(f" (big {c})" for c in cities[::2])
    return f"""(define (problem roads-1) (:domain roads)
      (:objects truck van - vehicle x y {' '.join(cities)} - city p q - place)
      (:init (at truck x) (at van p) (road x y) (road y x) (road y depot)
             (road p p) (road p x) (road q depot) (road depot depot) (big y) (big depot) ({flag})
             {roads}{big})
      (:goal (and (visited depot) {goal})))"""


def gripper_instance(n_balls: int, seed=None, name=None) -> str:
    """Balls in random rooms (all in rooma when seed is None); goal: all in
    roomb."""
    rng = random.Random(seed)
    balls = [f"ball{i}" for i in range(1, n_balls + 1)]
    if seed is None:
        where = {b: "rooma" for b in balls}
        robby = "rooma"
    else:
        where = {b: rng.choice(["rooma", "roomb"]) for b in balls}
        robby = rng.choice(["rooma", "roomb"])
    init = [f"(at-robby {robby})", "(free left)", "(free right)"]
    init += [f"(at {b} {where[b]})" for b in balls]
    goal = [f"(at {b} roomb)" for b in balls]
    name = name or f"gripper-{n_balls}-{seed}"
    return (f"(define (problem {name}) (:domain gripper)\n"
            f"  (:objects rooma roomb - room {' '.join(balls)} - ball "
            f"left right - gripper)\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and {' '.join(goal)})))")


def clear_tower_instance(n_blocks: int, name=None) -> str:
    """Single tower b1..bn bottom to top; goal: clear(b1)."""
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    init = ["(arm-empty)", f"(on-table {blocks[0]})", f"(clear {blocks[-1]})"]
    init += [f"(on {a} {b})" for b, a in zip(blocks, blocks[1:])]
    name = name or f"clear-{n_blocks}"
    return (f"(define (problem {name}) (:domain blocksworld)\n"
            f"  (:objects {' '.join(blocks)})\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and (clear b1))))")


def clear_random_instance(n_blocks: int, seed: int):
    """Random towers; goal: clear a random block.  Returns (text, target)."""
    rng = random.Random(seed)
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    order = blocks[:]
    rng.shuffle(order)
    init = ["(arm-empty)"]
    towers, cur = [], []
    for b in order:
        cur.append(b)
        if rng.random() < 0.35:
            towers.append(cur)
            cur = []
    if cur:
        towers.append(cur)
    for t in towers:
        init.append(f"(on-table {t[0]})")
        init += [f"(on {a} {b})" for b, a in zip(t, t[1:])]
        init.append(f"(clear {t[-1]})")
    target = rng.choice(blocks)
    text = (f"(define (problem clear-r{n_blocks}-{seed}) (:domain blocksworld)\n"
            f"  (:objects {' '.join(blocks)})\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and (clear {target}))))")
    return text, target


def visitall_instance(width: int, height: int, start, visited=(), name=None) -> str:
    """Grid with 4-neighbour connectivity; goal: visit every cell."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    objs = " ".join(f"loc-{x}-{y}" for x, y in cells)
    conn = []
    for x, y in cells:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                conn.append(f"(connected loc-{x}-{y} loc-{nx}-{ny})")
    vis = sorted(set(visited) | {tuple(start)})
    init = [f"(at-robot loc-{start[0]}-{start[1]})"]
    init += [f"(visited loc-{x}-{y})" for x, y in vis]
    init += conn
    goal = [f"(visited loc-{x}-{y})" for x, y in cells]
    name = name or f"visitall-{width}x{height}"
    return (f"(define (problem {name}) (:domain grid-visit-all)\n"
            f"  (:objects {objs} - place)\n"
            f"  (:init {' '.join(init)})\n"
            f"  (:goal (and {' '.join(goal)})))")


def random_strips_problem(rng: random.Random, max_objects: int = 5) -> tuple:
    """(domain, instance) PDDL texts of a random typed STRIPS problem: up to
    three types in a random hierarchy, up to two constants, two to five
    predicates of arity 0-3, one to three schemas of up to three parameters
    whose atoms take parameters and constants of fitting types (repeats
    included), and one to `max_objects` objects.  Predicates no schema
    changes are static."""
    types = {"object": None}
    for i in range(rng.randint(0, 3)):
        types[f"t{i}"] = rng.choice(list(types))

    def is_sub(t, ancestor):
        while t is not None and t != ancestor:
            t = types[t]
        return t == ancestor

    consts = [(f"c{i}", rng.choice(list(types))) for i in range(rng.randint(0, 2))]
    preds = {f"p{i}": [rng.choice(list(types)) for _ in range(rng.choice([0, 1, 1, 2, 2, 2, 3]))]
             for i in range(rng.randint(2, 5))}

    def atom(terms):
        """A random atom over `terms` [(name, type)], or None if none fits."""
        name = rng.choice(list(preds))
        args = []
        for t in preds[name]:
            fits = [term for term, tt in terms if is_sub(tt, t)]
            if not fits:
                return None
            args.append(rng.choice(fits))
        return f"({' '.join([name] + args)})"

    def atoms(terms, n):
        return [a for a in (atom(terms) for _ in range(n)) if a]

    typed = lambda pairs: " ".join(f"{name} - {t}" for name, t in pairs)
    schemas = []
    for s in range(rng.randint(1, 3)):
        params = [(f"?v{i}", rng.choice(list(types))) for i in range(rng.randint(0, 3))]
        pre, add, dele = (atoms(params + consts, rng.randint(lo, hi))
                          for lo, hi in ((0, 3), (0, 2), (0, 2)))
        effect = " ".join(add + [f"(not {a})" for a in dele])
        schemas.append(f"(:action a{s} :parameters ({typed(params)})"
                       f" :precondition (and {' '.join(pre)}) :effect (and {effect}))")
    signatures = " ".join(f"({' '.join([p] + [f'?a{i} - {t}' for i, t in enumerate(ts)])})"
                          for p, ts in preds.items())
    domain = (f"(define (domain rnd) (:requirements :strips :typing)"
              f" (:types {typed((t, p) for t, p in types.items() if p is not None)})"
              f" (:constants {typed(consts)}) (:predicates {signatures}) {' '.join(schemas)})")
    objects = [(f"o{i}", rng.choice(list(types))) for i in range(rng.randint(1, max_objects))]
    init = sorted(set(atoms(objects + consts, rng.randint(0, 12))))
    goal = sorted(set(atoms(objects + consts, rng.randint(1, 3))))
    instance = (f"(define (problem rnd-{rng.randrange(10**6)}) (:domain rnd)"
                f" (:objects {typed(objects)}) (:init {' '.join(init)})"
                f" (:goal (and {' '.join(goal)})))")
    return domain, instance


# -- toy spaces --------------------------------------------------------------

class ToyFeature:
    def __init__(self, idx, boolean):
        self.idx = idx
        self.is_boolean = boolean
        self.weight = 1

    def render(self):
        return f"toy{self.idx}"


def toy_space(seed):
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
    feats = [ToyFeature(i, bool(matrix[i].max() <= 1)) for i in range(n_feat)]
    pool = features.FeaturePool(feats, np.array([1] * n_feat, dtype=np.int64))
    return sp, pool, matrix


def toy_theory(sp, pool, matrix):
    """Full (all class pairs) theory of a toy space, with a value-label range
    wide enough never to bind, matching the brute-force search."""
    sample = space.SampleSet([sp])
    classes, class_of = encoding.compute_classes(sample, matrix)
    nc = len(classes)
    pairs = [(a, b) for a in range(nc) for b in range(a + 1, nc)]
    theory = encoding.build_theory(sample, pool, matrix, classes, class_of,
                                   v_slack=sp.n_states, pairs=pairs)
    return theory, classes
