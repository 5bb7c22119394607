"""Seeded instance generators and an independent STRIPS replay.

The generators live here, not in the test helpers, so that edits to the
tests cannot shift the benchmark's inputs.  An instance is kept as atoms
(tuples of names) and rendered to PDDL text for the program; the replay uses
the atoms and its own copy of the three domains' action schemas, so a plan
is checked without trusting the program's parser, grounder or goal test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Action schemas of benchmarks/*/domain.pddl: parameters, preconditions, add
# and delete lists.  Atoms are tuples whose arguments name parameters.
SCHEMAS = {
    "gripper": {
        "move": (("from", "to"), [("at-robby", "from")],
                 [("at-robby", "to")], [("at-robby", "from")]),
        "pick": (("b", "r", "g"),
                 [("at", "b", "r"), ("at-robby", "r"), ("free", "g")],
                 [("carry", "b", "g")], [("at", "b", "r"), ("free", "g")]),
        "drop": (("b", "r", "g"), [("carry", "b", "g"), ("at-robby", "r")],
                 [("at", "b", "r"), ("free", "g")], [("carry", "b", "g")]),
    },
    "blocksworld": {
        "pickup": (("x",), [("clear", "x"), ("on-table", "x"), ("arm-empty",)],
                   [("holding", "x")],
                   [("clear", "x"), ("on-table", "x"), ("arm-empty",)]),
        "putdown": (("x",), [("holding", "x")],
                    [("clear", "x"), ("arm-empty",), ("on-table", "x")],
                    [("holding", "x")]),
        "stack": (("x", "y"), [("clear", "y"), ("holding", "x")],
                  [("arm-empty",), ("clear", "x"), ("on", "x", "y")],
                  [("clear", "y"), ("holding", "x")]),
        "unstack": (("x", "y"), [("on", "x", "y"), ("clear", "x"), ("arm-empty",)],
                    [("holding", "x"), ("clear", "y")],
                    [("on", "x", "y"), ("clear", "x"), ("arm-empty",)]),
    },
    "grid-visit-all": {
        "move": (("cur", "nxt"), [("at-robot", "cur"), ("connected", "cur", "nxt")],
                 [("at-robot", "nxt"), ("visited", "nxt")], [("at-robot", "cur")]),
    },
}


@dataclass
class Instance:
    name: str
    domain: str                  # gripper | blocksworld | grid-visit-all
    objects: list                # (name, type or None), in declaration order
    init: list                   # atoms
    goal: list                   # atoms
    goal_params: list = field(default_factory=list)

    def pddl(self) -> str:
        objs = " ".join(o if t is None else f"{o} - {t}" for o, t in self.objects)
        fmt = lambda atoms: " ".join(f"({' '.join(a)})" for a in atoms)
        return (f"(define (problem {self.name}) (:domain {self.domain})\n"
                f"  (:objects {objs})\n"
                f"  (:init {fmt(self.init)})\n"
                f"  (:goal (and {fmt(self.goal)})))\n")


def gripper(n_balls: int, rng, name: str) -> Instance:
    """A seed-chosen half of the balls in rooma, the rest in roomb, the robot
    in a seed-chosen room; goal: all balls in roomb.  Fixing the split keeps
    the greedy plan's length, and so the work, the same for every seed."""
    balls = [f"ball{i}" for i in range(1, n_balls + 1)]
    in_a = set(rng.sample(balls, n_balls // 2))
    rooms = ["rooma", "roomb"]
    init = [("at-robby", rng.choice(rooms)), ("free", "left"), ("free", "right")]
    init += [("at", b, "rooma" if b in in_a else "roomb") for b in balls]
    objects = ([(r, "room") for r in rooms] + [(b, "ball") for b in balls]
               + [("left", "gripper"), ("right", "gripper")])
    return Instance(name, "gripper", objects, init,
                    [("at", b, "roomb") for b in balls])


def _towers(towers: list) -> list:
    init = [("arm-empty",)]
    for t in towers:
        init.append(("on-table", t[0]))
        init += [("on", a, b) for b, a in zip(t, t[1:])]
        init.append(("clear", t[-1]))
    return init


def _clear(blocks: list, towers: list, target: str, name: str) -> Instance:
    return Instance(name, "blocksworld", [(b, None) for b in blocks],
                    _towers(towers), [("clear", target)], [target])


def clear_towers(n_blocks: int, rng, name: str) -> Instance:
    """Blocks in seed-random towers; goal: clear a seed-chosen block."""
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    order = blocks[:]
    rng.shuffle(order)
    towers, cur = [], []
    for b in order:
        cur.append(b)
        if rng.random() < 0.35:
            towers.append(cur)
            cur = []
    if cur:
        towers.append(cur)
    return _clear(blocks, towers, rng.choice(blocks), name)


def clear_tower(n_blocks: int, rng, name: str) -> Instance:
    """One seed-shuffled tower; goal: clear one of its two lowest blocks, so
    the plan unstacks nearly the whole tower."""
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    order = blocks[:]
    rng.shuffle(order)
    return _clear(blocks, [order], order[rng.randrange(2)], name)


def visitall(width: int, height: int, start: tuple, name: str) -> Instance:
    """Grid with 4-neighbour moves; only the start is visited; goal: visit
    every cell."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    loc = lambda c: f"loc-{c[0]}-{c[1]}"
    init = [("at-robot", loc(start)), ("visited", loc(start))]
    for x, y in cells:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if 0 <= x + dx < width and 0 <= y + dy < height:
                init.append(("connected", loc((x, y)), loc((x + dx, y + dy))))
    return Instance(name, "grid-visit-all", [(loc(c), "place") for c in cells],
                    init, [("visited", loc(c)) for c in cells])


def replay(inst: Instance, plan: list) -> str | None:
    """Applies the named actions from the initial state.  Returns None when
    every step is applicable and the goal holds at the end, else the reason."""
    schemas = SCHEMAS[inst.domain]
    objects = {o for o, _ in inst.objects}
    state = set(inst.init)
    for i, step in enumerate(plan):
        head, paren, rest = step.partition("(")
        if head not in schemas or not paren or not rest.endswith(")"):
            return f"step {i}: unknown action '{step}'"
        args = rest[:-1].split(",") if rest != ")" else []
        params, pre, add, dele = schemas[head]
        if len(args) != len(params) or not objects.issuperset(args):
            return f"step {i}: bad arguments in '{step}'"
        bind = dict(zip(params, args))
        ground = lambda atoms: {(a[0], *(bind[p] for p in a[1:])) for a in atoms}
        missing = ground(pre) - state
        if missing:
            return f"step {i}: '{step}' lacks precondition {sorted(missing)[0]}"
        state = (state - ground(dele)) | ground(add)
    unmet = set(inst.goal) - state
    if unmet:
        return f"goal atom {sorted(unmet)[0]} does not hold after {len(plan)} steps"
    return None
