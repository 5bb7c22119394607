"""Command line interface.

Subcommands mirror the pipeline stages so a full run can be reproduced step
by step:

    genpol expand    print the labeled transition system of one instance
    genpol features  print the generated feature pool
    genpol encode    write the theory as a WCNF file plus clause tags
    genpol solve     run the MaxSAT solver on a WCNF file
    genpol extract   turn a solver model back into a policy file
    genpol verify    check a policy against the full state space
    genpol run       execute a policy greedily on an instance
    genpol learn     the whole pipeline in one call

Exit codes: 0 success, 1 no policy exists in the feature space (or a
verification/execution failure), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from genpol import encoding, maxsat, pipeline, policy, space
from genpol.errors import GenpolError


def _add_instance_args(p, many=False):
    """--domain, --goal-params and one --instance; or, with `many`, the
    --training instances and the flags of the feature pool built on them."""
    p.add_argument("--domain", required=True, help="domain PDDL file")
    if many:
        p.add_argument("--training", required=True, nargs="+",
                       help="training instance PDDL files")
    else:
        p.add_argument("--instance", required=True, help="instance PDDL file")
    p.add_argument("--goal-params", default="",
                   help="comma separated objects lifted as goal parameters")
    if many:
        p.add_argument("--max-feature-weight", type=int,
                       help="complexity cap for generated features (default 8)")
        p.add_argument("--ignore-high-arity", action="store_true",
                       help="drop predicates of arity above two instead of failing")
        p.add_argument("--max-pool", type=int)


# RunConfig fields set from --domain, --training and --goal-params.
_INSTANCE_FIELDS = ("domain_path", "training_paths", "goal_params")


def _goal_params(args):
    return [x.strip() for x in args.goal_params.split(",") if x.strip()]


def _config_from(args) -> pipeline.RunConfig:
    """The validated RunConfig of the given flags, each field read from the
    flag of its name; flags left unset keep its defaults."""
    cfg = pipeline.RunConfig(domain_path=args.domain,
                             training_paths=list(args.training),
                             goal_params=_goal_params(args))
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if f.name not in _INSTANCE_FIELDS and value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _instance(args):
    """The ground instance of --domain, --instance and --goal-params."""
    return pipeline.load_problem(pipeline.load_domain(args.domain),
                                 args.instance, _goal_params(args))


def _policy(args) -> policy.Policy:
    """The policy file of --policy."""
    with open(args.policy) as f:
        return policy.parse_policy(f.read())


def cmd_expand(args) -> int:
    sp = space.expand_labeled(_instance(args), args.max_states)
    sys.stdout.write(space.dump_transitions(sp))
    return 0


def cmd_features(args) -> int:
    prep = pipeline.prepare(_config_from(args))
    sys.stdout.write(prep.pool.dump())
    return 0


def cmd_encode(args) -> int:
    cfg = _config_from(args)
    prep = pipeline.prepare(cfg)
    theory = pipeline.build_theory(prep, pipeline.start_pairs(prep, cfg), cfg)
    with open(args.out_prefix + ".wcnf", "w") as f:
        f.write(maxsat.format_wcnf(theory.wcnf))
    with open(args.out_prefix + ".tags", "w") as f:
        f.writelines(f"{i} {tag}\n" for i, tag in enumerate(theory.tags))
    sys.stdout.write(pipeline.render_kv(dict(sorted(theory.stats.items()))))
    return 0


def cmd_solve(args) -> int:
    with open(args.wcnf) as f:
        prob = maxsat.parse_wcnf(f.read())
    res = maxsat.solve(prob, args.backend, time_limit=args.time_limit)
    if res.status != maxsat.OPTIMUM:
        print("s UNSATISFIABLE")
        return 1
    print(f"o {res.cost}")
    print("s OPTIMUM FOUND")
    lits = " ".join(str(v if res.model[v] else -v)
                    for v in range(1, prob.nvars + 1))
    print(f"v {lits}")
    return 0


def cmd_extract(args) -> int:
    cfg = _config_from(args)
    prep = pipeline.prepare(cfg)
    theory = pipeline.build_theory(prep, [], cfg)
    with open(args.model) as f:
        model = maxsat.parse_model(f.read(), theory.wcnf.nvars)
    phi, goods, _values = encoding.decode(theory, model)
    pol = policy.extract_policy(prep.pool, phi, prep.classes, goods)
    sys.stdout.write(pol.dump())
    return 0


def cmd_verify(args) -> int:
    gp = _instance(args)
    res = policy.verify_exhaustive(_policy(args), gp, max_states=args.max_states)
    facts = {"states": res.n_states, "compatible_transitions": res.n_compatible,
             "complete": int(res.complete), "safe": int(res.safe),
             "acyclic": int(res.acyclic), "ok": int(res.ok)}
    if res.witness:
        facts["witness"] = res.witness
    sys.stdout.write(pipeline.render_kv(facts))
    return 0 if res.ok else 1


def cmd_run(args) -> int:
    gp = _instance(args)
    res = policy.greedy_execute(_policy(args), gp, max_steps=args.max_steps,
                                tie_break=args.tie_break, seed=args.seed)
    for name in res.trajectory:
        print(name)
    sys.stdout.write(pipeline.render_kv({"status": res.status, "steps": res.steps}))
    return 0 if res.solved else 1


def cmd_learn(args) -> int:
    result = pipeline.learn(_config_from(args))
    human = result.human()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        files = {"report.kv": result.machine(), "report.txt": human}
        if result.policy is not None:
            files["policy.txt"] = result.policy.dump()
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w") as f:
                f.write(text)
    sys.stdout.write(human)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="genpol",
                                 description="learn generalized policies "
                                             "from small training instances")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the labeled transition system")
    _add_instance_args(p)
    p.add_argument("--max-states", type=int, default=space.MAX_STATES)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("features", help="print the generated feature pool")
    _add_instance_args(p, many=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("encode", help="write the theory as WCNF")
    _add_instance_args(p, many=True)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-prefix", required=True,
                   help="write <prefix>.wcnf and <prefix>.tags")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("solve", help="solve a WCNF file")
    p.add_argument("--wcnf", required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--backend", default="embedded",
                   help="'embedded' or an external solver command")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extract", help="extract a policy from a solver model")
    _add_instance_args(p, many=True)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--model", required=True,
                   help="file with the solver's v lines")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="verify a policy on a full state space")
    _add_instance_args(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--max-states", type=int, default=space.MAX_STATES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute a policy greedily")
    _add_instance_args(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--tie-break", default="first", choices=policy.TIE_BREAKS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("learn", help="run the whole pipeline")
    _add_instance_args(p, many=True)
    p.add_argument("--test", dest="test_paths", metavar="TEST", nargs="*",
                   help="held-out test instances")
    p.add_argument("--max-states", type=int)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--solver-time-limit", type=float, default=None)
    p.add_argument("--solver-backend")
    p.add_argument("--tie-break", choices=policy.TIE_BREAKS)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", help="directory for policy and report files")
    p.set_defaults(func=cmd_learn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenpolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
