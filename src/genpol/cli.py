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
import sys

from genpol import encoding, maxsat, pipeline, policy, space
from genpol.errors import GenpolError


def _add_pool_args(p):
    p.add_argument("--max-feature-weight", type=int,
                   help="complexity cap for generated features (default 8)")
    p.add_argument("--no-types", dest="include_types", action="store_false",
                   help="do not add object types as unary concepts")
    p.add_argument("--ignore-high-arity", action="store_true",
                   help="drop predicates of arity above two instead of failing")


def _add_instance_args(p, many=False):
    p.add_argument("--domain", required=True, help="domain PDDL file")
    if many:
        p.add_argument("--training", required=True, nargs="+",
                       help="training instance PDDL files")
    else:
        p.add_argument("--instance", required=True, help="instance PDDL file")
    p.add_argument("--goal-params", default="",
                   help="comma separated objects lifted as goal parameters")


def _goal_params(args):
    return [x for x in args.goal_params.split(",") if x]


def _config_from(args) -> pipeline.RunConfig:
    """A RunConfig from the given flags; flags left unset keep its defaults."""
    cfg = pipeline.RunConfig(domain_path=args.domain,
                             training_paths=list(args.training),
                             goal_params=_goal_params(args))
    for name in ("max_feature_weight", "include_types", "ignore_high_arity",
                 "v_slack", "seed", "max_states", "max_pool", "test_paths",
                 "solver_time_limit", "solver_backend", "merge_classes",
                 "tie_break", "max_steps", "extra_pairs_per_class"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def cmd_expand(args) -> int:
    gp = pipeline.load_problem(pipeline.load_domain(args.domain),
                               args.instance, _goal_params(args))
    sp = space.expand_labeled(gp, args.max_states)
    sys.stdout.write(space.dump_transitions(sp))
    return 0


def cmd_features(args) -> int:
    prep = pipeline.prepare(_config_from(args))
    sys.stdout.write(prep.pool.dump())
    return 0


def cmd_encode(args) -> int:
    cfg = _config_from(args)
    prep = pipeline.prepare(cfg)
    pairs = encoding.initial_pairs(prep.classes, prep.class_of, prep.sample,
                                   extra_per_class=cfg.extra_pairs_per_class,
                                   seed=cfg.seed)
    theory = encoding.build_theory(prep.sample, prep.pool, prep.matrix,
                                   prep.classes, prep.class_of,
                                   v_slack=cfg.v_slack, pairs=pairs)
    with open(args.out_prefix + ".wcnf", "w") as f:
        f.write(maxsat.format_wcnf(theory.wcnf))
    with open(args.out_prefix + ".tags", "w") as f:
        f.writelines(f"{i} {tag}\n" for i, tag in enumerate(theory.tags))
    for key, value in sorted(theory.stats.items()):
        print(f"{key}={value}")
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
    theory = encoding.build_theory(prep.sample, prep.pool, prep.matrix,
                                   prep.classes, prep.class_of,
                                   v_slack=cfg.v_slack, pairs=[])
    with open(args.model) as f:
        model = maxsat.parse_model(f.read(), theory.wcnf.nvars)
    phi, goods, _values = encoding.decode(theory, model)
    pol = policy.extract_policy(prep.pool, phi, prep.classes, goods)
    sys.stdout.write(pol.dump())
    return 0


def cmd_verify(args) -> int:
    gp = pipeline.load_problem(pipeline.load_domain(args.domain),
                               args.instance, _goal_params(args))
    with open(args.policy) as f:
        pol = policy.parse_policy(f.read())
    res = policy.verify_exhaustive(pol, gp, max_states=args.max_states)
    print(f"states={res.n_states}")
    print(f"compatible_transitions={res.n_compatible}")
    print(f"complete={int(res.complete)}")
    print(f"safe={int(res.safe)}")
    print(f"acyclic={int(res.acyclic)}")
    print(f"ok={int(res.ok)}")
    if res.witness:
        print(f"witness={res.witness}")
    return 0 if res.ok else 1


def cmd_run(args) -> int:
    gp = pipeline.load_problem(pipeline.load_domain(args.domain),
                               args.instance, _goal_params(args))
    with open(args.policy) as f:
        pol = policy.parse_policy(f.read())
    res = policy.greedy_execute(pol, gp, max_steps=args.max_steps,
                                tie_break=args.tie_break, seed=args.seed)
    for name in res.trajectory:
        print(name)
    print(f"status={res.status}")
    print(f"steps={res.steps}")
    return 0 if res.solved else 1


def cmd_learn(args) -> int:
    result = pipeline.learn(_config_from(args))
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.kv"), "w") as f:
            f.write(result.report_machine)
        with open(os.path.join(args.out, "report.txt"), "w") as f:
            f.write(result.report_human)
        if result.policy is not None:
            with open(os.path.join(args.out, "policy.txt"), "w") as f:
                f.write(result.policy.dump())
    sys.stdout.write(result.report_human)
    if result.status != "ok":
        return 1
    return 0 if result.verify_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="genpol",
                                 description="learn generalized policies "
                                             "from small training instances")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the labeled transition system")
    _add_instance_args(p)
    p.add_argument("--max-states", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("features", help="print the generated feature pool")
    _add_instance_args(p, many=True)
    _add_pool_args(p)
    p.add_argument("--max-pool", type=int)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("encode", help="write the theory as WCNF")
    _add_instance_args(p, many=True)
    _add_pool_args(p)
    p.add_argument("--max-pool", type=int)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-merge", dest="merge_classes", action="store_false")
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
    _add_pool_args(p)
    p.add_argument("--max-pool", type=int)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--no-merge", dest="merge_classes", action="store_false")
    p.add_argument("--model", required=True,
                   help="file with the solver's v lines")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="verify a policy on a full state space")
    _add_instance_args(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--max-states", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute a policy greedily")
    _add_instance_args(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--tie-break", default="first", choices=["first", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("learn", help="run the whole pipeline")
    _add_instance_args(p, many=True)
    _add_pool_args(p)
    p.add_argument("--test", dest="test_paths", metavar="TEST", nargs="*",
                   help="held-out test instances")
    p.add_argument("--max-pool", type=int)
    p.add_argument("--max-states", type=int)
    p.add_argument("--v-slack", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--extra-pairs-per-class", type=int)
    p.add_argument("--no-merge", dest="merge_classes", action="store_false")
    p.add_argument("--solver-time-limit", type=float, default=None)
    p.add_argument("--solver-backend")
    p.add_argument("--tie-break", choices=["first", "random"])
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", help="directory for policy and report files")
    p.set_defaults(func=cmd_learn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GenpolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
