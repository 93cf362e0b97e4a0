"""Command line front end: run scenario files, generate fixtures, selftest.

Exit codes: 0 everything passed, 1 a task's numeric check failed, 2 malformed
input (unparseable file, bad model data, unknown task) or a failed factorization.
"""

import argparse
import functools
import sys

import numpy as np

from . import linalg, scenarios
from .errors import ScenarioError


def _ints(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ScenarioError("expected a comma-separated integer list, got %r" % text)


def _finish(args, report, lines):
    """Print the report lines, write the JSON report if asked; 1 if a check failed."""
    for line in lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(scenarios.dump_report(report))
    return 0 if report["pass"] else 1


def _cmd_run(args):
    data = scenarios.load_scenario(args.file)
    for key in ("seed", "eps"):
        if getattr(args, key) is not None and isinstance(data, dict):
            data[key] = getattr(args, key)
    return _finish(args, *scenarios.run_scenario_dict(data))


def _cmd_selftest(args):
    return _finish(args, *scenarios.run_selftest())


def _generate_spec(args):
    kind = args.kind
    tasks = [{"task": "markov"}, {"task": "regular_pipeline"}]
    if kind == "diagonal_in_matrix":
        model = {"kind": kind, "k": args.k}
        name = "diag-in-m%d" % args.k
    elif kind == "group_algebra_pair":
        model = {"kind": kind, "group": args.group, "subgroup": _ints(args.subgroup)}
        name = "group-algebra-pair"
    elif kind == "crossed_product":
        model = {
            "kind": kind,
            "base_dims": _ints(args.base_dims),
            "group": args.group,
            "action": args.action,
        }
        name = "crossed-product"
    else:  # "quadruple"; the parser admits no other kind
        model = {"kind": kind, "which": args.which}
        tasks = [{"task": "interchange"}, {"task": "commuting_square"}]
        name = "%s-quadruple" % args.which
    scenarios.build_model(model, seed=0)  # validate the parameters before emitting
    return {"name": name, "seed": 0, "eps": linalg.EPS_FLAG, "model": model, "tasks": tasks}


def _cmd_generate(args):
    spec = _generate_spec(args)
    sys.stdout.write(scenarios.dump_report(spec))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ppbasis", description="inclusion models, bases and index reports")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--json", metavar="OUT", help="write the machine report here")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--eps", type=float, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_gen = subs.add_parser("generate", help="emit a scenario for a built-in model")
    p_gen.add_argument("kind", choices=["diagonal_in_matrix", "group_algebra_pair", "crossed_product", "quadruple"])
    p_gen.add_argument("--k", type=int, default=2, help="size for diagonal_in_matrix")
    p_gen.add_argument("--group", default="cyclic:2", help="group spec, e.g. cyclic:3")
    p_gen.add_argument("--subgroup", default="0", help="comma-separated element indices")
    p_gen.add_argument("--base-dims", dest="base_dims", default="1,1", help="block sizes of the base algebra")
    p_gen.add_argument("--action", default="cyclic_shift", help="trivial or cyclic_shift")
    p_gen.add_argument("--which", default="masa", choices=["masa", "degenerate"])
    p_gen.set_defaults(func=_cmd_generate)

    p_self = subs.add_parser("selftest", help="run the built-in scenario corpus")
    p_self.add_argument("--json", metavar="OUT", help="write the machine report here")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process on first use: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
