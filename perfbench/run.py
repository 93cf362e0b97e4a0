"""Benchmark entry point: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts child processes
(see worker.py) with one BLAS thread and an address-space limit:

* ``--trace 0``: several set-up processes give ``setup_s`` (the median of
  their set-up times); one of them pickles its state, and a measuring
  process loads it and runs untraced passes over the workload's operation
  list for ``--seconds`` (and at least the workload's minimum pass count).
* ``--trace 1``: one process sets up and alternates untraced and traced
  passes; it prints the per-layer metrics and writes the spans to
  ``.perfbench/trace-<workload>-<seed>.json``.

The environment goes to standard output as one ``env:`` line; the last line
is the JSON result.  Failed operations are listed on standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170.0  # the whole run, children included, must end within 180 s

# workload: (set-up repeats, minimum passes); its operations are in workloads.py
# each run takes at least 60 latency samples, so 10 or more lie beyond p83
PLAN = {"pipeline": (3, 4), "bases": (3, 7), "scenarios": (5, 4), "guard": (1, 1)}
TAIL_PERCENTILE = 83

UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


class BenchError(Exception):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Children:
    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.start = time.monotonic()
        self.count = 0

    def run(self, mode, *extra):
        self.count += 1
        out = os.path.join(self.workdir, "child-%d.json" % self.count)
        cmd = [sys.executable, WORKER, mode, self.args.workload, str(self.args.seed), out, "--workdir", self.workdir]
        cmd += [str(x) for x in extra]
        if self.args.tamper:
            cmd.append("--tamper")
        left = self.remaining()
        if left <= 0:
            raise BenchError("time budget spent before %s" % mode)
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError("%s process exceeded the run's time budget" % mode)
        if proc.returncode != 0:
            raise BenchError("%s process exited with code %d" % (mode, proc.returncode))
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)


def untraced(args, kids):
    repeats, min_passes = PLAN[args.workload]
    state = os.path.join(kids.workdir, "state.pickle")
    setups = [kids.run("setup", *(["--state", state] if i == repeats - 1 else [])) for i in range(repeats)]
    extra = ["--state", state, "--seconds", args.seconds, "--min-passes", min_passes]
    # leave room for the result to come back inside the run's time budget
    extra += ["--deadline", max(1.0, kids.remaining() - 60.0)]
    if args.passes is not None:
        extra += ["--passes", args.passes]
    res = kids.run("measure", *extra)
    samples = res["samples_ms"]
    attempted = res["attempted"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "batch_s": statistics.median(res["pass_s"]),
        "op_tail_ms": percentile(samples, TAIL_PERCENTILE),
        "peak_rss_mb": res["maxrss_mb"],
        "ok_frac": (attempted - len(res["failures"])) / attempted,
    }
    return res, {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}


def traced(args, kids):
    import tracing

    trace_file = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    extra = ["--seconds", args.seconds, "--trace-file", trace_file, "--deadline", max(1.0, kids.remaining() - 80.0)]
    if args.passes is not None:
        extra += ["--passes", args.passes]
    res = kids.run("trace", *extra)
    units = tracing.metric_units()
    return res, {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="ppbasis benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--passes", type=int, default=None, help="run exactly this many passes (self-test)")
    parser.add_argument("--tamper", action="store_true", help="corrupt one answer per pass (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ppbasis", "__init__.py")):
        print("error: no ppbasis sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        kids = Children(args, workdir)
        res, metrics = (traced if args.trace else untraced)(args, kids)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in res["failures"]:
        print("failed: %s" % failure, file=sys.stderr)
    env = dict(res["env"], workload=args.workload, seed=args.seed, trace=args.trace)
    print("env: %s" % json.dumps(env, sort_keys=True))
    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
