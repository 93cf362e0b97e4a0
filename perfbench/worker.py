"""One benchmark child process: set up, measure or trace one workload.

The BLAS thread count and the address-space limit are fixed before numpy is
imported, so they hold for everything the process does.  An allocation past
the limit raises MemoryError inside the operation that asked for it, which
is counted as that operation's failure instead of ending the run.

    python3 perfbench/worker.py MODE WORKLOAD SEED OUT_JSON [options]

MODE is ``setup`` (time one set-up, optionally pickle its state), ``measure``
(load the state, run untraced passes) or ``trace`` (set up and run passes
with spans recorded around the package's public callables).
"""

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback

BLAS_THREADS = 1
AS_LIMIT_BYTES = 3 * 2**30
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _pin():
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy as np
    import platform

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "as_limit_bytes": AS_LIMIT_BYTES,
    }


class Runner:
    """Runs passes over the operation list and checks every answer."""

    def __init__(self, ops, tamper=False, tracer=None):
        from ppbasis import errors

        self.ops = ops
        self.tamper = tamper
        self.tracer = tracer
        self.algebra_error = errors.AlgebraError
        self.samples_ms = []
        self.attempted = 0
        self.failures = []

    def _call(self, op, label):
        if self.tracer is not None:
            return self.tracer.run_op(label, op.call)
        return op.call()

    def run_pass(self, index):
        import workloads

        gc.collect()
        start = time.perf_counter()
        for op in self.ops:
            label = "%d/%s" % (index, op.name)
            t0 = time.perf_counter()
            try:
                raw = self._call(op, label)
                error = None
            except self.algebra_error as exc:
                error = type(exc).__name__
            except Exception as exc:  # MemoryError from the guard included
                self.samples_ms.append((time.perf_counter() - t0) * 1e3)
                self.attempted += 1
                self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
                traceback.print_exc(limit=3, file=sys.stderr)
                continue
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)
            self.attempted += 1
            try:
                observed = {"error": error} if error else op.observe(raw)
                if self.tamper and op is self.ops[0]:
                    observed = workloads.tampered(observed)
                problem = workloads.mismatch(observed, op.expected)
            except Exception as exc:
                problem = "answer unreadable: %s: %s" % (type(exc).__name__, exc)
            if problem:
                self.failures.append("%s: wrong answer: %s" % (label, problem))
        return time.perf_counter() - start


def _set_up(workload, seed, workdir):
    import workloads

    return workloads.WORKLOADS[workload][0](seed, workdir)


def _ops(workload, state, seed):
    import workloads

    return workloads.WORKLOADS[workload][1](state, seed)


def mode_setup(args, t0):
    state = _set_up(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    if args.state:
        with open(args.state, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {"setup_s": setup_s, "maxrss_mb": _maxrss_mb()}


def _keep_going(start, seconds, done, need, deadline):
    """Start another pass while fewer than ``need`` are done, or while one
    more (as long as the median so far) still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    if elapsed >= deadline:
        return False
    if len(done) < need:
        return True
    return elapsed + statistics.median(done) <= seconds


def mode_measure(args, t0):
    with open(args.state, "rb") as fh:
        state = pickle.load(fh)
    runner = Runner(_ops(args.workload, state, args.seed), tamper=args.tamper)
    pass_s = []
    start = time.perf_counter()
    while _keep_going(start, args.seconds, pass_s, args.min_passes, args.deadline) and (
        args.passes is None or len(pass_s) < args.passes
    ):
        pass_s.append(runner.run_pass(len(pass_s)))
    return {
        "pass_s": pass_s,
        "samples_ms": runner.samples_ms,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "maxrss_mb": _maxrss_mb(),
    }


def mode_trace(args, t0):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    state = _set_up(args.workload, args.seed, args.workdir)
    tracer.uninstall()
    runner = Runner(_ops(args.workload, state, args.seed), tamper=args.tamper)
    plain_s, traced_s = [], []
    start = time.perf_counter()
    # untraced and traced passes alternate, so both see the same machine state
    pairs = []
    while _keep_going(start, args.seconds, pairs, 1, args.deadline) and (
        args.passes is None or len(traced_s) < args.passes
    ):
        plain_s.append(runner.run_pass(2 * len(traced_s)))
        tracer.install()
        runner.tracer = tracer
        traced_s.append(runner.run_pass(2 * len(traced_s) + 1))
        runner.tracer = None
        tracer.uninstall()
        pairs.append(plain_s[-1] + traced_s[-1])
    metrics = tracer.layer_metrics(plain_s, traced_s)
    tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed, "env": environment()})
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "maxrss_mb": _maxrss_mb(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "trace"])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--workdir", required=True, help="scratch directory for files the workload writes")
    parser.add_argument("--state", help="pickled set-up state: written by setup, read by measure")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--passes", type=int, default=None, help="stop after this many passes (self-test)")
    parser.add_argument("--deadline", type=float, default=120.0, help="start no pass after this many seconds")
    parser.add_argument("--trace-file")
    parser.add_argument("--tamper", action="store_true", help="corrupt one answer per pass (self-test)")
    args = parser.parse_args(argv)
    _pin()
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (numpy and ppbasis load here, inside setup_s)

    result = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}[args.mode](args, t0)
    result["env"] = environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
