"""Self-test of the benchmark itself; run from the root of a source checkout.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json for one pass at its real sizes,
untraced and traced, and checks that:

* every end-to-end and per-layer metric is printed with its declared unit,
  every answer matches its reference, and the trace file parses with
  consistent parent links and operation ids;
* the trace attributes time as expected: on ``pipeline`` the basic
  construction (with its nullspace) is most of the diag-in-M5 operation,
  on ``bases`` classify is most of a pass;
* a tampered answer is counted as failed (``ok_frac`` drops below 1);
* the memory guard turns a 4 GiB allocation into a named, counted failure;
* without the package sources the benchmark exits non-zero and prints no
  result.

Prints one line per check and exits non-zero if any fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


class Checks:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok, what):
        print("%s: %s" % ("ok" if ok else "FAIL", what), flush=True)
        self.failed += not ok
        return ok


def bench(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0", "--passes", "1"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def check_result(check, label, result, declared):
    if not check(result is not None, "%s printed a JSON result" % label):
        return False
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s result has exactly the four keys" % label)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    check(printed == declared, "%s prints every declared metric with its unit" % label)
    check(
        all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()),
        "%s metric values are numbers" % label,
    )
    return True


def check_trace(check, workload):
    path = os.path.join(ROOT, ".perfbench", "trace-%s-%d.json" % (workload, SEED))
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    fields = trace["fields"]
    spans = [dict(zip(fields, s)) for s in trace["spans"]]
    consistent = bool(spans)
    for i, s in enumerate(spans):
        consistent &= s["id"] == i and s["start"] <= s["end"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            consistent &= p["id"] < i and p["start"] <= s["start"] and s["end"] <= p["end"] and p["op"] == s["op"]
        else:
            consistent &= s["name"] == "op" or s["op"] == "setup"
    check(consistent, "%s trace: %d spans with consistent parent links and operation ids" % (workload, len(spans)))
    check(not trace["absent"], "%s trace: every wrapped name present" % workload)
    return spans


def outermost(spans, name, within):
    """Total duration of ``name`` spans not nested in another ``name`` span."""
    total = 0.0
    for s in spans:
        if s["name"] != name or not within(s):
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p < 0:
            total += s["end"] - s["start"]
    return total


def attribution(check, workload, spans):
    if workload == "pipeline":
        op = [s for s in spans if s["name"] == "op" and s["op"].endswith("/diag-in-m5")][0]
        in_op = lambda s: s["op"] == op["op"]
        share = outermost(spans, "basic.BasicConstruction", in_op) / (op["end"] - op["start"])
        null = outermost(spans, "linalg.nullspace", in_op) / (op["end"] - op["start"])
        check(share > 0.5, "pipeline: BasicConstruction is %.0f%% of diag-in-M5 (nullspace %.0f%%)" % (100 * share, 100 * null))
    elif workload == "bases":
        in_pass = lambda s: s["op"] != "setup"
        ops = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
        share = outermost(spans, "systems.classify", in_pass) / ops
        check(share > 0.5, "bases: classify is %.1f%% of the traced pass" % (100 * share))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check = Checks()
    for wl in (w["name"] for w in spec["workloads"]):
        proc, result = bench(wl, "--trace", "0")
        if check_result(check, wl, result, end_to_end):
            check(result["correct"] and result["failed"] == 0, "%s: all %d answers correct" % (wl, result["attempted"]))
        check("env: " in proc.stdout, "%s records its environment" % wl)
        proc, result = bench(wl, "--trace", "1")
        if check_result(check, wl + " traced", result, per_layer):
            check(result["correct"], "%s traced: all answers correct" % wl)
            overhead = result["metrics"]["trace.overhead_frac"]["value"]
            print("   %s tracing overhead: %+.1f%% of batch_s" % (wl, 100 * overhead))
            attribution(check, wl, check_trace(check, wl))
        proc, result = bench(wl, "--trace", "0", "--tamper")
        if check(result is not None, "%s tampered: printed a result" % wl):
            ok_frac = result["metrics"]["ok_frac"]["value"]
            check(
                not result["correct"] and result["failed"] >= 1 and ok_frac < 1.0,
                "%s tampered: %d of %d operations failed, ok_frac %.3f" % (wl, result["failed"], result["attempted"], ok_frac),
            )
    proc, result = bench("guard", "--trace", "0")
    check(
        result is not None and result["failed"] == result["attempted"] == 1
        and "MemoryError" in proc.stderr and "diag-in-m4-m1-wedderburn" in proc.stderr,
        "memory guard: the 4 GiB U factor of diag-in-M4's M1 Wedderburn is a named, counted failure",
    )
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p), ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None, "without the sources: exit code %d, no result" % proc.returncode)
    print("selftest: %s" % ("pass" if not check.failed else "%d FAILED" % check.failed))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
