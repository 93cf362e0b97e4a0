"""The benchmark's workloads: set-up, the fixed operation list of one pass,
and the reference answer of every operation.

References are closed-form facts about each inclusion (beta, dim(N' cap M),
number of coset representatives, basis sizes, Watatani index), not values
captured from a run of the program.  Every call into the package goes
through a module attribute (``regular.regular_pipeline``, not a name bound
at import), so the traced run's wrappers see it.

Set-up returns a picklable state: the measuring process loads it instead of
rebuilding, so its peak memory reflects the operations, not the set-up.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from ppbasis import algebra, basic, cli, intermediate, linalg, models, paths, regular, scenarios, systems

FLOAT_RTOL = 1e-8
FLAGS = ("system", "orthogonal", "orthonormal", "basis")
PIPELINE_FLAGS = ("regular", "coset_system_orthonormal", "support_equals_eP", "patched_basis_two_sided")


@dataclass
class Op:
    """One top-level public call, how to read its answer, and the reference."""

    name: str
    call: object
    observe: object
    expected: dict


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatch(observed, expected):
    """First difference between an observed answer and its reference, or None.

    Numbers agree to a relative 1e-8; everything else must be equal.
    """
    for key, want in expected.items():
        if key not in observed:
            return "%s missing (expected %r)" % (key, want)
        got = observed[key]
        if _is_number(want):
            ok = _is_number(got) and abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want))
        else:
            ok = got == want
        if not ok:
            return "%s = %r, expected %r" % (key, got, want)
    return None


def tampered(observed):
    """A deliberately wrong copy of an answer, for the benchmark self-test."""
    out = dict(observed)
    key = next(iter(out))
    val = out[key]
    if isinstance(val, bool):
        out[key] = not val
    elif _is_number(val):
        out[key] = val + 1
    else:
        out[key] = "tampered"
    return out


# ---------------------------------------------------------------- pipeline

def _pipeline_reference(beta, dim_commutant, reps, size):
    ref = {"beta": float(beta), "dim_commutant": dim_commutant, "reps": reps}
    ref.update({flag: True for flag in PIPELINE_FLAGS})
    ref["patched_size"] = size
    ref["watatani_scalar"] = float(beta)
    return ref


def _setup_pipeline(seed, workdir):
    cyclic = regular.GroupTable.cyclic
    klein = regular.GroupTable.direct_product(cyclic(2), cyclic(2))
    cases = []
    for k in (2, 3, 4, 5):
        cases.append(("diag-in-m%d" % k, models.diagonal_in_matrix(k), _pipeline_reference(k, k, k, k)))
    for n in (2, 3, 4, 6, 8):
        pair = models.group_algebra_pair(cyclic(n), [0], seed=seed)
        cases.append(("z%d-over-e" % n, pair, _pipeline_reference(n, n, 1, n)))
    cases.append(("z2xz2-over-e", models.group_algebra_pair(klein, [0], seed=seed), _pipeline_reference(4, 4, 1, 4)))
    for k in (2, 3, 4):
        pair = models.crossed_product_diag(k, seed=seed)
        cases.append(("crossed-diag-%d" % k, pair, _pipeline_reference(k, k, k, k)))
    cases.append(("m2-in-m2+m2", models.two_block_over_factor(), _pipeline_reference(2, 2, 1, 2)))
    # C[Z2] in C[Z2 x Z2]: the inclusion graph splits in two, so the chain must stop
    cases.append(("z2-in-z2xz2", models.group_algebra_pair(klein, [0, 1], seed=seed), {"error": "NonConnected"}))
    return [(name, pair.sub, tuple(pair.candidates), ref) for name, pair, ref in cases]


def _observe_pipeline(rep):
    out = {key: rep.numbers[key] for key in ("beta", "dim_commutant", "reps")}
    out.update({flag: bool(rep.flags[flag]) for flag in PIPELINE_FLAGS})
    out["patched_size"] = None if rep.patched is None else len(rep.patched.elements)
    out["watatani_scalar"] = None if rep.watatani is None else rep.watatani.scalar
    return out


def _ops_pipeline(state, seed):
    return [
        Op(
            name,
            lambda sub=sub, cand=cand: regular.regular_pipeline(sub, cand, seed=seed),
            _observe_pipeline,
            ref,
        )
        for name, sub, cand, ref in state
    ]


# ---------------------------------------------------------------- bases

def _shift(n):
    return np.roll(np.eye(n), 1, axis=0)


def _setup_bases(seed, workdir):
    rng = linalg.rng_from_seed(seed)
    m5 = models.scalar_in_full(5)
    amb = m5.ambient
    scalar = tuple(paths.scalar_basis(amb))
    u = amb.element([linalg.random_unitary(5, rng)])
    conjugated = tuple(x.conj_by(u) for x in scalar)
    broken = list(scalar)
    k = int(rng.integers(len(broken)))
    broken[k] = 1.1 * broken[k]
    # two mutually unbiased MASAs of M5: the diagonal and its Fourier transform
    diag_units = [amb.unit(0, i, i) for i in range(5)]
    shifts = [amb.element([np.linalg.matrix_power(_shift(5), j)]) for j in range(5)]
    diag = algebra.Subalgebra.span(amb, diag_units, check=False)
    fourier = algebra.Subalgebra.span(amb, shifts, check=False)
    z16 = models.group_algebra_pair(regular.GroupTable.cyclic(16), [0], seed=seed)
    d4 = models.diagonal_in_matrix(4)
    return {
        "n5": m5.sub,
        "bc5": basic.BasicConstruction(m5.sub, seed=seed),
        "scalar5": scalar,
        "conjugated5": conjugated,
        "broken5": tuple(broken),
        "masa": (diag, tuple(np.sqrt(5.0) * e for e in diag_units), fourier, tuple(shifts)),
        "z16": (z16.sub, tuple(z16.candidates), basic.BasicConstruction(z16.sub, seed=seed)),
        "d4": (d4.sub, tuple(d4.candidates), tuple(paths.scalar_basis(d4.ambient)), basic.BasicConstruction(d4.sub, seed=seed)),
    }


def _observe_system(sys):
    out = {flag: bool(sys.flags[flag]) for flag in FLAGS}
    out["size"] = len(sys.elements)
    return out


def _system_reference(verdict, size):
    ref = {flag: verdict for flag in FLAGS}
    ref["size"] = size
    return ref


def _observe_interchange(raw):
    pq, qp, j_res = raw
    idem = np.linalg.norm(pq @ pq - pq, 2)
    adj = np.linalg.norm(pq - pq.conj().T, 2)
    return {
        "projection": bool(max(idem, adj) <= 1e-8),
        "j_symmetric": bool(j_res <= 1e-8),
        "rank": float(np.trace(pq).real),
    }


def _ops_bases(state, seed):
    n5, bc5 = state["n5"], state["bc5"]
    z_sub, z_units, z_bc = state["z16"]
    d_sub, d_shifts, d_scalar, d_bc = state["d4"]
    diag, diag_basis, fourier, fourier_basis = state["masa"]

    def classify(family, sub, bc):
        return lambda: systems.classify(family, sub, side="two-sided", bc=bc)

    return [
        Op("m5-scalar-over-c", classify(state["scalar5"], n5, bc5), _observe_system, _system_reference(True, 25)),
        Op("m5-conjugated-over-c", classify(state["conjugated5"], n5, bc5), _observe_system, _system_reference(True, 25)),
        Op("m5-broken-over-c", classify(state["broken5"], n5, bc5), _observe_system, _system_reference(False, 25)),
        Op("z16-unitaries-over-c", classify(z_units, z_sub, z_bc), _observe_system, _system_reference(True, 16)),
        Op("m4-shifts-over-diag", classify(d_shifts, d_sub, d_bc), _observe_system, _system_reference(True, 4)),
        Op("m4-scalar-over-diag", classify(d_scalar, d_sub, d_bc), _observe_system, _system_reference(False, 16)),
        Op(
            "m5-watatani",
            lambda: basic.watatani_index(list(state["scalar5"])),
            lambda w: {"scalar": w.scalar, "central": bool(w.is_central)},
            {"scalar": 25.0, "central": True},
        ),
        # the products sqrt(5) e_ii S^j form an orthonormal basis of M5 over C,
        # so the interchange operator is the identity on L2(M5)
        Op(
            "m5-masa-interchange",
            lambda: intermediate.interchange_pair(diag, diag_basis, fourier, fourier_basis, bc5),
            _observe_interchange,
            {"projection": True, "j_symmetric": True, "rank": 25.0},
        ),
        Op(
            "m5-masa-commuting-square",
            lambda: intermediate.is_commuting_square(n5, diag, fourier),
            lambda r: {"commuting": bool(r[0])},
            {"commuting": True},
        ),
    ]


# ---------------------------------------------------------------- scenarios

def _pipeline_expect(beta, dim_commutant, reps, size):
    exp = {flag: True for flag in PIPELINE_FLAGS}
    exp.update({"beta": beta, "dim_commutant": dim_commutant, "reps": reps, "basis_size": size, "watatani_scalar": beta})
    return exp


# generate arguments and the closed-form expectations added to each task
GENERATED = (
    ("gen-diag-in-m3", ["diagonal_in_matrix", "--k", "3"], [{"beta": 3.0}, _pipeline_expect(3.0, 3, 3, 3)]),
    (
        "gen-z4-over-e",
        ["group_algebra_pair", "--group", "cyclic:4", "--subgroup", "0"],
        [{"beta": 4.0}, _pipeline_expect(4.0, 4, 1, 4)],
    ),
    (
        "gen-crossed-shift-3",
        ["crossed_product", "--base-dims", "1,1,1", "--group", "cyclic:3", "--action", "cyclic_shift"],
        [{"beta": 3.0}, _pipeline_expect(3.0, 3, 3, 3)],
    ),
    (
        "gen-crossed-trivial-m2",
        ["crossed_product", "--base-dims", "2", "--group", "cyclic:2", "--action", "trivial"],
        [{"beta": 2.0}, _pipeline_expect(2.0, 2, 1, 2)],
    ),
    ("gen-masa-quadruple", ["quadruple", "--which", "masa"], [{"projection": True}, {"commuting": True}]),
    ("gen-degenerate-quadruple", ["quadruple", "--which", "degenerate"], [{"projection": False}, {"commuting": False}]),
)


# (name, model, size of the basis built from f = 1, Watatani family and its
# index, whether path tasks apply).  Support f = 1 takes max_i ceil((Lambda m)_i / n_i)
# copies of e1, which is beta for these three; the Watatani index of a scalar
# basis over C is sum_j n_j / t_j, of the unitaries of C[G] it is |G|.
BUILD = (
    ("build-diag-in-m3", {"kind": "diagonal_in_matrix", "k": 3}, 3, "scalar_basis", 9.0, True),
    ("build-z6-over-c", {"kind": "group_algebra_pair", "group": "cyclic:6", "subgroup": [0]}, 6, "unitaries", 6.0, False),
    ("build-c-in-c+m2", {"kind": "explicit", "dims": [1], "inclusion": [[1, 2]], "trace": "markov"}, 5, "scalar_basis", 5.0, True),
)


def _build_scenarios(seed):
    out = []
    for name, model, beta, elements, index, path_basis in BUILD:
        tasks = [
            {"task": "construct_with_support", "f": "e1", "expect": {"size": 1, "orthonormal": True, "system": True}},
            {"task": "construct_with_support", "f": "one", "expect": {"size": beta, "basis": True}},
            {
                "task": "complete_to_basis",
                "f": "e1",
                "expect": {"basis": True, "prefix_preserved": True, "initial_size": 1, "size": beta},
            },
            {"task": "watatani", "elements": elements, "expect": {"scalar": index, "central": True}},
        ]
        if path_basis:
            tasks.append({"task": "path_basis", "expect": {"orthogonal": True, "system": True}})
        out.append({"name": name, "seed": seed, "eps": 1e-8, "model": model, "tasks": tasks})
    return out


def _with_expectations(spec, expects, seed):
    spec = dict(spec, seed=seed)
    spec["tasks"] = [dict(task, expect=exp) for task, exp in zip(spec["tasks"], expects, strict=True)]
    return spec


def _quiet_main(argv):
    """cli.main with its printed report captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _task_reference(prefix, tasks):
    """Reference keys for every expectation of every task in one scenario."""
    ref = {"%sresults" % prefix: len(tasks)}
    for i, task in enumerate(tasks):
        for key, want in task.get("expect", {}).items():
            ref["%s%d.%s" % (prefix, i, key)] = want
    return ref


def _task_observation(prefix, results):
    out = {"%sresults" % prefix: len(results)}
    for i, entry in enumerate(results):
        out["%s%d.error" % (prefix, i)] = entry.get("error")
        for key, val in list(entry.get("numbers", {}).items()) + list(entry.get("flags", {}).items()):
            out["%s%d.%s" % (prefix, i, key)] = val
    return out


def _setup_scenarios(seed, workdir):
    """Write the scenario files; each operation is one in-process CLI call.

    The selftest corpus is written out as files, ``generate`` output gets
    closed-form expectations added, and three construction scenarios pay the
    M1 Wedderburn behind ``construct_with_support``.
    """
    specs = [dict(spec, seed=seed) for spec in scenarios.selftest_corpus()]
    for name, argv, expects in GENERATED:
        code, text = _quiet_main(["generate"] + argv)
        if code != 0:
            raise RuntimeError("generate %s exited with %d" % (" ".join(argv), code))
        specs.append(_with_expectations(dict(json.loads(text), name=name), expects, seed))
    specs.extend(_build_scenarios(seed))
    runs = []
    for spec in specs:
        path = os.path.join(workdir, "%s.json" % spec["name"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        runs.append((spec["name"], ["run", path], _task_reference("", spec["tasks"])))
    corpus_ref = {"scenarios": len(scenarios.selftest_corpus())}
    for spec in scenarios.selftest_corpus():
        corpus_ref.update(_task_reference(spec["name"] + "/", spec["tasks"]))
    runs.append(("selftest", ["selftest"], corpus_ref))
    return [(name, argv + ["--json", os.path.join(workdir, "%s.report" % name)], ref) for name, argv, ref in runs]


def _observe_scenario(raw, report_path):
    code, _ = raw
    out = {"exit_code": code}
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)
    except FileNotFoundError:
        return out
    if "scenarios" in report:
        out["scenarios"] = len(report["scenarios"])
        for entry in report["scenarios"]:
            out.update(_task_observation(entry["name"] + "/", entry["results"]))
    else:
        out.update(_task_observation("", report["results"]))
    return out


def _ops_scenarios(state, seed):
    return [
        Op(
            name,
            lambda argv=argv: _quiet_main(argv),
            lambda raw, path=argv[-1]: _observe_scenario(raw, path),
            dict(ref, exit_code=0),
        )
        for name, argv, ref in state
    ]


# ---------------------------------------------------------------- guard

def _setup_guard(seed, workdir):
    return models.diagonal_in_matrix(4).sub


def _ops_guard(state, seed):
    """M1 Wedderburn of diag-in-M4: center(M1) asks for a 4 GiB U factor.

    Not a benchmark workload; the self-test runs it to show that the memory
    guard turns the allocation into a counted, named failure.
    """
    return [
        Op(
            "diag-in-m4-m1-wedderburn",
            lambda: basic.BasicConstruction(state, seed=seed).m1_wedd.block_dims,
            lambda dims: {"m1_blocks": list(dims)},
            {"m1_blocks": [4, 4, 4, 4]},
        )
    ]


# name: (set-up, operation list); run.py holds each one's repeat and pass counts
WORKLOADS = {
    "pipeline": (_setup_pipeline, _ops_pipeline),
    "bases": (_setup_bases, _ops_bases),
    "scenarios": (_setup_scenarios, _ops_scenarios),
    "guard": (_setup_guard, _ops_guard),
}
