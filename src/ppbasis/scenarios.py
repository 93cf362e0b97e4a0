"""JSON scenarios: a model description plus an ordered task list.

Complex numbers are encoded as [re, im] pairs, matrices as row-major nested
lists, one matrix per block.  "markov" as a trace field triggers the Markov
trace.  Every number in the machine report is rounded to 12 significant
digits and the printed lines show exactly the rounded values, so a report is
byte-stable for a fixed seed.  Model kinds and tasks are looked up in the
MODEL_KINDS and TASKS tables; a missing or malformed field is a ScenarioError.
Integer fields (seed, sizes, indices, the entries of an inclusion, a perm or a
group table) take nonnegative JSON integers only: a float, a bool or a digit
string is malformed, not rounded.  A model is a ModelPair or a MasaQuadruple;
the seed decomposes a pair's N once, when it is built, and tasks read what is
kept on N's Wedderburn data wd (``wd.lam``, ``wd.m1``, ``wd.inner_basis``), so
the order of the tasks does not change a report.
"""

import contextlib
import json

import numpy as np

from . import linalg
from .algebra import MultiMatrixAlgebra, check_unital_dims
from .basic import BasicConstruction, watatani_index
from .errors import AlgebraError, ScenarioError
from .intermediate import interchange_operator, interchange_pair, is_commuting_square
from .models import (
    MasaQuadruple,
    ModelPair,
    crossed_product_pair,
    degenerate_quadruple,
    diagonal_in_matrix,
    explicit_pair,
    group_algebra_pair,
    masa_quadruple,
)
from .paths import PathModel, scalar_basis
from .regular import Automorphism, GroupTable, regular_pipeline
from .systems import classify, complete_to_basis, construct_system_with_support

def round12(x):
    return float("%.12g" % float(x))


def _round_tree(obj):
    """Round every float in a nested structure; make everything JSON-safe."""
    if isinstance(obj, dict):
        return {str(k): _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round12(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [round12(obj.real), round12(obj.imag)]
    if obj is None or isinstance(obj, str):
        return obj
    raise ScenarioError("cannot serialize value of type %s" % type(obj).__name__)


def _is_number(v):
    """Whether ``v`` is a JSON number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_scalar(v):
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_number(c) for c in v):
        return complex(v[0], v[1])
    raise ScenarioError("scalar entries must be numbers or [re, im] pairs, got %r" % (v,))


def _parse_matrix(data):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ScenarioError("a matrix must be a nonempty nested list")
    rows = [[_parse_scalar(v) for v in r] for r in data]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ScenarioError("matrix rows have unequal lengths")
    return np.array(rows, dtype=complex)


def parse_element(alg, data):
    """One algebra element: a list of per-block matrices ([re, im] entries)."""
    if not isinstance(data, list) or len(data) != alg.nblocks:
        raise ScenarioError("element needs %d block matrices" % alg.nblocks)
    blocks = []
    for j, m in enumerate(data):
        b = _parse_matrix(m)
        if b.shape != (alg.dims[j], alg.dims[j]):
            raise ScenarioError("block %d has shape %r, expected %dx%d" % (j, b.shape, alg.dims[j], alg.dims[j]))
        blocks.append(b)
    return alg.element(blocks)


def _count(value, field):
    """``value`` if it is a nonnegative JSON integer (a bool or a float is not one);
    otherwise a ScenarioError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError("%s must be a nonnegative integer, got %r" % (field, value))
    return value


def _count_rows(rows, field):
    """A matrix of nonnegative JSON integers, read entry by entry with ``_count``."""
    return [[_count(v, field) for v in row] for row in rows]


def _parse_trace(spec):
    if spec is None or spec == "markov":
        return "markov"
    if isinstance(spec, list) and all(_is_number(v) for v in spec):
        return tuple(float(v) for v in spec)
    raise ScenarioError("trace must be 'markov' or a list of numbers")


def _group_from_spec(spec):
    """GroupTable from 'cyclic:n', {'cyclic': n}, {'table': ...} or
    {'permutations': ...}; returns (group, index_map) where index_map sends
    positions in the original description to table indices."""
    if isinstance(spec, str):
        if spec.startswith("cyclic:"):
            try:
                n = int(spec.split(":", 1)[1])
            except ValueError:
                raise ScenarioError("bad cyclic group spec %r" % spec)
            return GroupTable.cyclic(n), None
        raise ScenarioError("unknown group spec %r" % spec)
    if isinstance(spec, dict):
        if "cyclic" in spec:
            return GroupTable.cyclic(_count(spec["cyclic"], "cyclic")), None
        if "table" in spec:
            return GroupTable(_count_rows(spec["table"], "table")), None
        if "permutations" in spec:
            perms = [tuple(_count(v, "permutations") for v in p) for p in spec["permutations"]]
            group, order = GroupTable.from_permutations(perms)
            index = {p: i for i, p in enumerate(order)}
            return group, [index[p] for p in perms]
    raise ScenarioError("unknown group spec %r" % (spec,))


def _action_from_spec(spec, base, group):
    if spec in (None, "trivial"):
        return [Automorphism.identity(base) for _ in range(len(group))]
    if spec == "cyclic_shift":
        if len(group) != base.nblocks:
            raise ScenarioError("cyclic_shift needs |G| equal to the number of blocks")
        return Automorphism.cyclic_shifts(base)
    if isinstance(spec, list):
        if len(spec) != len(group):
            raise ScenarioError("need one automorphism per group element")
        autos = []
        for a in spec:
            if not isinstance(a, dict):
                raise ScenarioError("each automorphism must be an object, got %r" % (a,))
            perm = a.get("perm")
            if perm is not None:
                perm = [_count(v, "perm") for v in perm]
            units = a.get("unitaries")
            if units is not None:
                units = [_parse_matrix(u) for u in units]
            autos.append(Automorphism(base, perm=perm, unitaries=units))
        return autos
    raise ScenarioError("unknown action spec %r" % (spec,))


@contextlib.contextmanager
def _fields_of(what):
    """Report a missing or malformed field of ``what`` as a ScenarioError."""
    try:
        yield
    except np.linalg.LinAlgError:  # a failed factorization, not a malformed field
        raise
    except KeyError as exc:
        raise ScenarioError("%s is missing field %s" % (what, exc)) from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError("%s has a malformed field: %s" % (what, exc)) from None


def _explicit_model(spec, seed):
    dims = tuple(_count(d, "dims") for d in spec["dims"])
    lam = _count_rows(spec["inclusion"], "inclusion")
    if "ambient_dims" in spec:
        check_unital_dims(dims, lam, [_count(n, "ambient_dims") for n in spec["ambient_dims"]])
    unitaries = spec.get("unitaries")
    if unitaries is not None:
        unitaries = [_parse_matrix(u) for u in unitaries]
    pair = explicit_pair(dims, lam, trace=_parse_trace(spec.get("trace", "markov")), unitaries=unitaries)
    if "candidates" in spec:
        pair.candidates = tuple(parse_element(pair.ambient, e) for e in spec["candidates"])
    return pair


def _diagonal_model(spec, seed):
    return diagonal_in_matrix(_count(spec["k"], "k"), trace=_parse_trace(spec.get("trace", "markov")))


def _group_model(spec, seed):
    group, index_map = _group_from_spec(spec["group"])
    subgroup = [_count(h, "subgroup") for h in spec["subgroup"]]
    if index_map is not None:
        if max(subgroup, default=0) >= len(index_map):
            raise ScenarioError("subgroup index %d out of range for %d permutations" % (max(subgroup), len(index_map)))
        subgroup = [index_map[h] for h in subgroup]
    return group_algebra_pair(group, subgroup, seed=seed)


def _crossed_product_model(spec, seed):
    base_dims = tuple(_count(d, "base_dims") for d in spec["base_dims"])
    group, _ = _group_from_spec(spec["group"])
    action = spec.get("action", "trivial")
    trace = spec.get("base_trace")
    if trace is None:
        total = float(sum(d * d for d in base_dims))
        trace = tuple(d / total for d in base_dims)
    elif not isinstance(trace, list) or not all(_is_number(v) for v in trace):
        raise ScenarioError("base_trace must be a list of numbers, got %r" % (trace,))
    base = MultiMatrixAlgebra(base_dims, trace)
    return crossed_product_pair(base, group, _action_from_spec(action, base, group), seed=seed)


def _quadruple_model(spec, seed):
    which = spec.get("which", "masa")
    if which == "masa":
        return masa_quadruple()
    if which == "degenerate":
        return degenerate_quadruple()
    raise ScenarioError("unknown quadruple %r" % (which,))


def _path_model(spec, seed):
    dims = tuple(_count(d, "middle_dims") for d in spec["middle_dims"])
    return explicit_pair(dims, _count_rows(spec["inclusion"], "inclusion"), trace=_parse_trace(spec.get("trace", "markov")))


# each builder returns a ModelPair or a MasaQuadruple
MODEL_KINDS = {
    "explicit": _explicit_model,
    "diagonal_in_matrix": _diagonal_model,
    "group_algebra_pair": _group_model,
    "crossed_product": _crossed_product_model,
    "quadruple": _quadruple_model,
    "path": _path_model,
}


def build_model(spec, seed=0):
    """The ModelPair or MasaQuadruple a model spec describes; a pair's N, if it keeps no units, is decomposed here at
    ``seed``, which also seeds a crossed product that has no closed-form units (``CrossedProductModel``)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError("model spec must be an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ScenarioError("unknown model kind %r" % (kind,))
    with _fields_of("model spec"):
        try:
            model = MODEL_KINDS[kind](spec, seed)
            if isinstance(model, ModelPair):
                model.sub.wedderburn_data(seed)  # an embedded N keeps its own units; a spanned one is decomposed
        except ScenarioError:
            raise
        except AlgebraError as exc:
            raise ScenarioError("model construction failed: %s: %s" % (type(exc).__name__, exc))
    return model


def _pair(model):
    if not isinstance(model, ModelPair):
        raise ScenarioError("task needs an inclusion model, not a quadruple")
    return model


def _quadruple(model):
    if not isinstance(model, MasaQuadruple):
        raise ScenarioError("task needs a quadruple model, not an inclusion")
    return model


def _elements(task, model):
    pair = _pair(model)
    source, amb = task.get("elements", "identity"), pair.ambient
    if source == "identity":
        return (amb.identity(),)
    if source == "scalar_basis":
        return tuple(scalar_basis(amb))
    if source in ("candidates", "unitaries"):
        if not pair.candidates:
            raise ScenarioError("model has no candidates")
        return tuple(pair.candidates)
    if isinstance(source, list):
        return tuple(parse_element(amb, e) for e in source)
    raise ScenarioError("unknown element source %r" % (source,))


def _resolve_f(spec, bc):
    """M1's blocks of a support projection: "e1", "one", or {"m1_central": b}.

    ``m1_central`` b is the central projection of the M1 block that sits over
    block b of N's Wedderburn decomposition.
    """
    if spec in (None, "e1"):
        return bc.e1
    dims = bc.m1_wedd.block_dims
    if spec == "one":
        return [np.eye(d) for d in dims]
    if isinstance(spec, dict) and "m1_central" in spec:
        b = _count(spec["m1_central"], "m1_central")
        if b >= len(dims):
            raise ScenarioError("m1_central index %d out of range" % b)
        return [np.eye(d) * (i == b) for i, d in enumerate(dims)]
    raise ScenarioError("unknown support spec %r" % (spec,))


def _system_payload(sys):
    numbers = {"size": len(sys.elements)}
    numbers.update(sys.residuals)
    return {"flags": dict(sys.flags), "numbers": numbers}


def _classify_elements(task, model, side, eps):
    return classify(_elements(task, model), model.sub, side=side, tol=eps)


def _construct(task, model, eps):
    bc = BasicConstruction(_pair(model).sub)  # a handle on the M1 data kept on N
    f = _resolve_f(task.get("f", "e1"), bc)
    return construct_system_with_support(f, bc, mode=task.get("mode", "general"), tol=eps)


def _task_classify_system(task, model, eps):
    return _system_payload(_classify_elements(task, model, task.get("side", "two-sided"), eps))


def _task_support(task, model, eps):
    sys = _classify_elements(task, model, "right", eps)
    out = _system_payload(sys)
    mults = sys.sub.wedderburn_data().block_dims  # the support's block C_i occurs m_i times in M1
    rank = sum(m * np.trace(c).real for m, c in zip(mults, sys.support["right"]))
    out["numbers"]["support_rank"] = int(round(rank))
    out["numbers"]["e1_rank"] = sys.sub.dim
    return out


def _task_construct_with_support(task, model, eps):
    return _system_payload(_construct(task, model, eps))


def _task_complete_to_basis(task, model, eps):
    start = _construct(task, model, eps) if "f" in task else _classify_elements(task, model, "right", eps)
    full = complete_to_basis(start, tol=eps)
    out = _system_payload(full)
    out["numbers"]["initial_size"] = len(start.elements)
    out["flags"]["prefix_preserved"] = all(
        a.allclose(b) for a, b in zip(start.elements, full.elements[: len(start.elements)])
    )
    return out


def _task_path_basis(task, model, eps):
    emb = _pair(model).embedding
    if emb is None or emb.block_unitaries is not None:
        raise ScenarioError("path tasks need an untwisted explicit inclusion")
    pm = PathModel(emb)
    labels, elems = pm.orthogonal_system()
    mid = pm.middle_subalgebra()
    sys = classify(elems, mid, side="left", tol=eps)
    gns = mid.mat @ (mid.mat.conj().T * pm.bottom.gns_weights)  # every bottom unit projected onto the middle at once
    expect_res = float(np.linalg.norm(pm.expect_units() - gns, axis=0).max())
    wd, amb = mid.wedderburn_data(), pm.bottom  # each ``j_projection`` as a GNS column: its block's units summed / m_p
    jp = np.add.reduceat(wd.unit_mat, wd._starts[:-1], axis=1) / np.array(pm.middle_skeleton.dims)
    defects = np.concatenate([amb.products(jp, jp)[:, ::jp.shape[1] + 1] - jp, jp - amb.modular_conjugation(jp)], axis=1)
    j_res = float(np.linalg.norm(defects, axis=0).max())  # the GNS 2-norms of jp^2 - jp and jp - jp*
    out = _system_payload(sys)
    out["numbers"]["expectation_residual"] = expect_res
    out["numbers"]["j_projection_residual"] = j_res
    return out


def _task_markov(task, model, eps):
    wd = _pair(model).sub.wedderburn_data()
    lam, md = wd.lam, wd.m1.markov
    t0 = np.asarray(md.trace_sub, dtype=float)
    eig = float(np.linalg.norm(lam @ lam.T @ t0 - md.beta * t0))
    return {
        "flags": {},
        "numbers": {
            "beta": md.beta,
            "eigen_residual": eig,
            "trace_sub": list(md.trace_sub),
            "trace_amb": list(md.trace_amb),
        },
    }


def _task_watatani(task, model, eps):
    wat = watatani_index(_elements(task, model), tol=eps)
    numbers = {}
    if wat.scalar is not None:
        numbers["scalar"] = wat.scalar
    return {"flags": {"central": wat.is_central, "scalar_index": wat.scalar is not None}, "numbers": numbers}


def _task_interchange(task, model, eps):
    q = _quadruple(model)
    bc = BasicConstruction(q.n_sub)
    pq, qp, j_res = interchange_pair(q.p_sub, q.bases_p[0], q.q_sub, q.bases_q[0], bc, tol=eps)
    idem = linalg.operator_norm(pq @ pq - pq)
    adj = linalg.operator_norm(pq - pq.conj().T)
    numbers = {
        "idempotent_residual": idem,
        "selfadjoint_residual": adj,
        "j_symmetry_residual": j_res,
        "norm": linalg.operator_norm(pq),
    }
    if len(q.bases_p) > 1 and len(q.bases_q) > 1:
        alt = interchange_operator(q.p_sub, q.bases_p[1], q.q_sub, q.bases_q[1], bc, tol=eps)
        numbers["basis_independence"] = linalg.operator_norm(pq - alt)
    return {"flags": {"projection": bool(max(idem, adj) <= eps)}, "numbers": numbers}


def _task_commuting_square(task, model, eps):
    q = _quadruple(model)
    flag, worst = is_commuting_square(q.n_sub, q.p_sub, q.q_sub, tol=max(eps, linalg.EPS_REL))
    return {"flags": {"commuting": flag}, "numbers": {"residual": worst}}


def _task_regular_pipeline(task, model, eps):
    pair = _pair(model)
    rep = regular_pipeline(pair.sub, pair.candidates, tol=eps)
    numbers = dict(rep.numbers)
    if rep.patched is not None:
        numbers["basis_size"] = len(rep.patched.elements)
    if rep.watatani is not None and rep.watatani.scalar is not None:
        numbers["watatani_scalar"] = rep.watatani.scalar
    return {
        "flags": dict(rep.flags),
        "numbers": numbers,
        "notes": rep.format_lines(),
        "issues": list(rep.issues),
    }


TASKS = {
    "classify_system": _task_classify_system,
    "support": _task_support,
    "construct_with_support": _task_construct_with_support,
    "complete_to_basis": _task_complete_to_basis,
    "path_basis": _task_path_basis,
    "markov": _task_markov,
    "watatani": _task_watatani,
    "interchange": _task_interchange,
    "commuting_square": _task_commuting_square,
    "regular_pipeline": _task_regular_pipeline,
}
TASK_NAMES = tuple(TASKS)


def _run_task(task, model, eps):
    name = task.get("task")
    if not isinstance(name, str) or name not in TASKS:
        raise ScenarioError("unknown task %r (choose from %s)" % (name, ", ".join(TASK_NAMES)))
    with _fields_of("task %s" % name):
        return TASKS[name](task, model, eps)


def _check_expect(expect, result, eps):
    failures = []
    for key, want in expect.items():
        if key == "error":
            continue
        flags = result.get("flags", {})
        numbers = result.get("numbers", {})
        if key in flags:
            if not isinstance(want, bool):
                failures.append("%s has non-boolean expectation %r" % (key, want))
            elif bool(flags[key]) != want:
                failures.append("%s = %s, expected %s" % (key, flags[key], want))
        elif key in numbers:
            got = numbers[key]
            if not _is_number(want):
                failures.append("%s has non-numeric expectation %r" % (key, want))
            elif not isinstance(got, (int, float, np.integer, np.floating)):
                failures.append("%s is not a number, expected %s" % (key, want))
            elif abs(float(got) - float(want)) > max(eps, linalg.EPS_REL):
                failures.append("%s = %s, expected %s" % (key, got, want))
        else:
            failures.append("no value named %s in the result" % key)
    return failures


def run_scenario_dict(data):
    """Execute one parsed scenario; returns (report dict, printable lines)."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    name = data.get("name", "unnamed")
    with _fields_of("scenario"):
        seed = _count(data.get("seed", 0), "seed")
    eps = data.get("eps", linalg.EPS_FLAG)  # a JSON number: true would read as 1.0 and "0.5" as 0.5
    if not _is_number(eps) or not 0 < eps < np.inf:  # nan fails too
        raise ScenarioError("scenario eps must be a finite positive number, got %r" % (eps,))
    eps = float(eps)
    tasks = data.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("scenario needs a nonempty task list")
    model = build_model(data.get("model"), seed=seed)
    results = []
    all_pass = True
    for task in tasks:
        if not isinstance(task, dict) or "task" not in task:
            raise ScenarioError("each task must be an object with a 'task' field")
        expect = task.get("expect", {})
        if not isinstance(expect, dict):
            raise ScenarioError("the expect field of task %r must be an object" % (task["task"],))
        entry = {"task": task["task"]}
        try:
            outcome = _run_task(task, model, eps)
            entry.update(outcome)
            failures = _check_expect(expect, outcome, eps)
            if expect.get("error"):
                failures.append("expected error %s was not raised" % expect["error"])
            entry["pass"] = not failures
            if failures:
                entry["failures"] = failures
        except ScenarioError:
            raise
        except AlgebraError as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
            entry["pass"] = expect.get("error") == type(exc).__name__
        all_pass &= entry["pass"]
        results.append(entry)
    report = _round_tree({"name": name, "seed": seed, "eps": eps, "results": results, "pass": all_pass})
    return report, format_report(report)


def format_report(report):
    lines = ["scenario %s (seed %d)" % (report["name"], report["seed"])]
    for entry in report["results"]:
        lines.append("task %s: %s" % (entry["task"], "pass" if entry["pass"] else "FAIL"))
        for key in sorted(entry.get("numbers", {})):
            val = entry["numbers"][key]
            if isinstance(val, list):
                lines.append("  %s = %s" % (key, json.dumps(val)))
            elif isinstance(val, float):
                lines.append("  %s = %.12g" % (key, val))
            else:
                lines.append("  %s = %s" % (key, val))
        for key in sorted(entry.get("flags", {})):
            lines.append("  %s = %s" % (key, "true" if entry["flags"][key] else "false"))
        for note in entry.get("notes", []):
            lines.append("  note: %s" % note)
        for issue in entry.get("issues", []):
            lines.append("  issue: %s" % issue)
        if "error" in entry:
            lines.append("  error: %s: %s" % (entry["error"], entry.get("message", "")))
        for f in entry.get("failures", []):
            lines.append("  mismatch: %s" % f)
    lines.append("result: %s" % ("pass" if report["pass"] else "FAIL"))
    return lines


def load_scenario(path):
    def reject(name):
        raise ScenarioError("non-finite number %s in %s; JSON numbers must be finite" % (name, path))

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ScenarioError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse error in %s at line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))


def dump_report(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def selftest_corpus():
    """Built-in scenarios covering every task kind with frozen expectations."""
    rot = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    return [
        {
            "name": "c-in-c",
            "seed": 0,
            "model": {"kind": "explicit", "dims": [1], "inclusion": [[1]], "trace": [1.0]},
            "tasks": [
                {"task": "markov", "expect": {"beta": 1.0}},
                {"task": "classify_system", "elements": "identity", "expect": {"basis": True, "orthonormal": True}},
                {"task": "watatani", "elements": "identity", "expect": {"scalar": 1.0}},
                {"task": "construct_with_support", "f": "one", "expect": {"basis": True, "size": 1}},
                {"task": "regular_pipeline", "expect": {"regular": True, "basis_size": 1, "beta": 1.0}},
            ],
        },
        {
            "name": "diag-in-m2",
            "seed": 0,
            "model": {"kind": "diagonal_in_matrix", "k": 2},
            "tasks": [
                {"task": "markov", "expect": {"beta": 2.0}},
                {"task": "construct_with_support", "f": "e1", "expect": {"size": 1, "orthonormal": True}},
                {"task": "construct_with_support", "f": {"m1_central": 0}, "mode": "general", "expect": {"size": 2}},
                {
                    "task": "construct_with_support",
                    "f": {"m1_central": 0},
                    "mode": "orthonormal-padded",
                    "expect": {"error": "InfeasibleSupport"},
                },
                {"task": "complete_to_basis", "f": "e1", "expect": {"basis": True, "prefix_preserved": True}},
                {
                    "task": "regular_pipeline",
                    "expect": {"regular": True, "basis_size": 2, "beta": 2.0, "product": 4},
                },
            ],
        },
        {
            "name": "scalars-in-c+m2",
            "seed": 0,
            "model": {"kind": "explicit", "dims": [1], "inclusion": [[1, 2]], "trace": "markov"},
            "tasks": [
                {"task": "markov", "expect": {"beta": 5.0}},
                {"task": "classify_system", "elements": "scalar_basis", "expect": {"basis": True, "system": True}},
                {"task": "watatani", "elements": "scalar_basis", "expect": {"scalar": 5.0, "central": True}},
                {"task": "path_basis", "expect": {"orthogonal": True, "system": True}},
            ],
        },
        {
            "name": "m2-in-m2+m2",
            "seed": 0,
            "model": {
                "kind": "explicit",
                "dims": [2],
                "inclusion": [[1, 1]],
                "trace": [0.25, 0.25],
                "candidates": [
                    [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
                    [rot, rot],
                ],
            },
            "tasks": [
                {"task": "markov", "expect": {"beta": 2.0}},
                {
                    "task": "regular_pipeline",
                    "expect": {"regular": True, "reps": 1, "product": 2, "basis_size": 2, "watatani_scalar": 2.0},
                },
            ],
        },
        {
            "name": "masa-quadruple",
            "seed": 0,
            "model": {"kind": "quadruple", "which": "masa"},
            "tasks": [
                {"task": "interchange", "expect": {"projection": True}},
                {"task": "commuting_square", "expect": {"commuting": True}},
            ],
        },
        {
            "name": "degenerate-quadruple",
            "seed": 0,
            "model": {"kind": "quadruple", "which": "degenerate"},
            "tasks": [
                {"task": "interchange", "expect": {"projection": False}},
                {"task": "commuting_square", "expect": {"commuting": False}},
            ],
        },
        {
            "name": "group-z2",
            "seed": 0,
            "model": {"kind": "group_algebra_pair", "group": "cyclic:2", "subgroup": [0]},
            "tasks": [
                {"task": "markov", "expect": {"beta": 2.0}},
                {"task": "regular_pipeline", "expect": {"regular": True, "basis_size": 2, "product": 2}},
            ],
        },
        {
            "name": "crossed-z3",
            "seed": 0,
            "model": {"kind": "crossed_product", "base_dims": [1, 1, 1], "group": "cyclic:3", "action": "cyclic_shift"},
            "tasks": [
                {"task": "markov", "expect": {"beta": 3.0}},
                {"task": "regular_pipeline", "expect": {"regular": True, "basis_size": 3}},
            ],
        },
    ]


def run_selftest():
    """Run the built-in corpus; returns (aggregate report, printable lines)."""
    reports = []
    lines = []
    ok = True
    for data in selftest_corpus():
        report, rep_lines = run_scenario_dict(data)
        reports.append(report)
        lines.extend(rep_lines)
        lines.append("")
        ok &= report["pass"]
    aggregate = {"scenarios": reports, "pass": ok}
    lines.append("selftest: %s" % ("pass" if ok else "FAIL"))
    return aggregate, lines
