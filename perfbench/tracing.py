"""Spans around the package's public callables, recorded from outside it.

Each target is wrapped in place: module functions are rebound in every
``ppbasis`` module that imported them (so ``regular.BasicConstruction`` and
``scenarios.classify`` are covered), and constructors, methods, class methods
and properties are wrapped on their class.  A target missing from the
package is recorded as absent instead of failing the run.

A span is ``[id, name, start, end, parent id, operation id]``; spans stay in
memory and are written out once at the end.  Self time is a span's duration
minus the durations of its direct children (calls nest and never overlap).
"""

import functools
import inspect
import json
import statistics
import sys
import time

FIELDS = ("id", "name", "start", "end", "parent", "op")
U_FACTOR_ITEM_BYTES = 16  # complex128


def _nullspace_probe(tracer, args, kwargs, result):
    rows = len(args[0]) if args else len(kwargs["a"])
    # computed, not measured: the full_matrices=True U factor is rows x rows
    tracer.maximum("linalg.nullspace.u_bytes_max", rows * rows * U_FACTOR_ITEM_BYTES)


def _construction_probe(tracer, args, kwargs, result):
    bc = args[0]
    tracer.maximum("basic.BasicConstruction.gns_dim_max", bc.amb.gns_dim)
    m1 = vars(bc).get("m1")  # read only if already built, so a lazy M1 is not forced
    tracer.maximum("basic.BasicConstruction.m1_dim_max", 0 if m1 is None else m1.dim)


# residual keys behind each classify flag (each compared against tol)
_FLAG_RESIDUALS = {
    "system": ("gram_projection",),
    "orthogonal": ("offdiag", "diag_projection"),
    "orthonormal": ("diag_identity",),
    "basis": ("support_identity",),
}


def _classify_probe(tracer, args, kwargs, result):
    tracer.maximum("systems.classify.family_size_max", len(result.elements))
    bound = inspect.signature(tracer.originals["systems.classify"]).bind(*args, **kwargs)
    bound.apply_defaults()
    tol = bound.arguments["tol"]
    for flag, suffixes in _FLAG_RESIDUALS.items():
        if not result.flags[flag]:
            continue
        for key, val in result.residuals.items():
            if key.endswith(suffixes) and not key.startswith("over_n_"):
                tracer.maximum("systems.classify.residual_ratio_max", val / tol)


def _model_builders(models):
    return [
        name
        for name, obj in vars(models).items()
        if inspect.isfunction(obj) and obj.__module__ == models.__name__ and not name.startswith("_")
    ]


def targets():
    """(span name, module, owner path, probe): what the traced run wraps."""
    out = [
        ("linalg.nullspace", "linalg", "nullspace", _nullspace_probe),
        ("linalg.operator_norm", "linalg", "operator_norm", None),
        ("linalg.orthonormal_columns", "linalg", "orthonormal_columns", None),
        ("algebra.relative_commutant", "algebra", "relative_commutant", None),
        ("algebra.Subalgebra.generated", "algebra", "Subalgebra.generated", None),
        ("algebra.wedderburn", "algebra", "wedderburn", None),
        ("basic.BasicConstruction", "basic", "BasicConstruction.__init__", _construction_probe),
        ("basic.m1_wedd", "basic", "BasicConstruction.m1_wedd", None),
        ("basic.pushdown", "basic", "BasicConstruction.pushdown", None),
        ("basic.markov_trace", "basic", "markov_trace", None),
        ("systems.classify", "systems", "classify", _classify_probe),
        ("systems.gram_matrix", "systems", "gram_matrix", None),
        ("systems.construct_system_with_support", "systems", "construct_system_with_support", None),
        ("systems.complete_to_basis", "systems", "complete_to_basis", None),
        ("intermediate.interchange_operator", "intermediate", "interchange_operator", None),
        ("intermediate.is_commuting_square", "intermediate", "is_commuting_square", None),
        ("paths.PathModel.orthogonal_system", "paths", "PathModel.orthogonal_system", None),
        ("regular.regular_pipeline", "regular", "regular_pipeline", None),
        ("regular.coset_system", "regular", "coset_system", None),
        ("regular.patch_bases", "regular", "patch_bases", None),
        ("regular.CrossedProductModel", "regular", "CrossedProductModel.__init__", None),
        ("scenarios.build_model", "scenarios", "build_model", None),
        ("scenarios.run_scenario_dict", "scenarios", "run_scenario_dict", None),
        ("cli.main", "cli", "main", None),
    ]
    models = sys.modules.get("ppbasis.models")
    for name in _model_builders(models) if models else ():
        out.append(("models.build", "models", name, None))
    return out


# per-layer metrics: spans reported by self time and by call count, and the
# maxima the probes record, with their units
SELF_TIMES = (
    "linalg.nullspace", "linalg.operator_norm", "linalg.orthonormal_columns",
    "algebra.relative_commutant", "algebra.Subalgebra.generated", "algebra.wedderburn",
    "basic.BasicConstruction", "basic.m1_wedd", "basic.pushdown", "basic.markov_trace",
    "systems.classify", "systems.gram_matrix", "systems.construct_system_with_support",
    "systems.complete_to_basis", "intermediate.interchange_operator", "intermediate.is_commuting_square",
    "paths.PathModel.orthogonal_system", "regular.regular_pipeline", "regular.coset_system",
    "regular.patch_bases", "regular.CrossedProductModel", "models.build", "scenarios.build_model",
    "scenarios.run_scenario_dict", "cli.main",
)
CALL_COUNTS = (
    "linalg.nullspace", "linalg.operator_norm", "algebra.wedderburn", "basic.BasicConstruction",
    "basic.pushdown", "systems.classify",
)
MAXIMA = {
    "linalg.nullspace.u_bytes_max": "B",
    "basic.BasicConstruction.gns_dim_max": "dim",
    "basic.BasicConstruction.m1_dim_max": "dim",
    "systems.classify.family_size_max": "count",
    "systems.classify.residual_ratio_max": "ratio",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in CALL_COUNTS:
        units[name + ".calls"] = "count"
    for name in SELF_TIMES:
        units[name + ".self_s"] = "s"
    units.update(MAXIMA)
    units["trace.overhead_frac"] = "fraction"
    units["trace.absent"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"
        self.maxima = {}
        self.absent = []
        self.originals = {}
        self._patches = []

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _wrap(self, name, fn, probe):
        tracer = self
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    probe(tracer, args, kwargs, result)
                except Exception as exc:  # a changed signature must not end the run
                    label = "%s probe: %s" % (name, type(exc).__name__)
                    if label not in tracer.absent:
                        tracer.absent.append(label)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import ppbasis  # noqa: F401  (a module must be loaded before it can be patched)

        pkg = [m for n, m in list(sys.modules.items()) if m is not None and (n == "ppbasis" or n.startswith("ppbasis."))]
        for name, module_name, path, probe in targets():
            module = sys.modules.get("ppbasis." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                label = "%s.%s" % (module_name, path)
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if not owner_name:
                wrapped = self._wrap(name, raw, probe)
                self.originals.setdefault(name, raw)
                for mod in pkg:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapped)
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__, probe)))
            elif isinstance(raw, property):
                self._patch(owner, attr, property(self._wrap(name, raw.fget, probe), raw.fset, raw.fdel, raw.__doc__))
            else:
                self._patch(owner, attr, self._wrap(name, raw, probe))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def run_op(self, label, call):
        """One operation as a root span; every span inside carries its id."""
        self.op = label
        return self._wrap("op", call, None)()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, start, end, _, _ in self.spans]

    def layer_metrics(self, plain_s, traced_s):
        """Per-layer numbers for one set-up plus one traced pass.

        Counts and self times are the set-up's plus the median over traced
        passes; maxima are over everything traced.
        """
        self_s = self.self_times()
        phases = {}
        for rec, own in zip(self.spans, self_s):
            phase = rec[5].split("/", 1)[0]
            per = phases.setdefault(phase, {})
            calls, secs = per.get(rec[1], (0, 0.0))
            per[rec[1]] = (calls + 1, secs + own)
        setup = phases.pop("setup", {})

        def total(name, field):
            passes = [per.get(name, (0, 0.0))[field] for per in phases.values()]
            return setup.get(name, (0, 0.0))[field] + (statistics.median(passes) if passes else 0)

        out = {}
        for name in CALL_COUNTS:
            out[name + ".calls"] = total(name, 0)
        for name in SELF_TIMES:
            out[name + ".self_s"] = total(name, 1)
        for name in MAXIMA:
            out[name] = self.maxima.get(name, 0)
        out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        out["trace.absent"] = len(self.absent)
        return out

    def write(self, path, header):
        payload = dict(header, fields=FIELDS, absent=self.absent, spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
