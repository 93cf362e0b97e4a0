import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ppbasis import MultiMatrixAlgebra, Subalgebra, models, scenarios
from ppbasis.errors import ScenarioError
from ppbasis.regular import regular_pipeline
from ppbasis.scenarios import (
    _group_from_spec,
    _parse_matrix,
    _parse_trace,
    _round_tree,
    build_model,
    parse_element,
    run_scenario_dict,
)


def test_parse_matrix_complex_pairs():
    m = _parse_matrix([[[0, 1], 2], [3, [1, -1]]])
    assert m[0, 0] == 1j
    assert m[0, 1] == 2
    assert m[1, 1] == 1 - 1j
    with pytest.raises(ScenarioError):
        _parse_matrix([[1, 2], [3]])  # ragged
    with pytest.raises(ScenarioError):
        _parse_matrix("nope")
    with pytest.raises(ScenarioError):
        _parse_matrix([[{"re": 1}]])


def test_parse_element_block_checks():
    alg = MultiMatrixAlgebra((2, 1), (0.3, 0.4))
    x = parse_element(alg, [[[1, 0], [0, 1]], [[5]]])
    assert abs(x.blocks[1][0, 0] - 5.0) < 1e-14
    with pytest.raises(ScenarioError):
        parse_element(alg, [[[1, 0], [0, 1]]])  # one block missing
    with pytest.raises(ScenarioError):
        parse_element(alg, [[[1]], [[5]]])  # wrong block shape


def test_parse_trace():
    assert _parse_trace(None) == "markov"
    assert _parse_trace("markov") == "markov"
    assert _parse_trace([0.5, 0.25]) == (0.5, 0.25)
    with pytest.raises(ScenarioError):
        _parse_trace("uniform")


def test_group_from_spec():
    g, idx = _group_from_spec("cyclic:3")
    assert len(g) == 3 and idx is None
    g2, _ = _group_from_spec({"cyclic": 2})
    assert len(g2) == 2
    g3, _ = _group_from_spec({"table": [[0, 1], [1, 0]]})
    assert len(g3) == 2
    g4, idx4 = _group_from_spec({"permutations": [[1, 0], [0, 1]]})
    assert len(g4) == 2
    assert idx4 is not None
    with pytest.raises(ScenarioError):
        _group_from_spec("dihedral:3")
    with pytest.raises(ScenarioError):
        _group_from_spec("cyclic:x")
    with pytest.raises(ScenarioError):
        _group_from_spec(7)


def test_round_tree_json_safety():
    out = _round_tree(
        {
            "f": np.float64(1.23456789012345678),
            "i": np.int64(3),
            "b": np.bool_(True),
            "c": 1 + 2j,
            "list": (1.0, None, "s"),
        }
    )
    assert out["i"] == 3 and out["b"] is True
    assert out["c"] == [1.0, 2.0]
    assert out["list"] == [1.0, None, "s"]
    with pytest.raises(ScenarioError):
        _round_tree({"bad": object()})


def test_build_model_rejections():
    with pytest.raises(ScenarioError):
        build_model({"k": 2})  # no kind
    with pytest.raises(ScenarioError):
        build_model({"kind": "mystery"})
    with pytest.raises(ScenarioError) as ei:
        build_model({"kind": "explicit", "dims": [1], "inclusion": [[1]], "trace": [2.0]})
    assert "model construction failed" in str(ei.value)


def test_run_scenario_dict_validation():
    with pytest.raises(ScenarioError):
        run_scenario_dict([])
    with pytest.raises(ScenarioError):
        run_scenario_dict({"model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": []})
    with pytest.raises(ScenarioError):
        run_scenario_dict(
            {"model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": ["markov"]}
        )


S3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [1, 0, 2], [0, 2, 1], [2, 1, 0]]  # the identity first, then A3's 3-cycles
REGULAR = dict.fromkeys(("regular", "coset_system_orthonormal", "support_equals_eP", "patched_basis_two_sided"), True)
TWIST = [[[0.6, 0.8], [-0.8, 0.6]]]

# scenarios of the model kinds and tasks that the selftest corpus does not run, all of them passing
SCENARIOS = {
    "path": {
        "name": "path-check",
        "model": {"kind": "path", "middle_dims": [1, 2], "inclusion": [[1], [1]]},
        "tasks": [{"task": "path_basis", "expect": {"orthogonal": True}}],
    },
    # the support of the identity is e1 (rank 3 in M1); the three shifts fill M1 (rank 9) and form a basis
    "support": {
        "model": {"kind": "diagonal_in_matrix", "k": 3},
        "tasks": [
            {"task": "support", "elements": "identity", "expect": {"support_rank": 3, "e1_rank": 3, "basis": False}},
            {"task": "support", "elements": "candidates", "expect": {"support_rank": 9, "basis": True}},
        ],
    },
    "action-list": {
        "model": {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2",
                  "action": [{"perm": [0, 1]}, {"perm": [1, 0]}]},
        "tasks": [{"task": "regular_pipeline",
                   "expect": dict(REGULAR, beta=2.0, dim_commutant=2, reps=2, basis_size=2)}],
    },
    # Ad diag(1, -1) on M2 is an inner action of Z2: the crossed product is M2 + M2 over M2
    "action-unitaries": {
        "model": {"kind": "crossed_product", "base_dims": [2], "group": "cyclic:2",
                  "action": [{"perm": [0]}, {"perm": [0], "unitaries": [[[1, 0], [0, -1]]]}]},
        "tasks": [{"task": "markov", "expect": {"beta": 2.0}}],
    },
    "twisted": {
        "model": {"kind": "explicit", "dims": [1, 1], "inclusion": [[1], [1]], "unitaries": TWIST},
        "tasks": [{"task": "regular_pipeline", "expect": {"beta": 2.0, "regular": False}}],
    },
    "s3-over-e": {
        "model": {"kind": "group_algebra_pair", "group": {"permutations": S3}, "subgroup": [0]},
        "tasks": [{"task": "regular_pipeline",
                   "expect": dict(REGULAR, beta=6.0, dim_commutant=6, reps=1, basis_size=6)}],
    },
    # C[A3] in C[S3]: the trivial and sign characters both restrict to A3's trivial one, so Lambda is disconnected
    "s3-over-a3": {
        "model": {"kind": "group_algebra_pair", "group": {"permutations": S3}, "subgroup": [0, 1, 2]},
        "tasks": [{"task": "regular_pipeline", "expect": {"error": "NonConnected"}}],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    report, _ = run_scenario_dict(SCENARIOS[name])
    assert report["pass"]


def test_every_model_kind_and_task_is_run_by_a_scenario():
    corpus = list(SCENARIOS.values()) + scenarios.selftest_corpus()
    assert {data["model"]["kind"] for data in corpus} == set(scenarios.MODEL_KINDS)
    assert {task["task"] for data in corpus for task in data["tasks"]} == set(scenarios.TASKS)


# one small model of each kind, and the tasks that refuse it with a ScenarioError; each other task runs
GRID = {
    "explicit": {"kind": "explicit", "dims": [1], "inclusion": [[1, 2]]},
    "diagonal_in_matrix": {"kind": "diagonal_in_matrix", "k": 2},
    "group_algebra_pair": {"kind": "group_algebra_pair", "group": "cyclic:2", "subgroup": [0]},
    "crossed_product": {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2", "action": "cyclic_shift"},
    "quadruple": {"kind": "quadruple", "which": "masa"},
    "path": {"kind": "path", "middle_dims": [1], "inclusion": [[1, 2]]},
}
QUADRUPLE_TASKS = {"interchange", "commuting_square"}
REFUSED = {
    "explicit": QUADRUPLE_TASKS,
    "diagonal_in_matrix": QUADRUPLE_TASKS,
    "group_algebra_pair": QUADRUPLE_TASKS | {"path_basis"},
    "crossed_product": QUADRUPLE_TASKS | {"path_basis"},
    "quadruple": set(scenarios.TASKS) - QUADRUPLE_TASKS,
    "path": QUADRUPLE_TASKS,  # a path model is an explicit inclusion, so every pair task runs on it
}


def test_every_task_on_every_model_kind_runs_or_is_refused():
    assert set(GRID) == set(scenarios.MODEL_KINDS)
    refused = {kind: set() for kind in GRID}
    for kind, model in GRID.items():
        for task in scenarios.TASKS:
            try:
                report, _ = run_scenario_dict({"model": model, "tasks": [{"task": task}]})
            except ScenarioError:
                refused[kind].add(task)
                continue
            assert report["pass"] and len(report["results"]) == 1, (kind, task)
    assert refused == REFUSED


def test_the_order_of_tasks_does_not_change_a_report():
    # N = C[Z2] in C[S3] is spanned, not embedded, so the scenario's seed picks its decomposition;
    # it is made once, when the model is built, and not by whichever task runs first
    perms = [list(p) for p in itertools.permutations(range(3))]
    model = {"kind": "group_algebra_pair", "group": {"permutations": perms}, "subgroup": [0, 1]}
    tasks = [{"task": "classify_system", "elements": "candidates"}, {"task": "regular_pipeline"}]
    forward = run_scenario_dict({"seed": 3, "model": model, "tasks": tasks})[0]["results"]
    backward = run_scenario_dict({"seed": 3, "model": model, "tasks": tasks[::-1]})[0]["results"]
    assert forward == backward[::-1]
    group, index = _group_from_spec(model["group"])
    pair = models.group_algebra_pair(group, [index[0], index[1]], seed=3)
    want = regular_pipeline(pair.sub, pair.candidates, seed=3).numbers["support_eP_residual"]
    assert forward[1]["numbers"]["support_eP_residual"] == scenarios.round12(want)
    assert forward[1]["numbers"]["support_eP_residual"] == pytest.approx(2.07021748024e-15, rel=1e-6)
    assert forward[0]["numbers"]["right_diag_projection"] == pytest.approx(1.05325004057e-15, rel=1e-6)


def _pipeline_entry(model):
    return run_scenario_dict({"model": model, "tasks": [{"task": "regular_pipeline"}]})[0]["results"][0]


def test_action_given_as_a_list_matches_the_cyclic_shift():
    shift = dict(SCENARIOS["action-list"]["model"], action="cyclic_shift")
    assert _pipeline_entry(SCENARIOS["action-list"]["model"]) == _pipeline_entry(shift)


def test_twisted_explicit_model_reads_as_the_untwisted_one():
    twisted = _pipeline_entry(SCENARIOS["twisted"]["model"])
    plain = _pipeline_entry(dict(SCENARIOS["twisted"]["model"], unitaries=None))
    assert twisted["flags"] == plain["flags"] and twisted["issues"] == plain["issues"] == ["NotRegular"]
    assert abs(twisted["numbers"].pop("beta") - plain["numbers"].pop("beta")) <= 1e-12
    ints = {k: v for k, v in plain["numbers"].items() if isinstance(v, int)}
    assert ints and ints == {k: v for k, v in twisted["numbers"].items() if isinstance(v, int)}


def test_path_task_on_an_explicit_model_embeds_the_middle_algebra_once(monkeypatch):
    # the path model is a view of the pair's embedding, not a second build of the same inclusion
    calls, embedded = [], Subalgebra.embedded.__func__
    spy = classmethod(lambda cls, *args: calls.append(args) or embedded(cls, *args))
    monkeypatch.setattr(Subalgebra, "embedded", spy)
    report, _ = run_scenario_dict({"model": {"kind": "explicit", "dims": [1], "inclusion": [[1, 2]]},
                                   "tasks": [{"task": "path_basis", "expect": {"orthogonal": True}}]})
    assert report["pass"] and len(calls) == 1


def test_path_task_through_scenario():
    report, lines = run_scenario_dict(SCENARIOS["path"])
    assert report["pass"]
    entry = report["results"][0]
    assert entry["numbers"]["expectation_residual"] < 1e-9
    assert entry["numbers"]["j_projection_residual"] < 1e-9


def test_cyclic_shift_scenario_builds_the_crossed_product_diag():
    # the generic crossed-product path gets the base, group and automorphisms
    # (Automorphism.cyclic_shifts) of models.crossed_product_diag, so the two
    # build the same inclusion
    for k in (2, 3):
        spec = {"kind": "crossed_product", "base_dims": [1] * k, "group": "cyclic:%d" % k, "action": "cyclic_shift"}
        got, want = build_model(spec), models.crossed_product_diag(k)
        assert got.ambient.dims == want.ambient.dims == (k,)
        assert np.array_equal(got.ambient.trace_vector, want.ambient.trace_vector)
        assert np.abs(got.sub.projection_matrix() - want.sub.projection_matrix()).max() <= 1e-12
        for u, v in zip(got.candidates, want.candidates):
            assert u.allclose(v, tol=1e-12)


def test_inclusion_data_of_an_embedding_is_its_inclusion():
    # an embedded N keeps its units, so the inclusion matrix read off them (``wd.lam``, which the
    # markov task reads) is the embedding's
    for dims, lam in (((1,), [[1, 2]]), ((1, 2), [[1, 1], [1, 0]]), ((2, 1), [[1], [2]])):
        model = build_model({"kind": "explicit", "dims": list(dims), "inclusion": lam})
        emb, wd = model.embedding, model.sub.wedderburn_data()
        assert np.array_equal(wd.lam, emb.inclusion) and wd.block_dims == emb.source.dims


def test_quadruple_interchange_through_scenario():
    report, _ = run_scenario_dict(
        {
            "name": "masa-check",
            "model": {"kind": "quadruple", "which": "masa"},
            "tasks": [
                {"task": "interchange", "expect": {"projection": True}},
                {"task": "commuting_square", "expect": {"commuting": True}},
            ],
        }
    )
    assert report["pass"]


def test_unexpected_algebra_error_marks_task_failed():
    report, lines = run_scenario_dict(
        {
            "name": "construct-fails",
            "model": {"kind": "diagonal_in_matrix", "k": 2},
            "tasks": [
                {
                    "task": "construct_with_support",
                    "f": {"m1_central": 0},
                    "mode": "orthonormal-padded",
                }
            ],
        }
    )
    # the error is recorded but nothing expected it
    assert not report["pass"]
    entry = report["results"][0]
    assert entry["error"] == "InfeasibleSupport"
    assert entry["pass"] is False


def test_selftest_corpus_shape():
    corpus = scenarios.selftest_corpus()
    assert len(corpus) == 8
    names = [c["name"] for c in corpus]
    assert len(set(names)) == 8
    for c in corpus:
        assert c["tasks"], c["name"]


GOLDEN = Path(__file__).parent / "data" / "selftest_golden.json"


def _assert_matches(got, want, where="report"):
    """Keys, flags, strings and ints exactly; floats within 1e-9 absolute."""
    assert type(got) is type(want), "%s: %r vs %r" % (where, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], "%s.%s" % (where, key))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, "%s[%d]" % (where, i))
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-9, "%s: %r vs %r" % (where, got, want)
    else:
        assert got == want, "%s: %r vs %r" % (where, got, want)


def test_selftest_matches_golden_report():
    # residuals near 1e-16 may move with BLAS rounding; everything else is frozen
    report, _ = scenarios.run_selftest()
    _assert_matches(report, json.loads(GOLDEN.read_text()))


def test_failed_factorization_is_recorded_and_the_run_goes_on(monkeypatch):
    # every factorization (SVD, eigh, eigvalsh) fails inside the first task only: that
    # task records FactorizationFailed and the second task still runs
    real = {name: getattr(np.linalg, name) for name in ("svd", "eigh", "eigvalsh")}
    pipeline = scenarios.TASKS["regular_pipeline"]

    def no_factorization(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def failing_pipeline(*args):
        for name in real:
            monkeypatch.setattr(np.linalg, name, no_factorization)
        try:
            return pipeline(*args)
        finally:
            for name, f in real.items():
                monkeypatch.setattr(np.linalg, name, f)

    monkeypatch.setitem(scenarios.TASKS, "regular_pipeline", failing_pipeline)
    report, lines = run_scenario_dict(
        {
            "model": {"kind": "diagonal_in_matrix", "k": 2},
            "tasks": [{"task": "regular_pipeline"}, {"task": "markov", "expect": {"beta": 2.0}}],
        }
    )
    first, second = report["results"]
    assert first["error"] == "FactorizationFailed" and first["message"] == "did not converge"
    assert not first["pass"]
    assert second["pass"] and second["numbers"]["beta"] == 2.0
    assert "  error: FactorizationFailed: did not converge" in lines
