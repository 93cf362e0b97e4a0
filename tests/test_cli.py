import json

import pytest

from ppbasis import basic, cli, scenarios


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


DIAG_SCENARIO = {
    "name": "diag-check",
    "seed": 0,
    "eps": 1e-8,
    "model": {"kind": "diagonal_in_matrix", "k": 2},
    "tasks": [
        {"task": "markov", "expect": {"beta": 2.0}},
        {"task": "regular_pipeline", "expect": {"regular": True, "product": 4}},
    ],
}


def write_scenario(tmp_path, data, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: pass" in out
    assert err == ""


def test_selftest_json_is_deterministic(tmp_path, capsys):
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    assert cli.main(["selftest", "--json", str(j1)]) == 0
    capsys.readouterr()
    assert cli.main(["selftest", "--json", str(j2)]) == 0
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()
    payload = json.loads(j1.read_text())
    assert payload["pass"] is True
    assert len(payload["scenarios"]) == 8


def test_run_scenario_success(tmp_path, capsys):
    path = write_scenario(tmp_path, DIAG_SCENARIO)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 0
    assert "task markov: pass" in out
    assert "task regular_pipeline: pass" in out
    assert "result: pass" in out
    assert "beta = 2" in out


def test_run_scenario_reruns_identically(tmp_path, capsys):
    path = write_scenario(tmp_path, DIAG_SCENARIO)
    j1 = tmp_path / "r1.json"
    j2 = tmp_path / "r2.json"
    code1, out1, _ = run_cli(capsys, "run", path, "--json", str(j1))
    code2, out2, _ = run_cli(capsys, "run", path, "--json", str(j2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert j1.read_bytes() == j2.read_bytes()


def test_run_failing_expectation_exits_one(tmp_path, capsys):
    bad = dict(DIAG_SCENARIO)
    bad["tasks"] = [{"task": "markov", "expect": {"beta": 3.0}}]
    path = write_scenario(tmp_path, bad)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "task markov: FAIL" in out
    assert "mismatch:" in out
    assert "result: FAIL" in out


def test_run_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "run", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in err


def test_run_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",\n  "tasks": [}\n')
    code, out, err = run_cli(capsys, "run", str(p))
    assert code == 2
    assert "parse error" in err
    assert "line 2" in err
    assert "column" in err


def test_run_non_unital_model_exits_two(tmp_path, capsys):
    # ambient dims that contradict the inclusion matrix
    bad = {
        "name": "bad-dims",
        "model": {
            "kind": "explicit",
            "dims": [1, 1],
            "inclusion": [[1], [1]],
            "ambient_dims": [3],
        },
        "tasks": [{"task": "markov"}],
    }
    path = write_scenario(tmp_path, bad)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "inclusion^T" in err


def test_run_unknown_task_exits_two(tmp_path, capsys):
    bad = dict(DIAG_SCENARIO)
    bad["tasks"] = [{"task": "frobnicate"}]
    path = write_scenario(tmp_path, bad)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert "unknown task" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_run_rejects_non_finite_json(tmp_path, capsys, bad):
    scn = {
        "name": "non-finite-trace",
        "model": {"kind": "explicit", "dims": [1], "inclusion": [[1, 1]], "trace": [bad, 0.5]},
        "tasks": [{"task": "markov"}, {"task": "regular_pipeline"}],
    }
    path = write_scenario(tmp_path, scn)  # json.dumps writes NaN / Infinity literals
    code, out, err = run_cli(capsys, "run", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: non-finite number") and err.count("\n") == 1


def test_run_expected_error_passes(tmp_path, capsys):
    scn = {
        "name": "expected-failure",
        "model": {"kind": "diagonal_in_matrix", "k": 2},
        "tasks": [
            {
                "task": "construct_with_support",
                "f": {"m1_central": 0},
                "mode": "orthonormal-padded",
                "expect": {"error": "InfeasibleSupport"},
            }
        ],
    }
    path = write_scenario(tmp_path, scn)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 0
    assert "error: InfeasibleSupport" in out


def test_seed_and_eps_overrides(tmp_path, capsys):
    path = write_scenario(tmp_path, DIAG_SCENARIO)
    j = tmp_path / "o.json"
    code, out, _ = run_cli(capsys, "run", path, "--seed", "7", "--eps", "1e-6", "--json", str(j))
    assert code == 0
    payload = json.loads(j.read_text())
    assert payload["seed"] == 7
    assert payload["eps"] == pytest.approx(1e-6)


def test_generate_run_round_trip(tmp_path, capsys):
    code, out, err = run_cli(capsys, "generate", "diagonal_in_matrix", "--k", "3")
    assert code == 0
    spec = json.loads(out)
    assert spec["model"] == {"kind": "diagonal_in_matrix", "k": 3}
    path = tmp_path / "gen.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "run", str(path))
    assert code2 == 0
    assert "result: pass" in out2


def test_generate_other_kinds(tmp_path, capsys):
    for argv in (
        ["generate", "group_algebra_pair", "--group", "cyclic:2", "--subgroup", "0"],
        ["generate", "crossed_product", "--base-dims", "1,1", "--group", "cyclic:2", "--action", "cyclic_shift"],
        ["generate", "quadruple", "--which", "masa"],
        ["generate", "quadruple", "--which", "degenerate"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, argv
        spec = json.loads(out)
        path = tmp_path / "g.json"
        path.write_text(out)
        code2, out2, _ = run_cli(capsys, "run", str(path))
        assert code2 == 0, (argv, out2)
        assert "result: pass" in out2


def test_generate_validates_parameters(capsys):
    code, out, err = run_cli(capsys, "generate", "group_algebra_pair", "--group", "cyclic:4", "--subgroup", "0,1")
    assert code == 2
    assert "error:" in err
    code2, _, err2 = run_cli(capsys, "generate", "group_algebra_pair", "--subgroup", "x")
    assert code2 == 2
    assert "integer" in err2


def test_report_values_match_printed_lines(tmp_path, capsys):
    # the JSON report and the printed text agree on the rounded numbers
    path = write_scenario(tmp_path, DIAG_SCENARIO)
    j = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "run", path, "--json", str(j))
    assert code == 0
    payload = json.loads(j.read_text())
    markov_entry = payload["results"][0]
    assert markov_entry["numbers"]["beta"] == 2.0
    pipeline_entry = payload["results"][1]
    assert pipeline_entry["numbers"]["product"] == 4
    assert pipeline_entry["flags"]["regular"] is True


def test_scenarios_module_round12():
    assert scenarios.round12(2.0000000000001) == 2.0
    assert scenarios.round12(1.0 / 3.0) == float("%.12g" % (1.0 / 3.0))


def test_run_records_overflowing_elements_as_invalid_input(tmp_path, capsys):
    # finite JSON numbers whose products overflow to inf
    scn = {
        "model": {"kind": "diagonal_in_matrix", "k": 2},
        "tasks": [{"task": "classify_system", "elements": [[[[1e200, 0], [0, 1e200]]]]}],
    }
    report = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, scn), "--json", str(report))
    assert code == 1
    assert "Traceback" not in out + err
    assert err == ""
    (entry,) = json.loads(report.read_text())["results"]
    assert entry["error"] == "InvalidInput"
    assert "non-finite" in entry["message"]


def test_leftover_linalg_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    import numpy as np

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(basic, "markov_trace", fail)
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, DIAG_SCENARIO))
    assert code == 2
    assert out == ""
    assert err == "error: SVD did not converge\n"


def test_failed_factorization_in_the_model_exits_2(tmp_path, capsys, monkeypatch):
    import numpy as np

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the diagonal model's build takes no SVD; its Markov trace takes an eigh
    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, DIAG_SCENARIO))
    assert code == 2
    assert out == ""
    assert err == "error: model construction failed: FactorizationFailed: Eigenvalues did not converge\n"


MALFORMED = {
    "model-k": {"model": {"kind": "diagonal_in_matrix", "k": "abc"}, "tasks": [{"task": "markov"}]},
    "seed": {"seed": "abc", "model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov"}]},
    "eps": {"eps": "abc", "model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov"}]},
    # a tolerance that no residual can exceed (or none can meet) is not a tolerance; beta is 2 here
    "eps-nan": {
        "eps": "nan",
        "model": {"kind": "diagonal_in_matrix", "k": 2},
        "tasks": [{"task": "markov", "expect": {"beta": 7.0}}],
    },
    "eps-inf": {"eps": "inf", "model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov"}]},
    "eps-negative": {"eps": -1, "model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov"}]},
    "eps-zero": {"eps": 0, "model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov"}]},
    # only a JSON number is a tolerance: true once read as 1.0, under which the identity alone passed as a basis
    "eps-bool": {
        "eps": True,
        "model": {"kind": "diagonal_in_matrix", "k": 3},
        "tasks": [{"task": "classify_system", "elements": "identity"}],
    },
    "eps-string": {
        "eps": "0.5",
        "model": {"kind": "diagonal_in_matrix", "k": 3},
        "tasks": [{"task": "classify_system", "elements": "identity"}],
    },
    "cyclic-group": {
        "model": {"kind": "group_algebra_pair", "group": {"cyclic": "z"}, "subgroup": [0]},
        "tasks": [{"task": "markov"}],
    },
    "m1-central": {
        "model": {"kind": "diagonal_in_matrix", "k": 2},
        "tasks": [{"task": "construct_with_support", "f": {"m1_central": "q"}}],
    },
    "ambient-dims-shape": {
        "model": {"kind": "explicit", "dims": [1, 1], "inclusion": [[1]], "ambient_dims": [1]},
        "tasks": [{"task": "markov"}],
    },
    "expect-not-object": {"model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov", "expect": 5}]},
    "action-entry": {
        "model": {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2", "action": [5, 6]},
        "tasks": [{"task": "markov"}],
    },
    # a raw IndexError and exit 1 once
    "subgroup-index": {
        "model": {"kind": "group_algebra_pair", "group": {"permutations": [[0, 1], [1, 0]]}, "subgroup": [0, 5]},
        "tasks": [{"task": "markov"}],
    },
    # two numpy cast warnings, then a message about block dims, once
    "inclusion-huge": {"model": {"kind": "explicit", "dims": [1], "inclusion": [[1e300]]}, "tasks": [{"task": "markov"}]},
    "inclusion-huge-ambient-dims": {
        "model": {"kind": "explicit", "dims": [1], "inclusion": [[1e300]], "ambient_dims": [1]},
        "tasks": [{"task": "markov"}],
    },
    # a raw OverflowError once: a bool array was compared with 2**63
    "inclusion-bool": {
        "model": {"kind": "explicit", "dims": [1], "inclusion": [[True, True]]},
        "tasks": [{"task": "markov"}],
    },
    "perm-bool": {
        "model": {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2",
                  "action": [{"perm": [False, True]}, {"perm": [True, False]}]},
        "tasks": [{"task": "markov"}],
    },
    # a JSON true once read as the number 1, and each run passed
    "trace-bool": {
        "model": {"kind": "explicit", "dims": [1], "inclusion": [[1]], "trace": [True]},
        "tasks": [{"task": "markov"}],
    },
    "candidate-bool": {
        "model": {"kind": "explicit", "dims": [1], "inclusion": [[1]], "trace": [1.0], "candidates": [[[[True]]]]},
        "tasks": [{"task": "markov"}],
    },
    "base-trace-bool": {
        "model": {"kind": "crossed_product", "base_dims": [1], "group": "cyclic:2", "base_trace": [True]},
        "tasks": [{"task": "markov"}],
    },
}


def _markov(model, **fields):
    return dict(fields, model=model, tasks=[{"task": "markov"}])


# integer fields take JSON integers only.  Each case below was once coerced and ran
# to exit 0 (2.9 -> 2, true -> 1, "12" -> (1, 2), "02" -> [0, 2], 1.7 -> 1, a true
# among the integers of an inclusion, a perm or a group table -> 1), except
# the negative seed, which exited 2 as a malformed field of the model spec once a
# decomposition drew from it; each error names its field
INTEGER_FIELDS = {
    "int-seed-float": ("seed", _markov({"kind": "diagonal_in_matrix", "k": 2}, seed=1.7)),
    "int-seed-negative": ("seed", _markov({"kind": "group_algebra_pair", "group": "cyclic:2", "subgroup": [0]}, seed=-1)),
    "int-k-float": ("k", _markov({"kind": "diagonal_in_matrix", "k": 2.9})),
    "int-k-bool": ("k", _markov({"kind": "diagonal_in_matrix", "k": True})),
    "int-dims-string": ("dims", _markov({"kind": "explicit", "dims": "12", "inclusion": [[1], [1]]})),
    "int-ambient-dims-float": (
        "ambient_dims",
        _markov({"kind": "explicit", "dims": [1, 2], "inclusion": [[1], [1]], "ambient_dims": [3.5]}),
    ),
    "int-subgroup-string": (
        "subgroup",
        {
            "model": {"kind": "group_algebra_pair", "group": "cyclic:4", "subgroup": "02"},
            "tasks": [{"task": "markov", "expect": {"error": "NonConnected"}}],
        },
    ),
    "int-base-dims-bool": (
        "base_dims",
        _markov({"kind": "crossed_product", "base_dims": [True, True], "group": "cyclic:2", "action": "cyclic_shift"}),
    ),
    "int-middle-dims-float": (
        "middle_dims",
        {
            "model": {"kind": "path", "middle_dims": [1, 2.5], "inclusion": [[1], [1]]},
            "tasks": [{"task": "path_basis"}],
        },
    ),
    "int-m1-central-float": (
        "m1_central",
        {
            "model": {"kind": "diagonal_in_matrix", "k": 2},
            "tasks": [{"task": "construct_with_support", "f": {"m1_central": 0.7}}],
        },
    ),
    "int-cyclic-float": ("cyclic", _markov({"kind": "group_algebra_pair", "group": {"cyclic": 2.5}, "subgroup": [0]})),
    "int-permutation-bool": (
        "permutations",
        _markov({"kind": "group_algebra_pair", "group": {"permutations": [[0, 1], [True, False]]}, "subgroup": [0]}),
    ),
    "inclusion-mixed-bool": ("inclusion", _markov({"kind": "explicit", "dims": [1], "inclusion": [[True, 2]]})),
    "perm-mixed-bool": (
        "perm",
        _markov({"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2",
                 "action": [{"perm": [0, 1]}, {"perm": [True, 0]}]}),
    ),
    "table-mixed-bool": (
        "table",
        _markov({"kind": "group_algebra_pair", "group": {"table": [[0, True], [True, 0]]}, "subgroup": [0]}),
    ),
}
MALFORMED.update((case, spec) for case, (_, spec) in INTEGER_FIELDS.items())


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_with_one_line(tmp_path, capsys, case):
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, MALFORMED[case]))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if case in INTEGER_FIELDS:
        assert err.startswith("error: %s must be a nonnegative integer, got " % INTEGER_FIELDS[case][0])


D2 = {"kind": "diagonal_in_matrix", "k": 2}

# each refusal of the runner names what it refused, on one line
SCENARIO_ERRORS = {
    "missing-k": ({"kind": "diagonal_in_matrix"}, {"task": "markov"}, "model spec is missing field 'k'"),
    "dims-not-a-list": (
        {"kind": "explicit", "dims": 3, "inclusion": [[1]]},
        {"task": "markov"},
        "model spec has a malformed field: 'int' object is not iterable",
    ),
    "cyclic-shift-order": (
        {"kind": "crossed_product", "base_dims": [1, 1, 1], "group": "cyclic:2", "action": "cyclic_shift"},
        {"task": "markov"},
        "cyclic_shift needs |G| equal to the number of blocks",
    ),
    "action-length": (
        {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2", "action": [{"perm": [0, 1]}]},
        {"task": "markov"},
        "need one automorphism per group element",
    ),
    "action-unknown": (
        {"kind": "crossed_product", "base_dims": [1, 1], "group": "cyclic:2", "action": "flip"},
        {"task": "markov"},
        "unknown action spec 'flip'",
    ),
    "quadruple-unknown": (
        {"kind": "quadruple", "which": "tilted"}, {"task": "interchange"}, "unknown quadruple 'tilted'"
    ),
    "elements-unknown": (
        D2, {"task": "classify_system", "elements": "everything"}, "unknown element source 'everything'"
    ),
    "support-unknown": (D2, {"task": "construct_with_support", "f": "two"}, "unknown support spec 'two'"),
    "m1-central-range": (
        D2, {"task": "construct_with_support", "f": {"m1_central": 5}}, "m1_central index 5 out of range"
    ),
    "no-candidates": (
        {"kind": "explicit", "dims": [1], "inclusion": [[1, 2]]},
        {"task": "classify_system", "elements": "candidates"},
        "model has no candidates",
    ),
    "path-twisted": (
        {"kind": "explicit", "dims": [1, 1], "inclusion": [[1], [1]], "unitaries": [[[0.6, 0.8], [-0.8, 0.6]]]},
        {"task": "path_basis"},
        "path tasks need an untwisted explicit inclusion",
    ),
    "pair-task-on-a-quadruple": (
        {"kind": "quadruple"}, {"task": "markov"}, "task needs an inclusion model, not a quadruple"
    ),
    "quadruple-task-on-a-pair": (D2, {"task": "interchange"}, "task needs a quadruple model, not an inclusion"),
    "path-group-algebra": (
        {"kind": "group_algebra_pair", "group": "cyclic:2", "subgroup": [0]},
        {"task": "path_basis"},
        "path tasks need an untwisted explicit inclusion",
    ),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_ERRORS))
def test_scenario_error_exits_2_with_its_message(tmp_path, capsys, case):
    model, task, message = SCENARIO_ERRORS[case]
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, {"model": model, "tasks": [task]}))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


# an expectation is compared by its type: a flag's must be a JSON boolean and a number's a number;
# on diag-in-M2 each of these once passed by truthiness (its shifts form a two-sided basis, beta = 2)
EXPECTATIONS = {
    "flag-string": ("classify_system", {"basis": "false"}, "basis has non-boolean expectation 'false'"),
    "flag-number": ("classify_system", {"basis": 0.5}, "basis has non-boolean expectation 0.5"),
    "number-bool": ("markov", {"beta": True}, "beta has non-numeric expectation True"),
    "pipeline-flag-string": ("regular_pipeline", {"regular": "no"}, "regular has non-boolean expectation 'no'"),
    # an expectation of the right type that the result does not meet
    "flag-unmet": ("regular_pipeline", {"regular": False}, "regular = True, expected False"),
    "no-such-value": ("markov", {"gamma": 1.0}, "no value named gamma in the result"),
    "error-not-raised": ("markov", {"error": "NonConnected"}, "expected error NonConnected was not raised"),
}


@pytest.mark.parametrize("case", sorted(EXPECTATIONS))
def test_expectation_of_the_wrong_type_is_a_mismatch(tmp_path, capsys, case):
    task, expect, message = EXPECTATIONS[case]
    spec = {"model": {"kind": "diagonal_in_matrix", "k": 2},
            "tasks": [{"task": task, "elements": "candidates", "expect": expect}]}
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, spec))
    assert (code, err) == (1, "")
    assert "  mismatch: %s\n" % message in out and out.endswith("result: FAIL\n")


def test_list_valued_result_against_a_number_is_a_mismatch(tmp_path, capsys):
    spec = {"model": {"kind": "diagonal_in_matrix", "k": 2}, "tasks": [{"task": "markov", "expect": {"trace_sub": 1.0}}]}
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, spec))
    assert code == 1
    assert err == ""
    assert "mismatch: trace_sub is not a number, expected 1.0" in out
    assert "result: FAIL" in out


def test_infinite_eps_override_exits_2(tmp_path, capsys):
    # the override goes through the scenario's own eps check
    spec = {
        "model": {"kind": "diagonal_in_matrix", "k": 2},
        "tasks": [{"task": "classify_system", "elements": [[[[2, 0], [0, 0]]]], "side": "right", "expect": {"size": 5}}],
    }
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, spec), "--eps", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eps_override_replaces_a_malformed_eps(tmp_path, capsys):
    # --eps is parsed as a float, so it passes the number check that the file's "0.5" fails
    spec = dict(MALFORMED["eps-string"], tasks=[{"task": "markov", "expect": {"beta": 3.0}}])
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, spec), "--eps", "1e-8")
    assert (code, err) == (0, "")
    assert out.endswith("result: pass\n")


def test_main_twice_in_one_process_gives_identical_output(capsys):
    # the parser is built once per process; parsing other arguments in between leaves it unchanged
    runs = [run_cli(capsys, *argv) for argv in (("generate", "diagonal_in_matrix", "--k", "3"),
                                                 ("generate", "quadruple"),
                                                 ("generate", "diagonal_in_matrix", "--k", "3"))]
    assert runs[0] == runs[2] and runs[0][0] == 0
    assert runs[1] != runs[0]


def test_seed_override_on_non_object_scenario_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, [1, 2]), "--seed", "3")
    assert code == 2
    assert err == "error: scenario must be a JSON object\n"
