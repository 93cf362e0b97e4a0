import json

import pytest

from ppbasis import cli, scenarios


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

    monkeypatch.setattr(scenarios, "markov_trace", fail)
    code, out, err = run_cli(capsys, "run", write_scenario(tmp_path, DIAG_SCENARIO))
    assert code == 2
    assert out == ""
    assert err == "error: SVD did not converge\n"
