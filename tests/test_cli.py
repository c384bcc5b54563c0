import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

from qutrit_ch.cli import main, render_json
from qutrit_ch.engine import experiment_probabilities
from qutrit_ch.inequality import ch_coefficients
from qutrit_ch.optimizer import optimize
from qutrit_ch.presets import REFERENCE_NOISE_THRESHOLD, reference_settings
from qutrit_ch.simplex import SimplexFailure


@pytest.fixture
def preset_file(tmp_path, capsys):
    assert main(["paper-preset"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "settings.json"
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_round_trips_floats_exactly():
    tricky = [1.0 / 3.0, np.sqrt(2.0) - 1.0, 5e-324, 0.1, 1.0, -2.0 / 3.0, 0.0]
    text = render_json({"values": tricky, "nested": [{"x": tricky[1]}]})
    parsed = json.loads(text)
    assert parsed["values"] == tricky
    assert parsed["nested"][0]["x"] == tricky[1]


def test_render_json_handles_arrays_and_scalars():
    doc = json.loads(render_json({"a": np.arange(3), "b": np.float64(0.5), "c": None, "d": True}))
    assert doc == {"a": [0, 1, 2], "b": 0.5, "c": None, "d": True}


def test_preset_is_a_loadable_settings_file(preset_file):
    doc = json.loads(open(preset_file).read())
    assert set(doc) == {"alice", "bob", "relabel"}
    ref = reference_settings()
    assert np.array_equal(np.array(doc["alice"]), ref.alice)
    assert np.array_equal(np.array(doc["bob"]), ref.bob)
    assert tuple(tuple(doc["relabel"][k]) for k in ("a1", "a2", "b1", "b2")) == ref.relabel


def test_threshold_command_reports_the_closed_form(preset_file, capsys):
    for method, tol in (("analytic", 1e-12), ("lp", 1e-6)):
        code, out, _ = run(capsys, ["threshold", "--settings", preset_file, "--method", method])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "threshold"
        assert doc["input_digest"].startswith("sha256:")
        assert abs(doc["results"]["threshold"] - REFERENCE_NOISE_THRESHOLD) < tol
        assert doc["wall_time_seconds"] >= 0.0


def test_lp_threshold_reports_the_class_witness_start(preset_file, capsys):
    code, out, _ = run(capsys, ["threshold", "--settings", preset_file, "--method", "lp"])
    assert code == 0
    results = json.loads(out)["results"]
    # the preset is its CGLMP class's witness box, so that basis is optimal
    assert results["start"] == "accepted"
    assert results["solver"] == "simplex"
    assert results["iterations"] == 0


def test_ch_command_on_fully_mixed_state(preset_file, capsys):
    code, out, _ = run(capsys, ["ch", "--settings", preset_file, "--noise", "1.0"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["lhs"] + 2.0 / 3.0) < 1e-12


def test_probs_output_matches_the_library_bitwise(preset_file, capsys):
    code, out, _ = run(capsys, ["probs", "--settings", preset_file, "--noise", "0.25"])
    assert code == 0
    doc = json.loads(out)
    exp = experiment_probabilities(reference_settings(), 0.25)
    assert np.array_equal(np.array(doc["results"]["tables"]), exp.tables)
    assert np.array_equal(np.array(doc["results"]["alice_singles"]), exp.alice_singles)
    assert np.array_equal(np.array(doc["results"]["bob_singles"]), exp.bob_singles)


def test_rerunning_a_command_gives_identical_numeric_results(preset_file, capsys):
    _, first, _ = run(capsys, ["ch", "--settings", preset_file, "--noise", "0.125"])
    _, second, _ = run(capsys, ["ch", "--settings", preset_file, "--noise", "0.125"])
    assert json.loads(first)["results"] == json.loads(second)["results"]


def test_coeffs_json_and_csv_agree(capsys):
    code, out, _ = run(capsys, ["coeffs"])
    assert code == 0
    values = json.loads(out)["results"]["coefficients"]
    assert values == [int(v) for v in ch_coefficients()]
    code, out, _ = run(capsys, ["coeffs", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,b1,b2,coefficient"
    assert len(lines) == 82
    assert lines[1] == "1,1,1,1,-1"
    parsed = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert parsed == values


def test_verify_command_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify-appendix"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_pass"] is True
    assert len(doc["results"]["checks"]) >= 5
    assert all(check["pass"] for check in doc["results"]["checks"])


def test_verify_command_exit_code_on_failure(capsys, monkeypatch):
    monkeypatch.setattr("qutrit_ch.inequality.ch_coefficients", lambda: np.zeros(81))
    code, out, _ = run(capsys, ["verify-appendix"])
    assert code == 3
    doc = json.loads(out)
    assert doc["results"]["all_pass"] is False


def test_optimize_command_reports_a_result(capsys):
    code, out, _ = run(
        capsys, ["optimize", "--restarts", "1", "--seed", "7", "--method", "analytic"]
    )
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["best_threshold"] >= REFERENCE_NOISE_THRESHOLD - 1e-12
    assert results["evaluations"] > 0
    assert results["lp_evaluations"] == results["lp_pivots"] == 0
    assert results["screened_trials"] == 0
    assert results["gradient_norm"] is None
    assert len(results["best_settings"]["alice"]) == 2
    assert set(doc["tolerances"]) == {"sweep_ulps"}


def test_optimize_command_reports_the_lp_search_and_its_gradient(capsys):
    code, out, _ = run(
        capsys, ["optimize", "--method", "lp", "--restarts", "1", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert abs(results["best_threshold"] - REFERENCE_NOISE_THRESHOLD) < 1e-12
    assert 0 < results["lp_evaluations"] <= results["evaluations"]
    search = optimize(1, 2, "lp")
    assert results["lp_pivots"] == search.lp_pivots > 0
    assert results["screened_trials"] == search.screened_trials == 3
    # this restart stops on the gradient test, not on a failed line search
    assert 0.0 <= results["gradient_norm"] <= doc["tolerances"]["gradient"]
    assert set(doc["tolerances"]) == {"gradient", "step"}


def test_usage_errors_exit_one(capsys):
    assert main(["threshold", "--settings"]) == 1
    assert main(["threshold", "--method", "lp"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["threshold", "--settings", "x.json", "--method", "bogus"]) == 1
    capsys.readouterr()
    for argv, needle in (
        (["optimize", "--restarts", "0", "--seed", "1"], "--restarts must be at least 1, got 0"),
        (["optimize", "--restarts", "1", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert needle in err


def test_malformed_settings_files_name_the_field(tmp_path, capsys):
    cases = [
        ("not json at all", "invalid JSON"),
        ("[[0,0,0],[0,0,0]]", "top level must be an object"),
        (
            '{"alice": [[0,0,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]], "relabel": [[1,2,3]]}',
            "field 'relabel' must be an object",
        ),
        (
            # Python's json reads the NaN literal as a float
            '{"alice": [[0,NaN,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]]}',
            "phases must be finite",
        ),
        (
            # a JSON integer beyond the float range, which float() overflows on
            '{"alice": [[0,1' + "0" * 400 + ',0],[0,0,0]], "bob": [[0,0,0],[0,0,0]]}',
            "phases must be finite",
        ),
        ('{"bob": [[0,0,0],[0,0,0]]}', "'alice'"),
        ('{"alice": [[0,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]]}', "'alice'"),
        (
            '{"alice": [[0,0,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]],'
            ' "relabel": {"a1": [1,2,2], "a2": [1,2,3], "b1": [1,2,3], "b2": [1,2,3]}}',
            "'relabel.a1'",
        ),
        (
            # sorted([True, 2, 3]) == [1, 2, 3], yet a boolean is no index
            '{"alice": [[0,0,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]],'
            ' "relabel": {"a1": [1,2,3], "a2": [1,2,3], "b1": [true,2,3], "b2": [1,2,3]}}',
            "'relabel.b1' is not a permutation of [1, 2, 3]",
        ),
        (
            '{"alice": [[0,0,0],[0,0,0]], "bob": [[0,0,0],[0,0,0]],'
            ' "relabel": {"a1": [1,2,3]}}',
            "'relabel.a2'",
        ),
    ]
    for text, needle in cases:
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["ch", "--settings", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert needle in err
        assert err.count("\n") == 1


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, ["ch", "--settings", "/no/such/file.json"])
    assert code == 1
    assert "cannot read" in err


def test_noise_out_of_range_exits_one(preset_file, capsys):
    code, _, err = run(capsys, ["probs", "--settings", preset_file, "--noise", "1.5"])
    assert code == 1
    assert "--noise" in err


def test_numerical_failures_exit_two(preset_file, capsys, monkeypatch):
    def broken(exp0):
        raise SimplexFailure("synthetic failure")

    monkeypatch.setattr("qutrit_ch.lhv.min_noise_lp", broken)
    code, _, err = run(capsys, ["threshold", "--settings", preset_file, "--method", "lp"])
    assert code == 2
    assert "numerical failure" in err


def test_a_failing_simplex_exits_two_naming_the_cause(preset_file, capsys, monkeypatch):
    # the LP no longer falls back to bisection: a solver failure reaches the
    # command line with its cause
    import qutrit_ch.lhv as lhv_module

    def failing(*args, **kwargs):
        raise SimplexFailure("basis matrix is singular")

    monkeypatch.setattr(lhv_module, "simplex_solve", failing)
    monkeypatch.setattr(lhv_module, "_solve", failing)
    code, out, err = run(capsys, ["threshold", "--settings", preset_file, "--method", "lp"])
    assert code == 2
    assert out == ""
    assert "noise minimization LP failed: basis matrix is singular" in err


def test_the_console_script_entry_point_is_cli_main():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^qutrit-ch = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert pkgutil.resolve_name(target) is main
