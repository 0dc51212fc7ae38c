import hashlib
import json

import pytest

from birdtracks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transient_baryon_example(capsys):
    code, out, err = run(capsys, "transient", "--m", "3", "--n", "0",
                         "--N", "3")
    assert code == 0
    assert err == ""
    assert "1 solution(s)" in out
    assert "a=1 b=0 k=0 alpha=2" in out


def test_transient_json_solutions(capsys):
    code, out, _ = run(capsys, "transient", "--m", "4", "--n", "1",
                       "--N", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["solutions"] == [{"a": 1, "b": 0, "k": 1, "alpha": 3}]


def test_eval_collapsed_rank_example(capsys):
    code, out, _ = run(capsys, "eval", "--k", "2", "--N", "1",
                       "--source", "trace")
    assert code == 0
    assert "singlet count for k=2 at N=1 (trace source): 1" in out


def test_eval_json_count(capsys):
    code, out, _ = run(capsys, "eval", "--k", "3", "--N", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_singlets_latex_table(capsys):
    code, out, _ = run(capsys, "singlets", "--k", "3",
                       "--source", "builtin", "--format", "latex")
    assert code == 0
    assert "\\begin{tabular}{c|cccccc}" in out
    assert "P_{1}" in out and "T_{12}" in out and "T_{65}" in out
    assert "$\\chi_{11} = \\frac{6}{N^{3} + 3 N^{2} + 2 N}$" in out
    assert "$\\chi_{22} = \\frac{3}{N^{3} - N}$" in out


def test_singlets_text_counts_operators(capsys):
    code, out, _ = run(capsys, "singlets", "--k", "3")
    assert code == 0
    assert "6 projectors, 30 transitions" in out
    assert sum(1 for line in out.splitlines() if "chi =" in line) == 36


def test_json_artifacts_reparse_equal(capsys):
    for argv in (("basis", "--k", "2", "--source", "trace"),
                 ("gram", "--k", "3", "--source", "builtin"),
                 ("lr", "--m", "2", "--n", "2", "--N", "3"),
                 ("trace-basis", "--k", "2", "--normalized")):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert json.loads(json.dumps(payload)) == payload


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "correlator", "--k", "2", "--N", "3",
                "--seed", "11", "--format", "json")
    second = run(capsys, "correlator", "--k", "2", "--N", "3",
                 "--seed", "11", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_correlator_reports_residual_per_sample(capsys):
    code, out, _ = run(capsys, "correlator", "--k", "1", "--N", "2",
                       "--seed", "3", "--samples", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["seed"] for s in payload["samples"]] == [3, 4]
    assert payload["passed"] is True
    assert payload["max_residual"] <= payload["tolerance"]


def test_correlator_impossible_tolerance_fails(capsys):
    code, out, err = run(capsys, "correlator", "--k", "2", "--N", "3",
                         "--tolerance", "1e-300")
    assert code == 1
    assert "FAIL" in out
    blob = json.loads(err)
    assert blob["error"]["code"] == 1


def test_verify_selected_checks(capsys):
    code, out, _ = run(capsys, "verify", "--check", "loop-factor",
                       "--check", "pieri-dimensions", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert [r["name"] for r in payload["results"]] == [
        "loop-factor", "pieri-dimensions"]


def test_verify_unknown_check_is_config_error(capsys):
    code, out, err = run(capsys, "verify", "--check", "nonesuch")
    assert code == 2
    blob = json.loads(err)
    assert blob["schema"] == "1"
    assert blob["error"]["code"] == 2
    assert "nonesuch" in blob["error"]["message"]


def test_missing_required_flag_is_config_error(capsys):
    code, _, err = run(capsys, "lr", "--m", "2", "--N", "3")
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_format_rejected_before_computation(capsys):
    code, _, err = run(capsys, "verify", "--format", "latex")
    assert code == 2
    assert "latex" in json.loads(err)["error"]["message"]


def test_lr_rejects_empty_product(capsys):
    code, _, err = run(capsys, "lr", "--m", "0", "--n", "0", "--N", "3")
    assert code == 2
    assert "cannot both be 0" in json.loads(err)["error"]["message"]


def test_builtin_source_out_of_range_is_config_error(capsys):
    code, _, err = run(capsys, "basis", "--k", "9", "--source", "builtin")
    assert code == 2
    assert "UnsupportedK" in json.loads(err)["error"]["message"]


def test_thread_cap_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("BIRDTRACK_THREADS", "0")
    code, _, err = run(capsys, "eval", "--k", "1", "--N", "2")
    assert code == 2
    assert "BIRDTRACK_THREADS" in json.loads(err)["error"]["message"]
    monkeypatch.setenv("BIRDTRACK_THREADS", "2")
    code, out, _ = run(capsys, "eval", "--k", "1", "--N", "2")
    assert code == 0
    assert ": 1" in out


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    code, out, _ = run(capsys, "basis", "--k", "2", "--source", "trace",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 2
    assert payload["states"][0]["label"] == "(1)(2)"


def test_gram_evaluated_entries(capsys):
    code, out, _ = run(capsys, "gram", "--k", "3", "--source", "trace",
                       "--N", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][4][5] == [[1, "-3"]]
    assert payload["entries"][0][0] == [[1, "8"]]


def test_trace_basis_normalized_text(capsys):
    code, out, _ = run(capsys, "trace-basis", "--k", "3", "--normalized")
    assert code == 0
    assert "6 state(s)" in out
    assert "normalization" in out


def test_basis_latex_coefficient_rows(capsys):
    code, out, _ = run(capsys, "basis", "--k", "2", "--source", "trace",
                       "--format", "latex")
    assert code == 0
    assert "cycles & coefficient" in out
    assert "$(1 2)$" in out


@pytest.mark.parametrize("argv, digest", [
    (("trace-basis", "--k", "4", "--normalized"),
     "bd8024bb712352f458b245de53e247df4e45f1f213c6d8076c83781c9429fcbb"),
    (("singlets", "--k", "3", "--source", "builtin"),
     "6eb95b9bb1a3c6fd79505db89bbb5f0a61c27717bea179c3db8cfa220ab5fd22"),
])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
