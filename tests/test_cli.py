import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birdtracks
from birdtracks import cli
from birdtracks.cli import _COMMANDS, _write_json, build_parser, main


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


def test_eval_at_a_pole_of_the_states_is_refused(capsys):
    code, out, err = run(capsys, "eval", "--k", "4", "--N", "1",
                         "--source", "trace+orthogonalize")
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("PoleAtN:") and "N=1" in message


def test_gram_at_a_pole_of_the_states_is_refused(capsys):
    code, out, err = run(capsys, "gram", "--k", "4", "--N", "1",
                         "--source", "trace+orthogonalize", "--format", "json")
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"]["code"] == 2
    message = blob["error"]["message"]
    assert message.startswith("PoleAtN:") and "N=1" in message


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
    assert [s["residual"] for s in payload["samples"]] == ["0", "0"]
    assert payload["max_residual"] == "0"


def test_correlator_evaluates_each_state_once(capsys, monkeypatch):
    calls = []
    entries = cli.integer_entries
    monkeypatch.setattr(cli, "integer_entries",
                        lambda state, n: calls.append(n) or entries(state, n))
    code, _, _ = run(capsys, "correlator", "--k", "3", "--N", "3",
                     "--samples", "4")
    assert code == 0
    assert calls == [3] * 6


def test_correlator_without_the_inverse_transpose_fails(capsys, monkeypatch):
    # g itself on the antifundamental legs moves the trace states
    sample = cli.sample_special_linear
    monkeypatch.setattr(cli, "sample_special_linear",
                        lambda n, seed: (sample(n, seed)[0],) * 2)
    code, out, err = run(capsys, "correlator", "--k", "2", "--N", "3")
    assert code == 1
    assert out.endswith(": FAIL\n")
    residual = out.splitlines()[-1].split()[2].rstrip(":")
    assert Fraction(residual) > 0
    assert json.loads(err)["error"] == {
        "code": 1, "message": f"max residual {residual} is not 0"}


def test_correlator_refuses_over_cap_work_before_building_states(
        capsys, monkeypatch):
    def fail(k):
        raise AssertionError("trace states built")

    monkeypatch.setattr(cli, "raw_trace_states", fail)
    code, out, err = run(capsys, "correlator", "--k", "7", "--N", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": 2, "message": "OutOfRange: dense realization of 3^14 "
                              "entries exceeds cap 1000000"}


def test_negative_seed_is_config_error(capsys):
    code, out, err = run(capsys, "correlator", "--k", "1", "--N", "2",
                         "--seed", "-1")
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"]["code"] == 2
    assert "--seed" in blob["error"]["message"]


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


def test_source_rejected_before_computation(capsys):
    code, out, err = run(capsys, "basis", "--k", "2", "--source", "bogus")
    assert code == 2
    assert out == ""
    blob = json.loads(err)
    assert blob["error"]["code"] == 2
    assert "bogus" in blob["error"]["message"]


def _close_after_first_line(*argv):
    """Exit code and stderr of a CLI run whose reader leaves after one line."""
    src = os.path.dirname(os.path.dirname(birdtracks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "birdtracks.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_closed_stdout_exits_quietly():
    # 217 kB of JSON overfills the pipe, so the write after the reader
    # has gone fails for certain
    code, err = _close_after_first_line("singlets", "--k", "3",
                                        "--format", "json")
    assert code == 1
    assert b"Traceback" not in err
    assert err == b""


def test_closed_stdout_mid_stream_exits_quietly():
    # the 4 MB k=4 table is written in pieces, so the reader leaves while
    # most of it is still unwritten
    code, err = _close_after_first_line("singlets", "--k", "4", "--source",
                                        "trace", "--format", "json")
    assert code == 1
    assert err == b""


def test_exact_commands_leave_numpy_unloaded():
    # every command is exact, so none imports numpy.  A fresh interpreter
    # shows what each command loads
    script = """
import sys
import birdtracks, birdtracks.cli
assert "numpy" not in sys.modules, "import"
for argv in ("basis --k 2", "gram --k 2 --N 2", "singlets --k 2",
             "trace-basis --k 2 --normalized", "lr --m 2 --n 1 --N 3",
             "transient --m 3 --n 0 --N 3", "eval --k 2 --N 2",
             "verify --check loop-factor", "verify",
             "correlator --k 2 --N 3"):
    assert birdtracks.cli.main(argv.split()) == 0, argv
    assert "numpy" not in sys.modules, argv
"""
    src = os.path.dirname(os.path.dirname(birdtracks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_starts_without_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize to every start;
    # -S keeps the site packages' own imports out of the count
    script = """
import sys
import birdtracks.cli
argv = "singlets --k 2 --source trace --format json".split()
assert birdtracks.cli.main(argv) == 0
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, name
"""
    src = os.path.dirname(os.path.dirname(birdtracks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_lr_rejects_empty_product(capsys):
    code, _, err = run(capsys, "lr", "--m", "0", "--n", "0", "--N", "3")
    assert code == 2
    assert "cannot both be 0" in json.loads(err)["error"]["message"]


def test_builtin_source_out_of_range_is_config_error(capsys):
    code, _, err = run(capsys, "basis", "--k", "9", "--source", "builtin")
    assert code == 2
    assert "UnsupportedK" in json.loads(err)["error"]["message"]


_CHECK_NAMES = ("baryon-equivalence, chi-constants, loop-factor, "
                "lr-projectors, operator-algebra, pieri-dimensions, "
                "singlet-counts, symbolic-numeric, unitary-invariance, "
                "xi-constants")


# every range and combination rule beyond argparse's own, with its exact
# message; where several rules fail, the first in this order is reported
@pytest.mark.parametrize("argv, message", [
    ("basis --k 0", "--k must be at least 1"),
    ("trace-basis --k 0", "--k must be at least 1"),
    ("correlator --k 0 --N 1 --samples 0", "--k must be at least 1"),
    ("lr --m -1 --n 1 --N 1", "--m must be at least 0"),
    ("transient --m 1 --n -1 --N 1", "--n must be at least 0"),
    ("lr --m 1 --n 1 --N 1", "--N must be at least 2 for this command"),
    ("transient --m 3 --n 0 --N 1",
     "--N must be at least 2 for this command"),
    ("correlator --k 1 --N 1 --seed -1",
     "--N must be at least 2 for this command"),
    ("lr --m 0 --n 0 --N 3", "--m and --n cannot both be 0"),
    ("gram --k 2 --N 0", "--N must be at least 1"),
    ("eval --k 1 --N 0", "--N must be at least 1"),
    ("eval --k 1 --N 0 --output .", "--N must be at least 1"),
    ("verify --check nonesuch --check loop-factor --check other",
     f"unknown checks: nonesuch, other (available: {_CHECK_NAMES})"),
    ("correlator --k 1 --N 2 --samples 0 --seed -1",
     "--samples must be at least 1"),
    ("correlator --k 1 --N 2 --seed -1", "--seed must be at least 0"),
])
def test_config_error_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"schema": "1",
                               "error": {"code": 2, "message": message}}


@pytest.mark.parametrize("case", ["empty", "directory", "missing",
                                  "readonly"])
def test_output_config_error_messages(capsys, monkeypatch, tmp_path, case):
    missing = str(tmp_path / "missing")
    path, message = {
        "empty": ("", "--output must name a file"),
        "directory": (str(tmp_path), f"--output {tmp_path} is a directory"),
        "missing": (missing + "/x.txt",
                    f"--output directory {missing} does not exist"),
        "readonly": (str(tmp_path / "x.txt"),
                     f"--output directory {tmp_path} is not writable"),
    }[case]
    if case == "readonly":
        # a root user may write anywhere, so the refusal is simulated
        monkeypatch.setattr(os, "access", lambda *args: False)
    code, out, err = run(capsys, "eval", "--k", "1", "--N", "2",
                         "--output", path)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"schema": "1",
                               "error": {"code": 2, "message": message}}


@pytest.mark.parametrize("argv, formats", [
    ("basis --k 1", ("text", "json", "latex")),
    ("gram --k 1", ("text", "json", "latex")),
    ("singlets --k 1", ("text", "json", "latex")),
    ("trace-basis --k 1", ("text", "json", "latex")),
    ("lr --m 1 --n 0 --N 2", ("text", "json", "latex")),
    ("transient --m 1 --n 0 --N 2", ("text", "json", "latex")),
    ("eval --k 1 --N 2", ("text", "json")),
    ("verify --check loop-factor", ("text", "json")),
    ("correlator --k 1 --N 2", ("text", "json")),
])
def test_each_command_accepts_exactly_its_formats(capsys, argv, formats):
    for fmt in ("text", "json", "latex", "xml"):
        code, out, err = run(capsys, *argv.split(), "--format", fmt)
        if fmt in formats:
            assert code == 0, (argv, fmt, err)
            assert out and err == ""
        else:
            assert code == 2, (argv, fmt)
            assert out == ""
            message = json.loads(err)["error"]["message"]
            assert message.startswith(
                f"argument --format: invalid choice: '{fmt}'"), message


def test_thread_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.delenv("BIRDTRACK_THREADS", raising=False)
    unset = run(capsys, "eval", "--k", "1", "--N", "2")
    assert unset == (0, "singlet count for k=1 at N=2 (trace source): 1\n",
                     "")
    for value in ("0", "abc"):
        monkeypatch.setenv("BIRDTRACK_THREADS", value)
        assert run(capsys, "eval", "--k", "1", "--N", "2") == unset


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    code, out, _ = run(capsys, "basis", "--k", "2", "--source", "trace",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 2
    assert payload["states"][0]["label"] == "(1)(2)"


# an empty name, a missing directory and a directory are refused before
# computing; the full device accepts the open and fails the write
@pytest.mark.parametrize("where", [
    "", "missing/x.txt", ".",
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full"))])
def test_unwritable_output_is_exit_2(capsys, tmp_path, where):
    code, out, err = run(capsys, "lr", "--m", "1", "--n", "1", "--N", "2",
                         "--output", str(tmp_path / where) if where else "")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_fails_mid_stream_with_exit_2(capsys):
    code, out, err = run(capsys, "singlets", "--k", "4", "--source", "trace",
                         "--format", "json", "--output", "/dev/full")
    assert code == 2
    assert out == ""
    assert "cannot write --output /dev/full" in json.loads(err)["error"][
        "message"]


def test_output_file_has_the_stdout_bytes(capsys, tmp_path):
    # the tables are streamed around their shared kets; the trace basis
    # shares no container and is written in one piece
    for argv in (("singlets", "--k", "3", "--source", "builtin"),
                 ("singlets", "--k", "4", "--source", "trace"),
                 ("trace-basis", "--k", "3", "--normalized")):
        target = tmp_path / "table.json"
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        code, empty, _ = run(capsys, *argv, "--format", "json",
                             "--output", str(target))
        assert code == 0 and empty == ""
        assert target.read_bytes() == out.encode()


_json_strings = st.text(
    st.sampled_from('"\\,:[{}] \x00\x1f\n\té\u2028\U0001d11e')
    | st.characters(), max_size=6)
_json_scalars = (st.none() | st.booleans()
                 | st.integers(-10 ** 40, 10 ** 40) | st.floats()
                 | st.sampled_from([float("nan"), float("inf"),
                                    float("-inf"), -0.0])
                 | _json_strings)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=12)


@st.composite
def _shared_json(draw):
    """A payload that holds one container at several depths, some equal."""
    shared = draw(st.lists(_json_values, min_size=1, max_size=3)
                  | st.dictionaries(_json_strings, _json_values,
                                    min_size=1, max_size=3)
                  | st.sampled_from([[], {}, ()]))
    uses = []
    for depth in draw(st.lists(st.integers(0, 3), min_size=2, max_size=4)):
        value = shared
        for as_dict in draw(st.lists(st.booleans(), min_size=depth,
                                     max_size=depth)):
            value = {"k": value} if as_dict else [value]
        uses.append(value)
    return {"tree": draw(_json_values), "uses": uses}


@settings(max_examples=200, deadline=None)
@given(_json_values | _shared_json())
def test_render_json_matches_indented_dumps(value):
    pieces = []
    _write_json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, indent=2)


@settings(max_examples=300, deadline=None)
@given(_json_scalars | st.integers())
def test_scalar_encoder_matches_dumps(value):
    assert cli._scalar_json(value) == json.dumps(value)


def test_json_writer_streams_the_k4_table():
    args = build_parser().parse_args(["singlets", "--k", "4", "--source",
                                      "trace", "--format", "json"])
    payload, _ = _COMMANDS["singlets"](args)
    pieces = []
    _write_json(payload, pieces.append)
    text = "".join(pieces)
    assert text == json.dumps(payload, indent=2)
    # written whole, the text would be a single piece
    assert max(len(piece) for piece in pieces) <= len(text) / 20


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
    (("singlets", "--k", "4", "--source", "trace"),
     "f63bd1f8c0c16c65312f0e7ac549e670505f2bee30df1c5ea1986dfc7aaba081"),
    (("verify",),
     "6862b04dd03d677e07d2789be7747532b37726f0ae3f0c346895c17df40c6656"),
])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for every command in every format it offers, k <= 3,
# recorded before the permutation helpers were merged; correlator's were
# recorded when it became exact.
@pytest.mark.parametrize("argv, digest", [
    ("basis --k 3 --source builtin --format text",
     "9cbc71fd6cd920f0862fb3e7664e6f9716b3d0cec7f613e7605ada27564d7315"),
    ("basis --k 3 --source builtin --format json",
     "73c3b39f1d8c05cd0cf081b009a37404aa4c9680b6b330a8f82a99415b894b7f"),
    ("basis --k 3 --source builtin --format latex",
     "8cdaf9164325498c2b14ed855fe5cd60af853842f9956b6cb100dfce3eb613f2"),
    ("basis --k 3 --source trace --format text",
     "01e29f32e8f8f9caba13dee6908df40584a1906a2daee2235055d9ec105ec5be"),
    ("basis --k 3 --source trace --format json",
     "8098dd2750fd43f54a9773a504434535b19083ce0fd5f453f852a397f539a23c"),
    ("basis --k 3 --source trace --format latex",
     "99b6dc3ff9185c70a8ccd8aabaa1957bbb5dfe27f0310d647a086ae865427ce9"),
    ("basis --k 3 --source trace+orthogonalize --format text",
     "4ea2f5498b5cfa23f13c2425e9eda9a87b283bc8e826fe0a3efd4b5e02cb8561"),
    ("basis --k 3 --source trace+orthogonalize --format json",
     "707bc3420deb3f7c35cfd2af6c08a1eaf0d39fc4106372e7d330d0d73973e17e"),
    ("basis --k 3 --source trace+orthogonalize --format latex",
     "2e3e665849e4f15b29926195899cf8dd257abf2190167a5532c1ed646dd8a981"),
    ("gram --k 3 --source builtin --format text",
     "1a8cc0f8cfa3f1c2a3e363c1aa5d8d88bbed3e7fc555a2693389b73f59c150e9"),
    ("gram --k 3 --source builtin --format json",
     "5807cc407b3e2a5a8a19beabe7623c92caaa1ef418fd38df9384966baec01e1d"),
    ("gram --k 3 --source builtin --format latex",
     "82b6dc6ef038a8110964716654baf340c07a4521c4740278e8e08af2466b7ac6"),
    ("gram --k 3 --source trace --format text",
     "55d4324f1428d665d9d82b665c18c2f0e50e190fe5db9638cdb4ea929420bfd8"),
    ("gram --k 3 --source trace --format json",
     "72b16633330b5542cfdd44b9236df85781a0879f7826de90cf732bdb7770d3a7"),
    ("gram --k 3 --source trace --format latex",
     "3c69a79de8997dd7a947022aee57452dbbecdf8bdfaed790f51fbda45f845f3f"),
    ("gram --k 3 --source trace+orthogonalize --format text",
     "7c54b2802c867d54bbaeec949c2a353c4f53aff01706cf1533e0697ef184f645"),
    ("gram --k 3 --source trace+orthogonalize --format json",
     "5ba03b5d32faccf916109f0458d4f3587dbad34d93bb2e70af043575c4475c56"),
    ("gram --k 3 --source trace+orthogonalize --format latex",
     "ff4f862225959c354a90f7eafa144561468032e48e5caed7d40c38f929920e8a"),
    ("singlets --k 3 --source builtin --format text",
     "dc12a9fec0875237a435cbac4fa7a59c26f8e49d0fa2fb3a14585361a1cc4cfc"),
    ("singlets --k 3 --source builtin --format json",
     "6eb95b9bb1a3c6fd79505db89bbb5f0a61c27717bea179c3db8cfa220ab5fd22"),
    ("singlets --k 3 --source builtin --format latex",
     "6d557b24db5267d2a2ceed8a0da081416bc18e4e3d7db4af20010ef1cdf7a045"),
    ("singlets --k 3 --source trace --format text",
     "7b78b211e0f869ad7401b736ee7e750746e13900f854311977bf54045e28f374"),
    ("singlets --k 3 --source trace --format json",
     "d281ce8a42ff3a9747c2de016d67378453690aa4a6f19faf768e4ef0acfc1e74"),
    ("singlets --k 3 --source trace --format latex",
     "f890b5b51c445f3e68ad3ab1666a5ff87c0603a94520d47d59f4b7bd88fba573"),
    ("singlets --k 3 --source trace+orthogonalize --format text",
     "28ddf30c99a9dc92c6a2ea0ccc967bc2e6d639ef32acb0d417af1c020902ba22"),
    ("singlets --k 3 --source trace+orthogonalize --format json",
     "e4e818aa697171ebfa0aa4efa529a6b1c00d296ce5d5886ac5cf2ebad4c4c69b"),
    ("singlets --k 3 --source trace+orthogonalize --format latex",
     "2eef75051a936b2737a9d1f58dda32581fa59e04d128680a42babe690f9fcdf6"),
    ("gram --k 3 --source trace --N 2 --format text",
     "ba2026102306a029b3caaba6fae136e28a996061ba3b03c270d7241bf098ca67"),
    ("trace-basis --k 3 --format text",
     "6abb093e8de34000fe635bc9224fc7359f13efe8d5fe8c93b5fd342a35307e40"),
    ("trace-basis --k 3 --normalized --format text",
     "33bf3f67fc8b218fcecd3d83dce341ec5e328dffb277a058406dc4698843c6b0"),
    ("lr --m 2 --n 1 --N 3 --format text",
     "eaca334ca45b8e3e5f363a28cf0d0c8b72359d86c6c063063a68e53696c6c752"),
    ("transient --m 3 --n 0 --N 3 --format text",
     "44e7e3714e590cbb70f268cd5f16ad9e3b39359c9dbfaed6808da4580ab6b083"),
    ("gram --k 3 --source trace --N 2 --format json",
     "b5d2fa4f71fda36c8f4c661364ba366b83fe9a4320e60863d3fa409f04fec96c"),
    ("trace-basis --k 3 --format json",
     "abaad9ef6f79a822ff54219f4d999582442589bdf0597444ee2b0325c20c0fd4"),
    ("trace-basis --k 3 --normalized --format json",
     "18c5be3467aad86f4febfa9bbc147c11471287d38f4aaa9abbfa312e77b98798"),
    ("lr --m 2 --n 1 --N 3 --format json",
     "a46d044670c741deb8e1ed015d09247ae69d166ab2df8567b6c67747d7b4275e"),
    ("transient --m 3 --n 0 --N 3 --format json",
     "90ba1498e98323483206885558ed870ecbeff80444fa3020dd8b380380943c6b"),
    ("gram --k 3 --source trace --N 2 --format latex",
     "3a6b457651b902449dc303393a2f1359e969f9cf15497a5880aad437a213f61f"),
    ("trace-basis --k 3 --format latex",
     "2203d5b6dd2d1b85b2e6aef0149f83a5cb8cdc350737d56430a0dab3a0d12e23"),
    ("trace-basis --k 3 --normalized --format latex",
     "1eb18251bcf702941ed387e41ecdc0ce162991db6e5ee3a65d4a07e9126e6db0"),
    ("lr --m 2 --n 1 --N 3 --format latex",
     "339f5638e336bf2b9d4b49808da8f2812ad597bbd68590a1e2d17d4095fbc98a"),
    ("transient --m 3 --n 0 --N 3 --format latex",
     "c4e4cfed842142c2f44a0737c1d7ff38e34ff4fa524b1484cfe4bd4881fc389f"),
    ("eval --k 3 --N 2 --format text",
     "5111d7189b38d2677e1bfae2705deb9b151202ffe022dc2afbc61b8b78dd5865"),
    ("verify --check loop-factor --check pieri-dimensions --format text",
     "7ccb57591fa6095a2a61655b32a6b3b5d5ec7704a6d2ddccd0464dcd9f06f65b"),
    ("eval --k 3 --N 2 --format json",
     "1f931fb4a1ac35dc72828623b5599aa394388a71dc519b07488ebe7314195e77"),
    ("verify --check loop-factor --check pieri-dimensions --format json",
     "948a603c2fa26298c70a393677dd542667bbb09afa44b8a5260ecd51e10ef6d9"),
    ("correlator --k 2 --N 3 --seed 7 --samples 2 --format text",
     "34e9b8a7b0df7a662af6e3456fb9d02bf16a761f780e5c575a6c5f763962b721"),
    ("correlator --k 2 --N 3 --seed 7 --samples 2 --format json",
     "7f350aa523031212cf3a686e4821413ce86f3234f70af68d8464c78c6a33c263"),
])
def test_cli_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
