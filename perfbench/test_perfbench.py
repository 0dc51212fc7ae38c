"""Tests of the benchmark itself: every oracle rejects a wrong answer.

    python3 -m pytest perfbench -q
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import run
import workloads

sys.path.insert(0, run.SRC)

CHEAP_TABLE = ["singlets", "--k", "2", "--source", "trace", "--format", "json"]
COUNT_KEYS = ("calls", "term_pairs", "inner_products", "entries",
              "max_degree", "rational_ops", "radical_ops", "sqrt_calls",
              "states_built", "overlaps", "cells", "peak_terms")


def _cli_stdout(args) -> bytes:
    from birdtracks.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(args) == 0
    return buffer.getvalue().encode()


def _bench(capsys, *argv):
    """(result object, details object) of one in-process benchmark run."""
    assert run.main(["--seed", "1", "--seconds", "0.1", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_counts_oracle_expects_hook_length_sums():
    assert [workloads.expected_singlet_count(4, n) for n in range(1, 9)] == [
        1, 14, 23, 24, 24, 24, 24, 24]
    assert workloads.check_counts(4, [3, 1, 2], [23, 1, 14]) == []
    assert workloads.check_counts(4, [3, 1, 2], [23, 1, 15])
    assert workloads.check_counts(4, [3, 1, 2], [23, 1])


def test_normalized_oracle_rejects_wrong_normalization_and_overlap():
    from birdtracks.coefficients import RadicalCoefficient

    good = _cli_stdout(["trace-basis", "--k", "3", "--normalized",
                        "--format", "json"])
    assert workloads.check_normalized(good) == []
    payload = json.loads(good)
    states = payload["states"]
    beta = RadicalCoefficient.from_json(states[2]["normalization"])
    states[2]["normalization"] = (beta * Fraction(101, 100)).to_json()
    assert workloads.check_normalized(json.dumps(payload).encode())
    payload = json.loads(good)
    payload["states"][1]["element"] = payload["states"][0]["element"]
    assert workloads.check_normalized(json.dumps(payload).encode())
    assert workloads.check_normalized(b"not json")


def test_verify_oracle_requires_every_check_to_pass():
    def payload(passed, failed):
        return json.dumps({"results": [{"name": "x", "passed": passed}],
                           "failed": failed}).encode()

    assert workloads.check_verify(payload(True, 0)) == []
    assert workloads.check_verify(payload(False, 1))
    assert workloads.check_verify(payload(True, 1))


def test_digest_oracle_rejects_changed_bytes():
    for workload in workloads.CLI_ARGS:
        assert workloads.check_digest(workload, b"{}\n")


def test_counts_mismatch_raises_error_rate(monkeypatch, capsys):
    monkeypatch.setattr(run, "COUNTS_K", 2)
    monkeypatch.setattr(run, "counts_order", lambda rng: [2, 1, 3])
    result, details = _bench(capsys, "--workload", "counts_k4")
    assert result["correct"] and result["failed"] == 0
    assert details["error_rate"] == 0.0
    assert set(result["metrics"]) == set(_declared("end_to_end"))

    def off_by_one(k, ns, counts):
        return workloads.check_counts(k, ns, [c + 1 for c in counts])

    monkeypatch.setattr(run, "check_counts", off_by_one)
    result, details = _bench(capsys, "--workload", "counts_k4")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert details["error_rate"] == 1.0


def test_cli_digest_mismatch_raises_error_rate(monkeypatch, capsys):
    monkeypatch.setitem(run.CLI_ARGS, "table_k4", CHEAP_TABLE)
    digest = hashlib.sha256(_cli_stdout(CHEAP_TABLE)).hexdigest()
    monkeypatch.setitem(workloads.GOLDEN_SHA256, "table_k4", digest)
    result, _ = _bench(capsys, "--workload", "table_k4")
    assert result["correct"] and result["failed"] == 0
    monkeypatch.setitem(workloads.GOLDEN_SHA256, "table_k4", "0" * 64)
    result, details = _bench(capsys, "--workload", "table_k4")
    assert result["failed"] == result["attempted"] >= 1
    assert details["error_rate"] == 1.0


def test_traced_run_reports_every_layer_metric_and_repeats_counts(
        monkeypatch, capsys):
    monkeypatch.setitem(run.CLI_ARGS, "table_k4", CHEAP_TABLE)
    monkeypatch.setitem(workloads.GOLDEN_SHA256, "table_k4", hashlib.sha256(
        _cli_stdout(CHEAP_TABLE)).hexdigest())
    first, _ = _bench(capsys, "--workload", "table_k4", "--trace", "1")
    second, _ = _bench(capsys, "--workload", "table_k4", "--trace", "1")
    declared = _declared("per_layer")
    assert first["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == (
        declared)
    metrics = first["metrics"]
    assert metrics["singlets.singlet_table.inner_products"]["value"] == 6
    assert metrics["coefficients.sqrt_calls"]["value"] == 2
    assert metrics["cli.output_bytes"]["value"] == len(
        _cli_stdout(CHEAP_TABLE))
    counts = [name for name in declared
              if name.rsplit(".", 1)[-1] in COUNT_KEYS]
    assert counts
    assert {n: metrics[n] for n in counts} == {
        n: second["metrics"][n] for n in counts}


def test_tracer_rebinds_names_imported_into_other_modules():
    script = """
import birdtracks, birdtracks.checks as checks, birdtracks.cli as cli
import birdtracks.diagrams as diagrams, birdtracks.singlets as singlets
from tracer import Tracer
Tracer().install()
inner = diagrams.inner_product
assert hasattr(inner, "__wrapped__")
assert singlets.inner_product is inner and cli.inner_product is inner
assert birdtracks.inner_product is inner
assert all(hasattr(fn, "__wrapped__") for _, fn in checks.CHECKS)
assert cli.CHECKS == checks.CHECKS
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC,
                                                       run.BENCH_DIR]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)
