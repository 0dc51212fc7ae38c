"""Benchmark of birdtracks: four workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under `src/`.
Load is one closed-loop client: one workload run at a time, each in a
fresh interpreter, the next starting only after the previous one ended
and its answer was checked.  Runs repeat until `--seconds` would be
exceeded, with at least one run.  The last line of stdout is the result
object; the line before it holds the details: environment, sample
counts, quartiles and the first error messages.

End-to-end metrics (`--trace 0`), each the median over the run's samples:
  wall_s       time to a verified answer: spawn to exit for the CLI
               workloads, first query to last result for counts_k4
  cpu_s        user plus system CPU seconds of the working process (for
               counts_k4, of the queries only)
  setup_s      spawn to exit of `python3 -c "import birdtracks.cli"`,
               over a few spawns before each sample
  peak_rss_mb  peak resident memory of the working process
  query_s      one query: a singlet_count call for counts_k4, one CLI
               invocation otherwise
A run has too few samples for any percentile above the median to have
ten samples beyond it, so the details line gives the sample count, the
quartiles and the maximum of each, without a bound.  Failed runs
(nonzero exit, timeout, oracle mismatch) are counted in `failed` out of
`attempted`; their ratio is the error rate.

Per-layer metrics (`--trace 1`): each run is a pair, the workload run
once without tracing and once under `tracer.Tracer`; see tracer.py.
`trace.overhead_ratio` is traced wall_s over untraced wall_s, and
`cli.output_bytes` is the size of the CLI's stdout.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from workloads import (
    CLI_ARGS,
    COUNTS_K,
    WORKLOADS,
    check_counts,
    check_digest,
    check_verify,
    counts_order,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
# The whole invocation has to end within 180 s.
DEADLINE_S = 165.0
# Set-up spawns before each untraced sample, so that set-up is measured
# through the same stretch of machine time as the samples.
SETUP_SPAWNS = 3
# What the installed `birdtracks` entry point runs.
ENTRY_POINT = "import sys; from birdtracks.cli import main; sys.exit(main())"

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "query_s": "s"}
PER_LAYER_UNITS = {"self_s": "s", "s": "s", "hit_ratio": "ratio",
                   "us_per_term_pair": "us", "overhead_ratio": "ratio",
                   "output_bytes": "bytes"}


@dataclass
class Sample:
    """One workload run."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    query_s: list[float]
    errors: list[str]
    output_bytes: int = 0
    trace: dict | None = None


@dataclass
class Run:
    """One turn of the closed loop, with the set-up spawns timed before it."""

    samples: list[Sample]
    setup_s: list[float]


class Bench:
    def __init__(self, workload: str, scratch: str, deadline: float):
        self.workload = workload
        self.scratch = scratch
        self.deadline = deadline
        path = [SRC, os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(filter(None, path)))
        self.verdicts: dict[str, list[str]] = {}

    # -- processes ------------------------------------------------------------

    def spawn(self, args: list[str]):
        """Run the interpreter with args; (exit code or None, wall, rusage).

        stdout and stderr go to files in the scratch directory.  None as
        exit code means the deadline passed and the process was killed.
        """
        out = os.path.join(self.scratch, "stdout")
        err = os.path.join(self.scratch, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        budget = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             self.env, file_actions=actions)
        status, usage = _wait(pid, budget)
        wall = time.perf_counter() - start
        code = None if status is None else os.waitstatus_to_exitcode(status)
        return code, wall, usage

    def read(self, name: str) -> bytes:
        with open(os.path.join(self.scratch, name), "rb") as handle:
            return handle.read()

    def _failure(self, code) -> list[str]:
        if code is None:
            return ["timed out"]
        if code != 0:
            tail = self.read("stderr").decode(errors="replace")[-300:]
            return [f"exit code {code}: {tail.strip()}"]
        return []

    # -- set-up ---------------------------------------------------------------

    def build(self) -> list[str]:
        """Byte-compile the package and check which copy is imported."""
        code, _, _ = self.spawn(["-m", "compileall", "-q", SRC])
        if code != 0:
            return self._failure(code) or ["compileall failed"]
        code, _, _ = self.spawn(
            ["-c", "import birdtracks.cli as c; print(c.__file__)"])
        if code != 0:
            return self._failure(code)
        where = self.read("stdout").decode().strip()
        if not where.startswith(SRC + os.sep):
            return [f"imported birdtracks from {where}, not from {SRC}"]
        return []

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_SPAWNS):
            code, wall, _ = self.spawn(["-c", "import birdtracks.cli"])
            if code != 0:
                raise RuntimeError("; ".join(self._failure(code)))
            times.append(wall)
        return times

    # -- workload runs --------------------------------------------------------

    def run_once(self, rng: random.Random, traced: bool) -> Sample:
        if self.workload == "counts_k4":
            return self._run_counts(counts_order(rng), traced)
        return self._run_cli(traced)

    def _run_counts(self, ns: list[int], traced: bool) -> Sample:
        result = os.path.join(self.scratch, "result.json")
        code, _, usage = self.spawn(
            [CHILD, "counts", result, str(int(traced)), str(COUNTS_K),
             *map(str, ns)])
        errors = self._failure(code)
        if errors:
            return Sample(0.0, 0.0, _rss_mb(usage), [], errors)
        with open(result, encoding="utf-8") as handle:
            data = json.load(handle)
        errors = check_counts(COUNTS_K, ns, data["counts"])
        return Sample(data["wall_s"], data["cpu_s"], _rss_mb(usage),
                      data["query_s"], errors, trace=data["trace"])

    def _run_cli(self, traced: bool) -> Sample:
        result = os.path.join(self.scratch, "result.json")
        args = CLI_ARGS[self.workload]
        if traced:
            code, wall, usage = self.spawn([CHILD, "cli", result, *args])
        else:
            code, wall, usage = self.spawn(["-c", ENTRY_POINT, *args])
        stdout = self.read("stdout")
        errors = self._failure(code)
        if not errors:
            digest = hashlib.sha256(stdout).hexdigest()
            if digest not in self.verdicts:
                self.verdicts[digest] = self._check_cli(stdout)
            errors = self.verdicts[digest]
        trace = None
        if traced and not errors:
            with open(result, encoding="utf-8") as handle:
                trace = json.load(handle)["trace"]
        cpu = usage.ru_utime + usage.ru_stime if usage else 0.0
        return Sample(wall, cpu, _rss_mb(usage), [wall], errors,
                      output_bytes=len(stdout), trace=trace)

    def _check_cli(self, stdout: bytes) -> list[str]:
        errors = check_digest(self.workload, stdout)
        if self.workload == "verify":
            errors += check_verify(stdout)
        elif self.workload == "normalize_k4":
            # In a process of its own: a child's ru_maxrss starts from the
            # peak RSS of this process when it is spawned, and the dense
            # oracle's arrays would raise that above the workload's own.
            answer = os.path.join(self.scratch, "answer")
            with open(answer, "wb") as handle:
                handle.write(stdout)
            result = os.path.join(self.scratch, "result.json")
            code, _, _ = self.spawn([CHILD, "normalized", result, answer])
            errors += self._failure(code)
            if code == 0:
                with open(result, encoding="utf-8") as handle:
                    errors += json.load(handle)["errors"]
        return errors


def _wait(pid: int, timeout: float):
    """os.wait4 with a timeout; on timeout the child is killed."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
        return status, usage
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _rss_mb(usage) -> float:
    # ru_maxrss is in KiB on Linux
    return usage.ru_maxrss / 1024 if usage else 0.0


def repeat(bench: Bench, rng: random.Random, seconds: float, traced: bool):
    """Closed loop until time is up.

    Untraced, a run is one sample preceded by set-up spawns; traced, it
    is a pair of samples, untraced then traced.
    """
    runs, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if traced:
            runs.append(Run([bench.run_once(rng, traced=False),
                             bench.run_once(rng, traced=True)], []))
        else:
            setup = bench.setup_times()
            runs.append(Run([bench.run_once(rng, traced=False)], setup))
        now = time.perf_counter()
        durations.append(now - began)
        typical = statistics.median(durations)
        if (now - start + typical > seconds
                or now + typical > bench.deadline):
            return runs


def _stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def end_to_end(runs: list[Run]):
    """(medians, details) of an untraced loop."""
    samples = [run.samples[0] for run in runs]
    good = [s for s in samples if not s.errors] or samples
    walls = [s.wall_s for s in good]
    values = {
        "wall_s": walls, "cpu_s": [s.cpu_s for s in good],
        "setup_s": [t for run in runs for t in run.setup_s],
        "peak_rss_mb": [s.peak_rss_mb for s in good],
        "query_s": [q for s in good for q in s.query_s] or walls,
    }
    return ({name: statistics.median(v) for name, v in values.items()},
            {name: _stats(v) for name, v in values.items()})


def per_layer(runs: list[Run]):
    pairs = [run.samples for run in runs]
    traces = [traced.trace for _, traced in pairs if traced.trace]
    if not traces:
        return {}, {}
    values = {name: [t[name] for t in traces if name in t]
              for name in traces[0]}
    plain = statistics.median(p.wall_s for p, _ in pairs)
    values["trace.overhead_ratio"] = [
        statistics.median(t.wall_s for _, t in pairs) / plain
        if plain else 0.0]
    values["cli.output_bytes"] = [statistics.median_low(
        t.output_bytes for _, t in pairs)]
    return ({name: _median(v) for name, v in values.items()},
            {name: _stats(v) for name, v in values.items()})


def _median(values):
    # counts stay whole numbers; they repeat exactly across traced runs
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "birdtracks")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "birdtracks", "cli.py")):
        print(f"no birdtracks package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(args.workload, scratch, deadline)
        problems = bench.build()
        if problems:
            print("build failed: " + "; ".join(problems), file=sys.stderr)
            return 2
        runs = repeat(bench, random.Random(args.seed), args.seconds,
                      bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    samples = [sample for run in runs for sample in run.samples]
    if args.trace:
        metrics, stats = per_layer(runs)
    else:
        metrics, stats = end_to_end(runs)
    failed = sum(1 for s in samples if s.errors)
    errors = [e for s in samples for e in s.errors]
    for message in errors:
        print(f"{args.workload}: {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args.seed),
        "error_rate": failed / len(samples), "errors": errors[:5],
        "harness_peak_rss_mb": _rss_mb(resource.getrusage(
            resource.RUSAGE_SELF)),
        "stats": stats}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
