"""Worker process of the benchmark: one workload run in a fresh interpreter.

    python3 perfbench/child.py counts RESULT TRACE K N...
        call singlet_count(K, N) for each N in the given order, timing
        each call; TRACE is 0 or 1
    python3 perfbench/child.py cli RESULT ARG...
        run birdtracks.cli.main(ARG...) under the tracer
    python3 perfbench/child.py normalized RESULT ANSWER
        check the answer of a `trace-basis --normalized --format json`
        run, stored in the file ANSWER, densely

Each writes a JSON result to RESULT.  The CLI without tracing is not run
through this file: run.py spawns the same one-liner the installed
`birdtracks` entry point runs.
"""

import json
import sys
import time

from tracer import Tracer
from workloads import check_normalized


def run_counts(trace: bool, k: int, ns: list[int]) -> dict:
    tracer = Tracer().install() if trace else None
    from birdtracks import singlets

    counts, query_s = [], []
    cpu0 = time.process_time()
    first = time.perf_counter()
    for n in ns:
        start = time.perf_counter()
        counts.append(singlets.singlet_count(k, n))
        query_s.append(time.perf_counter() - start)
    wall_s = time.perf_counter() - first
    return {"counts": counts, "query_s": query_s, "wall_s": wall_s,
            "cpu_s": time.process_time() - cpu0,
            "trace": tracer.report() if tracer else None}


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    if mode == "normalized":
        with open(rest[0], "rb") as handle:
            result = {"errors": check_normalized(handle.read())}
        code = 0
    elif mode == "counts":
        result = run_counts(rest[0] == "1", int(rest[1]),
                            [int(n) for n in rest[2:]])
        code = 0
    elif mode == "cli":
        tracer = Tracer().install()
        import birdtracks.cli

        code = birdtracks.cli.main(rest)
        sys.stdout.flush()
        result = {"trace": tracer.report()}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
