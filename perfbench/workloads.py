"""The benchmark's workloads, their inputs and their oracles.

Each oracle returns a list of error messages; an empty list means the
answer is right.  Oracles run outside the timed region.
"""

import hashlib
import json
import math

WORKLOADS = ("normalize_k4", "counts_k4", "verify", "table_k4")

# Arguments of the CLI workloads, as a user would pass them to `birdtracks`.
CLI_ARGS = {
    "normalize_k4": ["trace-basis", "--k", "4", "--normalized",
                     "--format", "json"],
    "verify": ["verify", "--format", "json"],
    "table_k4": ["singlets", "--k", "4", "--source", "trace",
                 "--format", "json"],
}

# sha256 of each CLI workload's stdout when the benchmark was defined.  The
# project's notion of "same behaviour" is byte-identical CLI output.
GOLDEN_SHA256 = {
    "normalize_k4":
        "bd8024bb712352f458b245de53e247df4e45f1f213c6d8076c83781c9429fcbb",
    "verify":
        "6862b04dd03d677e07d2789be7747532b37726f0ae3f0c346895c17df40c6656",
    "table_k4":
        "f63bd1f8c0c16c65312f0e7ac549e670505f2bee30df1c5ea1986dfc7aaba081",
}

COUNTS_K = 4
COUNTS_NS = tuple(range(1, 9))

# Integer ranks at which the normalized basis is checked densely; all k=4
# trace states are independent from N = 4 on.
NORMALIZE_CHECK_NS = (4, 5)
TOLERANCE = 1e-9


def counts_order(rng) -> list[int]:
    """The order of the N values of one counts_k4 run."""
    ns = list(COUNTS_NS)
    rng.shuffle(ns)
    return ns


def _partitions(k: int, largest: int | None = None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape by the hook-length formula."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def expected_singlet_count(k: int, n: int) -> int:
    """dim End_{SU(N)}(V^k): the sum of (f^l)^2 over l |- k with <= n rows."""
    return sum(_standard_tableaux(shape) ** 2
               for shape in _partitions(k) if len(shape) <= n)


def check_counts(k: int, ns, counts) -> list[str]:
    if len(counts) != len(ns):
        return [f"{len(counts)} counts for {len(ns)} queries"]
    return [f"singlet_count({k}, {n}) = {got}, expected {want}"
            for n, got in zip(ns, counts)
            if got != (want := expected_singlet_count(k, n))]


def check_digest(workload: str, stdout: bytes) -> list[str]:
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != GOLDEN_SHA256[workload]:
        return [f"stdout sha256 {digest} differs from the recorded "
                f"{GOLDEN_SHA256[workload]}"]
    return []


def check_normalized(stdout: bytes, ns=NORMALIZE_CHECK_NS) -> list[str]:
    """Dense check of a `trace-basis --normalized --format json` payload.

    At each integer N the states must be mutually orthogonal and each
    normalization beta_i must satisfy beta_i * <i|i> = 1.
    """
    import numpy as np
    from birdtracks.coefficients import RadicalCoefficient
    from birdtracks.diagrams import InvariantElement
    from birdtracks.numeric import evaluate_float

    try:
        states = json.loads(stdout)["states"]
        kets = [InvariantElement.from_json(s["element"]) for s in states]
        betas = [RadicalCoefficient.from_json(s["normalization"])
                 for s in states]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable payload: {exc!r}"]
    errors = []
    for n in ns:
        tensors = [evaluate_float(ket, n) for ket in kets]
        if any(np.any(t.imag) for t in tensors):
            errors.append(f"N={n}: a state has an imaginary entry")
            continue
        vecs = np.array([t.real.ravel() for t in tensors])
        gram = vecs @ vecs.T
        norms = np.sqrt(np.diag(gram))
        cosines = np.abs(gram) / np.outer(norms, norms)
        np.fill_diagonal(cosines, 0.0)
        i, j = np.unravel_index(np.argmax(cosines), cosines.shape)
        if cosines[i, j] > TOLERANCE:
            errors.append(f"N={n}: states {i} and {j} overlap, "
                          f"cosine {cosines[i, j]:.3e}")
        for i, beta in enumerate(betas):
            product = beta.eval_float(n) * gram[i, i]
            if abs(product - 1.0) > TOLERANCE:
                errors.append(f"N={n}: beta_{i} * <{i}|{i}> = {product!r}")
    return errors


def check_verify(stdout: bytes) -> list[str]:
    try:
        payload = json.loads(stdout)
        failed = payload["failed"]
        results = payload["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable payload: {exc!r}"]
    errors = [f"check {r.get('name')} failed" for r in results
              if not r.get("passed")]
    if failed != 0:
        errors.append(f"verify reports failed = {failed}")
    return errors
