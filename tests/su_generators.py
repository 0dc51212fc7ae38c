"""Explicit su(N) generators, the float oracle of the Fierz and trace tests."""

import math

import numpy as np


def generalized_gell_mann(n: int) -> list[np.ndarray]:
    """Traceless Hermitian generators of su(n) with Tr(t^a t^b) = delta^ab."""
    gens = []
    root_half = 1.0 / math.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[i, j] = sym[j, i] = root_half
            gens.append(sym)
            anti = np.zeros((n, n), dtype=complex)
            anti[i, j] = -1j * root_half
            anti[j, i] = 1j * root_half
            gens.append(anti)
    for m in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for i in range(m):
            diag[i, i] = 1.0
        diag[m, m] = -m
        diag /= math.sqrt(m * (m + 1))
        gens.append(diag)
    return gens
