"""Reference computations shared by several test modules, kept out of the library."""

from itertools import permutations

import numpy as np

from manirep.numkit import ALL, COMPLEX, REAL, frob, span_kernel, unit_stack


def commutant_sample(X: np.ndarray, seed: int, field: str | None = None) -> np.ndarray:
    """A generic invertible element commuting with X (numeric kernel basis)."""
    Xc = np.asarray(X, dtype=complex)
    if field is None:
        field = COMPLEX if np.abs(Xc.imag).max(initial=0.0) > 0 else REAL
    ns = span_kernel(unit_stack(ALL, len(Xc)), [lambda E: E @ Xc - Xc @ E], real=field == REAL)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(ns))
    if field == COMPLEX:
        coeff = coeff + 1j * rng.standard_normal(len(ns))
    Z = np.tensordot(coeff, ns, axes=1)  # real for a real field: real units, real coefficients
    # the identity is in every commutant; shifting by it forces invertibility
    return Z + (1.0 + frob(Z)) * np.eye(len(Xc))


def same_spectrum(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether some ordering of b lies within tol of a, entry by entry: a brute-force
    multiset match over all len(b)! orderings, for small spectra only."""
    return len(a) == len(b) and any(
        all(abs(x - y) <= tol for x, y in zip(a, perm)) for perm in permutations(b))
