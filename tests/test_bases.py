"""Structured bases against the elementary-matrix null space they replaced."""

import numpy as np
import pytest
import scipy.linalg

from manirep import groups as G
from manirep import numkit
from manirep.gmodules import KINDS, ModuleDescriptor, basis, module_dim
from manirep.stabilizers import stabilizer_similarity
from oracles import commutant_sample


def elementary_kernel(shape, conds, real_coefficients, imaginary_units):
    """Null space of ``conds`` over every elementary matrix of ``shape`` (and i times each
    with ``imaginary_units``): one dense SVD over all n * k or 2 n * k unknowns."""
    gens = np.eye(int(np.prod(shape)), dtype=complex)
    gens = np.concatenate([gens, 1j * gens]) if imaginary_units else gens
    if not conds:
        return gens.reshape(-1, *shape)
    A = np.array([np.concatenate([np.ravel(c(E.reshape(shape))) for c in conds]) for E in gens]).T
    A = np.vstack([A.real, A.imag]) if real_coefficients else A
    return (scipy.linalg.null_space(A, rcond=1e-11).T @ gens).reshape(-1, *shape)


def module_oracle(m):
    kind = KINDS[m.kind]
    F = m.form_matrix()
    conds = [lambda X, c=c: c(X, F) for c in kind.conditions]
    if kind.traceless:
        conds.append(lambda X: np.atleast_1d(np.trace(X)))
    return elementary_kernel(m.shape, conds, m.field == "R", kind.real_structure)


def largest_angle(A, B, real_span):
    """Largest principal angle between the spans of two (d, p, q) stacks."""
    def cols(S):
        flat = S.reshape(len(S), -1).T.astype(complex)
        return np.vstack([flat.real, flat.imag]) if real_span else flat

    return float(np.max(scipy.linalg.subspace_angles(cols(A), cols(B))))


def _random_form(rng, n, skew, field, unitary):
    """A nondegenerate symmetric or skew form; proportional to a unitary one if asked."""
    if unitary:
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U = np.linalg.qr(Z)[0]
        return U @ G.J2n(n) @ U.T
    A = rng.standard_normal((n, n))
    if field == "C":
        A = A + 1j * rng.standard_normal((n, n))
    return A - A.T if skew else A + A.T + n * np.eye(n)


def _module_cases():
    rng = np.random.default_rng(2024)
    for kind, row in KINDS.items():
        if not row.membership:
            continue
        sizes = (2, 4, 12) if row.skew_form else (1, 2, 5, 12)
        fields = ("R",) if row.real_structure else ("R", "C")
        has_form = any(c.__name__.startswith("_form") for c in row.conditions)
        for n in sizes:
            for field in fields:
                k = max(1, n // 2) if kind == "RectNK" else None
                yield ModuleDescriptor(kind, n, field, k)
                if has_form:
                    form = _random_form(rng, n, row.skew_form, field, row.real_structure)
                    yield ModuleDescriptor(kind, n, field, k, form)


MODULES = list(_module_cases())


@pytest.mark.parametrize("m", MODULES, ids=lambda m: (
    f"{m.kind}-{m.n}{m.field}" + ("-form" if m.form is not None else "")))
def test_module_basis_spans_the_oracle_space(m):
    new = basis(m)
    old = module_oracle(m)
    assert new.shape == (module_dim(m),) + m.shape
    assert len(old) == len(new)
    if not len(new):
        return
    real_span = m.field == "R"
    flat = new.reshape(len(new), -1)
    gram = flat.conj() @ flat.T
    np.testing.assert_allclose(gram.real if real_span else gram, np.eye(len(new)), atol=1e-12)
    assert largest_angle(new, old, real_span) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_compact_symplectic_lie_basis_spans_the_oracle_space(n):
    g = G.sp_compact(n)
    new = G.lie_algebra_basis(g)
    Om = g.form_matrix()
    old = elementary_kernel((n, n), [lambda Z: Z.conj().T + Z, lambda Z: Z.T @ Om + Om @ Z],
                            True, True)
    assert len(new) == len(old) == G.group_dim(g)
    assert largest_angle(new, old, real_span=True) < 1e-10
    for Z in new:
        assert np.abs(Z.conj().T + Z).max() < 1e-12
        assert np.abs(Z.T @ Om + Om @ Z).max() < 1e-12


def _jordan(blocks):
    """Direct sum of Jordan blocks (eigenvalue, size)."""
    n = sum(size for _, size in blocks)
    J = np.zeros((n, n))
    pos = 0
    for lam, size in blocks:
        J[pos:pos + size, pos:pos + size] = lam * np.eye(size) + np.eye(size, k=1)
        pos += size
    return J


@pytest.mark.parametrize("blocks", [
    [(2.0, 1), (2.0, 1), (-1.0, 1)],
    [(0.0, 3), (0.0, 1)],
    [(1.0, 2), (1.0, 2), (3.0, 1)],
    [(0.5, 4), (0.5, 2), (0.5, 1), (-2.0, 2)],
])
def test_commutant_sample_kernel_has_the_commutant_dimension(blocks):
    X = _jordan(blocks)
    want = stabilizer_similarity(X).commutant_dim
    samples = [commutant_sample(X, seed) for seed in range(want + 3)]
    for A in samples:
        assert np.abs(A @ X - X @ A).max() < 1e-9
    assert np.linalg.matrix_rank(np.array([A.ravel() for A in samples]), tol=1e-8) == want


def test_rect_nk_over_c_has_module_dim_elements():
    m = ModuleDescriptor("RectNK", 5, "C", k=2)
    assert len(basis(m)) == module_dim(m) == 10


def test_bases_are_read_only():
    b = basis(ModuleDescriptor("Sym2Traceless", 4))
    with pytest.raises(ValueError):
        b[0, 0, 0] = 1.0
    lie = G.lie_algebra_basis(G.so(4))
    with pytest.raises(ValueError):
        lie[0] *= 2.0


def test_basis_cache_is_bounded():
    rng = np.random.default_rng(5)
    for _ in range(3 * numkit.BASIS_CACHE_SIZE):
        form = rng.standard_normal((4, 4))
        basis(ModuleDescriptor("Alt2", 4, form=form + form.T + 8 * np.eye(4)))
        assert len(numkit._bases) <= numkit.BASIS_CACHE_SIZE
    G.lie_algebra_basis(G.so(5))
    assert len(numkit._bases) == numkit.BASIS_CACHE_SIZE
