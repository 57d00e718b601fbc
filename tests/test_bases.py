"""Structured bases against the elementary-matrix null space they replaced."""

import dataclasses
import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from manirep import gmodules
from manirep import groups as G
from manirep import numkit
from manirep.errors import ManirepError
from manirep.gmodules import KINDS, ModuleDescriptor, basis, contains, module_dim, project
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
    check_basis(m, m)


def check_basis(m, plain):
    """basis(m) has module_dim elements, orthonormal under the kind's pairing (real for a
    real field), each in m, and spans the oracle space of ``plain``, m or m with its form
    unscaled (a form scaled by 2^e moves the oracle's relative cutoff, not the module)."""
    new = basis(m)
    old = module_oracle(plain)
    assert new.shape == (module_dim(m),) + m.shape
    assert len(old) == len(new)
    if not len(new):
        return
    real_span = m.field == "R"
    flat = new.reshape(len(new), -1)
    gram = flat.conj() @ flat.T
    np.testing.assert_allclose(gram.real if real_span else gram, np.eye(len(new)), atol=1e-12)
    assert all(contains(m, b) for b in new)
    assert largest_angle(new, old, real_span) < 1e-10


def _unitary(rng, n, complex_entries):
    Z = rng.standard_normal((n, n))
    if complex_entries:
        Z = Z + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(Z)[0]


@st.composite
def twisted_modules(draw):
    """A module of any membership kind, either field, n <= 8, and, for a kind with a form
    condition, a dense, signature, J or Youla-block form (the last three with repeated
    singular values), scaled by 2^e; with it the same module under the unscaled form."""
    kind = draw(st.sampled_from([k for k, row in KINDS.items() if row.membership]))
    row = KINDS[kind]
    n = draw(st.sampled_from([2, 4, 6, 8]) if row.skew_form else st.integers(1, 8))
    field = "R" if row.real_structure else draw(st.sampled_from(["R", "C"]))
    k = draw(st.integers(1, n)) if kind == "RectNK" else None
    if not any(c.__name__.startswith("_form") for c in row.conditions):
        m = ModuleDescriptor(kind, n, field, k)
        return m, m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the compact kinds take a unitary congruence of J, so their dense form is U J U^T
    shape = draw(st.sampled_from(["dense", "J"] if row.real_structure else
                                 ["dense", "J", "Youla"] if row.skew_form else
                                 ["dense", "signature"]))
    mags = rng.uniform(1.0, 2.0, n // 2 if row.skew_form else n)
    if shape == "J" or row.real_structure:
        F = G.J2n(n)
    elif shape == "signature":
        F = np.diag(rng.choice([-1.0, 1.0], n))
    elif row.skew_form:  # Youla blocks; each magnitude twice: singular values of multiplicity 4
        F = numkit.youla_blocks(list(np.repeat(mags[::2], 2)[: n // 2] if shape == "Youla"
                                     else mags), n)
    else:
        F = np.diag(mags * rng.choice([-1.0, 1.0], n))
    if shape == "dense":
        Q = _unitary(rng, n, field == "C" or row.real_structure)
        F = Q @ F @ Q.T
    scaled = F * 2.0 ** draw(st.integers(-40, 60))
    return ModuleDescriptor(kind, n, field, k, scaled), ModuleDescriptor(kind, n, field, k, F)


@given(twisted_modules())
@settings(max_examples=200, deadline=None)
def test_basis_is_an_orthonormal_basis_of_the_module(pair):
    check_basis(*pair)


@pytest.mark.parametrize("m", [ModuleDescriptor("Sym2TracelessForm", 2),
                               ModuleDescriptor("Sym2TracelessForm", 2, "C", form=8 * G.J2n(2)),
                               ModuleDescriptor("Alt2", 1), ModuleDescriptor("Alt2", 1, "C")],
                         ids=repr)
def test_empty_modules_have_empty_bases(m):
    assert module_dim(m) == 0
    assert basis(m).shape == (0, m.n, m.n)


def test_a_basis_of_the_wrong_length_raises(monkeypatch):
    """A kernel cut that lands one short of the module's dimension is an error, not a
    silently short basis: with Alt2's dimension formula off by one, basis raises."""
    row = KINDS["Alt2"]
    monkeypatch.setitem(KINDS, "Alt2",
                        dataclasses.replace(row, dim=lambda n, k: row.dim(n, k) + 1))
    monkeypatch.setattr(numkit, "_bases", OrderedDict())
    with pytest.raises(ManirepError, match="wrong length"):
        basis(ModuleDescriptor("Alt2", 5))


def test_bases_and_commutants_take_no_qr(monkeypatch):
    """Orthonormal kernel coefficients of orthonormal generators need no QR."""
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    monkeypatch.setattr(numkit, "_bases", OrderedDict())
    for m in MODULES:  # a fresh copy: a basis under a form is held by its own descriptor
        m = dataclasses.replace(m)
        assert basis(m).shape == (module_dim(m),) + m.shape
    X = _jordan([(2.0, 2), (2.0, 1), (-1.0, 1)])
    A = commutant_sample(X, 0)
    assert np.abs(A @ X - X @ A).max() < 1e-9


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


def test_basis_cache_is_bounded(monkeypatch):
    """Form-free keys share one LRU of ``BASIS_CACHE_SIZE`` entries, which serves a key's
    basis to every fresh descriptor of it and drops the least recent key first."""
    monkeypatch.setattr(numkit, "_bases", OrderedDict())
    sizes = range(2, 3 + 2 * numkit.BASIS_CACHE_SIZE)
    for n in sizes:
        basis(ModuleDescriptor("Alt2", n))
        assert len(numkit._bases) <= numkit.BASIS_CACHE_SIZE
    assert basis(ModuleDescriptor("Alt2", sizes[-1])) is basis(ModuleDescriptor("Alt2", sizes[-1]))
    assert G.lie_algebra_basis(G.so(5)) is G.lie_algebra_basis(G.so(5))
    keys = [desc_key for _, desc_key in numkit._bases]
    assert len(keys) == numkit.BASIS_CACHE_SIZE
    assert ("Alt2", sizes[-1], "R", None, None) in keys
    assert ("Alt2", sizes[0], "R", None, None) not in keys


def _form(rng, n, skew):
    A = rng.standard_normal((n, n))
    return A - A.T if skew else A + A.T + 2 * n * np.eye(n)


@pytest.mark.parametrize("make", [
    lambda F: ModuleDescriptor("Alt2", 4, form=F(False)),
    lambda F: ModuleDescriptor("Sym2TracelessForm", 4, "C", form=F(True)),
    lambda F: G.so(4, form=F(False)),
    lambda F: G.sp(4, "C", form=F(True)),
], ids=["Alt2", "Sym2TracelessForm", "so", "sp"])
def test_a_fresh_form_basis_is_freed_with_its_descriptor(make):
    """A basis under a fresh form, of a module or of a group's Lie algebra, is held by its
    descriptor, not by the shared LRU: its later calls reuse it, and it is released when the
    descriptor is collected."""
    rng = np.random.default_rng(5)
    desc = make(lambda skew: _form(rng, 4, skew))
    build = basis if isinstance(desc, ModuleDescriptor) else G.lie_algebra_basis
    lru = list(numkit._bases)
    b = build(desc)
    assert build(desc) is b
    assert list(numkit._bases) == lru
    ref = weakref.ref(b)
    del desc, b
    gc.collect()
    assert ref() is None


def test_basis_then_project_builds_the_basis_once(monkeypatch):
    """``project`` on the descriptor that ``basis`` was asked for reuses its basis under a
    fresh form, as a scale request does."""
    calls = []
    build = gmodules._basis
    monkeypatch.setattr(gmodules, "_basis", lambda m: calls.append(m) or build(m))
    rng = np.random.default_rng(7)
    m = ModuleDescriptor("Sym2", 6, form=_form(rng, 6, False))
    X = rng.standard_normal((6, 6))
    B = basis(m)
    P = project(m, X)
    assert len(calls) == 1
    assert all(contains(m, b) for b in B) and contains(m, P)
