"""The three benchmark workloads: seeded inputs, warm-up passes and oracles.

Every workload is a closed loop with one client: the next request starts
only after the previous one returned, as a caller of the one-shot CLI
waits for each reply.  A workload is a sequence of *cycles*; each cycle is
a fixed mix of request kinds in an order drawn from the seed, with every
matrix, form, file and small size drawn from the same generator.  The large
sizes of ``scale`` follow a fixed ladder instead, because its costs grow
like n^6: two seeds then give the same cost profile with different inputs,
and the median and tail each fall inside the samples of one request kind.

Each request carries an oracle.  Outputs with no floating point in them
(``census``, ``irreps``, ``classify``) must match the SHA-256 digests in
``reference.json``, recorded with ``record_reference.py``; everything else
is checked by invariants (residuals, reconstruction, orthonormality,
orbit membership, dimensions the benchmark knows because it built the
input), which stay valid when an optimisation changes rounding.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import manirep.cli as cli
from manirep import embeddings as E
from manirep import gmodules as M
from manirep import numkit as K

HERE = Path(__file__).resolve().parent

RESIDUAL_MAX = 1e-9
RECONSTRUCT_REL = 1e-9
ORTHONORMAL_TOL = 1e-10
COLD_TIMEOUT_S = 60


@dataclass
class Request:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Context:
    """Where a run writes its generated input files; how cold requests run.

    With ``traced`` set, each cold request runs ``traced_cli.py`` under
    ``python -X importtime`` instead of ``python -m manirep`` and leaves its
    import log and trace summary in ``child_traces``.
    """

    workdir: Path
    traced: bool = False
    child_traces: list = field(default_factory=list)
    _files: int = 0

    def write_matrix(self, X: np.ndarray) -> str:
        self._files += 1
        path = self.workdir / f"m{self._files}.json"
        path.write_text(json.dumps(K.Mat.from_array(X).to_json()))
        return str(path)


def digest(out) -> str:
    """Stable digest of a request's output, for traced-versus-untraced checks."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(out)
    return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# request builders


def in_process(kind: str, argv: list[str], check: Callable[[str], bool]) -> Request:
    """A CLI request served by ``cli.main`` in this process."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return Request(kind, run, lambda out: out[0] == 0 and check(out[1]))


def cold(ctx: Context, kind: str, argv: list[str], check: Callable[[str], bool]) -> Request:
    """A CLI request served by a fresh ``python -m manirep`` process."""

    def run():
        if ctx.traced:
            summary = ctx.workdir / f"trace{len(ctx.child_traces)}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"), str(summary)]
        else:
            cmd = [sys.executable, "-m", "manirep"]
        p = subprocess.run(cmd + argv, capture_output=True, text=True, cwd=ctx.workdir,
                           timeout=COLD_TIMEOUT_S)
        if ctx.traced:
            ctx.child_traces.append((p.stderr, summary))
        return p.returncode, p.stdout

    return Request(kind, run, lambda out: out[0] == 0 and check(out[1]))


def _residual_ok(text: str) -> bool:
    return json.loads(text)["residual"] <= RESIDUAL_MAX


@functools.cache
def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _digest_is(table: str, key: str) -> Callable[[str], bool]:
    want = reference()[table][key]
    return lambda text: _sha(text) == want


def _flags(md: E.ManifoldDescriptor) -> list[str]:
    out = ["--manifold", md.family, "--n", str(md.n)]
    for flag, val in (("--k", md.k), ("--p", md.p), ("--field", md.field)):
        if val is not None:
            out += [flag, str(val)]
    for flag, val in (("--ks", md.ks), ("--pq", md.pq), ("--sizes", md.sizes)):
        if val is not None:
            out += [flag, ",".join(map(str, val))]
    return out


def grow(md: E.ManifoldDescriptor, g: int) -> E.ManifoldDescriptor:
    """The same manifold row, ``g`` sizes above its smallest legal one."""
    if md.family == "gr-indefinite":
        return replace(md, sizes=(md.sizes[0] + g, md.sizes[1]))
    return replace(md, n=md.n + g)


def _on_orbit(md: E.ManifoldDescriptor) -> Callable[[str], bool]:
    def check(text):
        X = K.Mat.from_json(json.loads(text)["value"]).to_array()
        return bool(E.on_orbit(md, X))

    return check


def _dim_is(want: int, key: str = "dim") -> Callable[[str], bool]:
    return lambda text: json.loads(text)[key] == want


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0))


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


ROWS = E.all_smallest_legal()
CARTAN_SMALLEST = {"AI": (3, None), "AII": (2, None), "AIII": (4, 2), "BDI": (4, 2),
                   "DIII": (2, None), "CI": (2, None), "CII": (3, 1)}


def cartan_argv(ctype: str, g: int, trials: int, seed: int) -> list[str]:
    n, k = CARTAN_SMALLEST[ctype]
    argv = ["cartan", "--type", ctype, "--n", str(n + g), "--trials", str(trials),
            "--seed", str(seed)]
    return argv + (["--k", str(k)] if k is not None else [])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


# ---------------------------------------------------------------------------
# census

CENSUS_GROUPS = {
    "SL9C": ["--group", "SL", "--n", "9", "--field", "C"],
    "SO19C": ["--group", "SO", "--n", "19", "--field", "C"],
    "Sp10C": ["--group", "Sp", "--n", "10", "--field", "C"],
    "Sp10R": ["--group", "Sp", "--n", "10", "--field", "R"],
    "SU9": ["--group", "SU", "--n", "9"],
    "SpCompact10": ["--group", "SpCompact", "--n", "10"],
}
# Sp_10(C) four times: a run of three or more cycles then has more than ten
# samples on the exact-similarity hot path, so latency_tail_ms reads that
# path.  SO_19(C) twice puts the median in the middle of the SO_19(C)
# samples, whose cost is steady, instead of between two kinds of request.
CENSUS_MIX = ("SU9", "SpCompact10", "SL9C", "Sp10R", "SO19C", "SO19C",
              "Sp10C", "Sp10C", "Sp10C", "Sp10C")


def census_request(key: str) -> Request:
    return in_process(f"census {key}", ["census"] + CENSUS_GROUPS[key], _digest_is("census", key))


def census_warm_up(ctx: Context) -> list[Request]:
    return [census_request(key) for key in CENSUS_GROUPS]


def census_cycle(rng: np.random.Generator, ctx: Context) -> list[Request]:
    return [census_request(CENSUS_MIX[i]) for i in rng.permutation(len(CENSUS_MIX))]


# ---------------------------------------------------------------------------
# verify and cartan requests (served cold in ``cli_cold``)

VERIFY_TRIALS = 20
CARTAN_TRIALS = 10


def verify_argv(md: E.ManifoldDescriptor, seed: int) -> list[str]:
    return ["verify"] + _flags(md) + ["--trials", str(VERIFY_TRIALS), "--seed", str(seed)]


# ---------------------------------------------------------------------------
# scale

# n = 30 twice: the two bases and the congruence request are the three slowest
# kinds, so latency_tail_ms falls well inside their samples, mostly on the n^6
# path, and the median among the mid-sized requests (similarity, tangent_dim).
BASIS_SIZES = (16, 30, 30)
TANGENT_SIZE = 33
TAKAGI_SIZES = (50, 75)
SIMILARITY_SIZE, SIMILARITY_CLASSES = 250, 4
CONGRUENCE_SIZE = 240
LARGE_IRREPS = ("SL", 9, 10**8)  # 4,467 weights
#: module kinds with a twisting form: (kind, form is skew)
TWISTED_KINDS = (("Sym2Traceless", False), ("Alt2", False),
                 ("Sym2TracelessForm", True), ("Alt2Form", True))


def _form(rng: np.random.Generator, n: int, skew: bool) -> np.ndarray:
    """A well-conditioned nondegenerate symmetric or skew form."""
    Q = _orthogonal(rng, n)
    mags = rng.uniform(1.0, 2.0, n // 2 if skew else n)
    if skew:
        return Q @ K.youla_blocks(list(mags), n) @ Q.T
    return Q @ np.diag(mags * rng.choice([-1.0, 1.0], n)) @ Q.T


def basis_request(rng: np.random.Generator, n: int) -> Request:
    kind, skew = TWISTED_KINDS[int(rng.integers(len(TWISTED_KINDS)))]
    m = M.ModuleDescriptor(kind, n, "R", form=_form(rng, n, skew))
    X = rng.standard_normal((n, n))

    def run():
        return M.basis(m), M.project(m, X)

    def check(out):
        b, P = out
        if len(b) != M.module_dim(m):
            return False
        B = np.array(b).reshape(len(b), -1)
        if np.abs(B @ B.T - np.eye(len(b))).max() > ORTHONORMAL_TOL:
            return False
        return all(M.contains(m, Z) for Z in b) and M.contains(m, P)

    return Request("basis", run, check)


def tangent_request(rng: np.random.Generator, n: int) -> Request:
    k = int(rng.integers(2, n // 2 + 1))
    md = E.ManifoldDescriptor("gr-real", n, k=k)
    return Request("tangent_dim", lambda: E.tangent_dim(md), lambda d: d == k * (n - k))


def takagi_request(rng: np.random.Generator, n: int) -> Request:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = A + A.T

    def check(out):
        U, s = out
        return (_rel(U @ np.diag(s) @ U.T, X) <= RECONSTRUCT_REL
                and _rel(U.conj().T @ U, np.eye(n)) <= RECONSTRUCT_REL)

    return Request("takagi", lambda: K.takagi(X), check)


def youla_request(rng: np.random.Generator, n: int) -> Request:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = A - A.T

    def check(out):
        Q, lams, r = out
        return r == n // 2 and _rel(Q @ K.youla_blocks(lams, n) @ Q.T, X) <= RECONSTRUCT_REL

    return Request("youla_skew", lambda: K.youla_skew(X), check)


def similarity_request(ctx: Context, rng: np.random.Generator, n: int) -> Request:
    """Numeric similarity of a symmetric matrix with planned multiplicities."""
    r = SIMILARITY_CLASSES
    cuts = np.sort(rng.choice(np.arange(1, n), r - 1, replace=False))
    mults = np.diff(np.concatenate([[0], cuts, [n]]))
    values = rng.choice(np.arange(1, 4 * r + 1), r, replace=False).astype(float)
    Q = _orthogonal(rng, n)
    X = Q @ np.diag(np.repeat(values, mults)) @ Q.T
    path = ctx.write_matrix((X + X.T) / 2)
    argv = ["stabilizer", "--action", "similarity", "--mode", "numeric", "--matrix", path]
    return in_process("stabilizer", argv, _dim_is(int((mults**2).sum()), "commutant_dim"))


def congruence_request(ctx: Context, rng: np.random.Generator, n: int) -> Request:
    """Congruence stabilizer of a real symmetric matrix of planned rank r."""
    r = n - int(rng.integers(1, 11))
    vals = np.concatenate([rng.uniform(1.0, 3.0, r) * rng.choice([-1.0, 1.0], r), np.zeros(n - r)])
    Q = _orthogonal(rng, n)
    X = Q @ np.diag(vals) @ Q.T
    path = ctx.write_matrix((X + X.T) / 2)
    want = r * (r - 1) // 2 + (n - r) ** 2 + r * (n - r)  # O_r, GL_{n-r}, free block
    argv = ["stabilizer", "--action", "congruence-sym", "--matrix", path]
    return in_process("stabilizer", argv, _dim_is(want))


def irreps_request(algebra: str, n: int, bound: int, table: str = "irreps") -> Request:
    argv = ["irreps", "--algebra", algebra, "--n", str(n), "--bound", str(bound)]
    return in_process("irreps", argv, _digest_is(table, f"{algebra},{n},{bound}"))


def scale_warm_up(ctx: Context) -> list[Request]:
    rng = np.random.default_rng(0)
    return [basis_request(rng, 8), tangent_request(rng, 8), takagi_request(rng, 8),
            youla_request(rng, 8), similarity_request(ctx, rng, 20),
            congruence_request(ctx, rng, 20), irreps_request(*LARGE_IRREPS)]


def scale_cycle(rng: np.random.Generator, ctx: Context) -> list[Request]:
    reqs = [basis_request(rng, n) for n in BASIS_SIZES]
    reqs.append(tangent_request(rng, TANGENT_SIZE))
    for n in TAKAGI_SIZES:
        reqs += [takagi_request(rng, n), youla_request(rng, n)]
    reqs += [similarity_request(ctx, rng, SIMILARITY_SIZE),
             congruence_request(ctx, rng, CONGRUENCE_SIZE),
             irreps_request(*LARGE_IRREPS)]
    return [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# cli_cold

SMALL_IRREPS = (("SL", 4, 50), ("SO", 7, 100), ("SP", 3, 100), ("SL", 6, 200))
CLASSIFY = (("SL", "6", "C", "1,1,0,0"), ("SO", "9", "R", "2,0,1"), ("Sp", "8", "C", "1,1,0"),
            ("SU", "5", "C", "1"), ("SpCompact", "6", "C", "1,1"), ("SL", "4", "R", "0,0,1,1"))


def classify_key(fam: str, n: str, fld: str, mults: str) -> str:
    return f"{fam},{n},{fld},{mults}"


def classify_argv(fam: str, n: str, fld: str, mults: str) -> list[str]:
    return ["classify", "--group", fam, "--n", n, "--field", fld, "--multiplicities", mults]


def sl_weyl_dim(n: int, kappa: tuple[int, ...]) -> int:
    """Independent type-A Weyl dimension: prod (l_i - l_j + j - i) / (j - i)."""
    lam = [sum(kappa[i:]) for i in range(n - 1)] + [0]
    out = Fraction(1)
    for i, j in combinations(range(n), 2):
        out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return int(out)


def cli_cold_cycle(rng: np.random.Generator, ctx: Context) -> list[Request]:
    n = int(rng.integers(3, 10))
    kappa = tuple(int(k) for k in rng.integers(0, 4, n - 1))
    dims = ["dims", "--algebra", "SL", "--n", str(n), "--kappa", ",".join(map(str, kappa))]
    alg, m, bound = SMALL_IRREPS[int(rng.integers(len(SMALL_IRREPS)))]
    cls = CLASSIFY[int(rng.integers(len(CLASSIFY)))]
    md = grow(ROWS[int(rng.integers(len(ROWS)))], int(rng.integers(2)))
    rows, k = int(rng.integers(4, 9)), int(rng.integers(1, 4))
    stab = ["stabilizer", "--action", "left-mult",
            "--matrix", ctx.write_matrix(rng.standard_normal((rows, k)))]
    ctype = list(CARTAN_SMALLEST)[int(rng.integers(len(CARTAN_SMALLEST)))]
    checked = grow(ROWS[int(rng.integers(len(ROWS)))], int(rng.integers(2)))
    reqs = [
        cold(ctx, "dims", dims, _dim_is(str(sl_weyl_dim(n, kappa)))),
        cold(ctx, "irreps", ["irreps", "--algebra", alg, "--n", str(m), "--bound", str(bound)],
             _digest_is("irreps", f"{alg},{m},{bound}")),
        cold(ctx, "classify", classify_argv(*cls), _digest_is("classify", classify_key(*cls))),
        cold(ctx, "embed", ["embed"] + _flags(md), _on_orbit(md)),
        # a generic n x k frame has rank k: GL_{n-k} block plus the free k x (n-k) block
        cold(ctx, "stabilizer", stab, _dim_is((rows - k) ** 2 + k * (rows - k))),
        cold(ctx, "cartan", cartan_argv(ctype, 0, CARTAN_TRIALS, _seed(rng)), _residual_ok),
        cold(ctx, "verify", verify_argv(checked, _seed(rng)), _residual_ok),
    ]
    return [reqs[i] for i in rng.permutation(len(reqs))]


def no_warm_up(ctx: Context) -> list[Request]:
    return []


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warm_up: Callable[[Context], list[Request]]
    cycle: Callable[[np.random.Generator, Context], list[Request]]
    cold: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("census",
             "shared work: census of six recurring groups through cli.main; "
             "the sympy exact-similarity path dominates and the Lie-basis cache serves repeats",
             census_warm_up, census_cycle),
    Workload("scale",
             "large fresh inputs, no shared cache keys: n^6 null-space bases, dense "
             "Takagi/Youla kernels, Mat JSON files of hundreds of rows, Weyl enumeration",
             scale_warm_up, scale_cycle),
    Workload("cli_cold",
             "one fresh python -m manirep process per light request: start-up and "
             "imports, the cost every one-shot CLI caller pays; verify runs the equivariance checks",
             no_warm_up, cli_cold_cycle, cold=True),
)}
