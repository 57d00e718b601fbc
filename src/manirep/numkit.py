"""Dense matrix kernel: JSON interchange, tolerant rank, bases, Takagi and Youla forms.

JSON interchange is ``Mat``: a matrix file or a result tree holds it as
``{"rows", "cols", "field", "data": [[re, im], ...]}``.  ``Mat.loads`` is the
one reader of matrix files: it parses the document's object with the
stdlib's object parser and a ``data`` list of pairs in bulk (its bracket
and comma skeleton, with number bytes only inside the pairs, checked by
``bytes.translate``, its numbers read by one ``json.loads``), then applies
``Mat.from_json``'s checks, which accept JSON numbers only.  Result trees
carry ``Mat`` leaves (``mat_to_json``), and ``dumps``, the one writer of the
CLI's documents, prints each leaf as that object, taking the ``data`` text
straight from the float array, its zeros from a lookup and the other
entries from ``float.__repr__``.

Standard factorizations (QR, Hermitian eigendecomposition, SVD) are taken
from numpy.  This module adds the two congruence canonical forms the rest
of the library needs but the stack does not provide:

* ``takagi``      -- X = U diag(sigma) U^T for complex symmetric X,
* ``youla_skew``  -- X = Q diag(lambda_1 * Omega_2, ..., 0) Q^T for skew X,

each read off one decomposition (a Hermitian eigendecomposition of a real
symmetric 2n x 2n matrix for Takagi, an SVD of X for Youla) and completed
to a unitary by the trailing columns of one complete QR.
``above_cutoff`` is the one rank rule, used wherever a rank or block size is
decided.  ``numerical_ranks`` ranks A on several column sets in one pass:
it finds the connected blocks of A's own nonzero pattern (rows and columns
joined by nonzero entries) once, so each A[:, s] is block diagonal in the
sub-blocks that s cuts from them; sets holding the same columns of a block
share a sub-block, each distinct sub-block takes part in one batched SVD per
shape, and one ``above_cutoff`` call decides every set, each on its own
singular values, so one cutoff holds for every block of a set;
``numerical_rank`` is its one set of every column.  The same label
propagation (``_labels``) gives the single-linkage ``clusters`` of a set of
eigenvalues, the one clustering rule.  Bases are built one way: a span of
mutually orthogonal generators, such as the unit matrices of ``unit_stack``,
cut by linear conditions (``span_kernel``, Householder reflections, no QR), kept
read-only by ``cached_basis``: a basis of a form-free key in one bounded LRU, one under a
form (a key that carries form bytes) by the descriptor that built it, until it is collected.
``pow2_below`` is the one scale that keeps every digit: the power of two at
or below the largest |entry|, by which ``frob``, ``youla_skew`` and the
module conditions and membership of :mod:`manirep.gmodules` divide.  Apart
from that cache all functions are pure.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, InvalidInput, NonFinite, NotSkew, NotSymmetric,
                     RankAmbiguous, SizeMismatch)

REAL = "R"
COMPLEX = "C"

ALL, SYM, SKEW, ANTI_HERMITIAN = "all", "sym", "skew", "anti-hermitian"

#: relative singular-value cutoff of the condition systems in ``span_kernel``
KERNEL_RCOND = 1e-11
#: form-free bases kept by ``cached_basis``: the Lie bases of a six-group census and a few
#: more; a basis under a form lives with its descriptor, as a fresh form never repeats
BASIS_CACHE_SIZE = 8

#: 2x2 rotation generator; building block of skew canonical forms.
OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used for all rank-type decisions."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-8

    def __post_init__(self):
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise ValueError("tolerances must be nonnegative")

    def cutoff(self, scale: float) -> float:
        return max(self.abs_eps, self.rel_eps * scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Mat:
    """A dense matrix tagged with its base field, for JSON interchange.

    Library functions operate on plain ndarrays (float64 for field ``R``,
    complex128 for ``C``); ``Mat`` exists so files and CLI payloads carry an
    unambiguous field tag.  ``data`` is a (rows * cols, 2) float array of the
    (re, im) pairs in row-major order, the layout of the JSON ``data`` list.
    """

    rows: int
    cols: int
    field: str
    data: np.ndarray

    @staticmethod
    def from_array(a: np.ndarray, field: str | None = None) -> "Mat":
        a = np.atleast_2d(np.asarray(a))
        if field is None:
            field = COMPLEX if np.iscomplexobj(a) else REAL
        if field == REAL and np.iscomplexobj(a):
            if np.abs(a.imag).max(initial=0.0) != 0.0:
                raise SizeMismatch("real-field matrix has nonzero imaginary part")
            a = a.real
        data = np.stack([a.real, a.imag], -1).reshape(-1, 2).astype(float, copy=False)
        return Mat(rows=a.shape[0], cols=a.shape[1], field=field, data=data)

    def to_array(self) -> np.ndarray:
        re = self.data[:, 0].reshape(self.rows, self.cols)
        if self.field == REAL:
            return re.copy()
        return re + 1j * self.data[:, 1].reshape(self.rows, self.cols)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field,
            "data": self.data.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "Mat":
        """The ``Mat`` of a parsed ``to_json`` object: the checks after parsing, which
        ``Mat.loads`` shares.  ``data`` is a list of [re, im] pairs of JSON numbers, or the
        ``_Entries`` that ``Mat.loads`` parsed from one."""
        try:
            field = obj["field"]
            if field not in (REAL, COMPLEX):
                raise SizeMismatch(f"unknown field tag {field!r}")
            entries = _entries(obj["data"])
            rows, cols = obj["rows"], obj["cols"]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"not a matrix object: {exc!r}") from exc
        try:
            data = np.asarray(entries, float).reshape(-1, 2)
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise NonFinite(f"matrix has an entry beyond the float range: {exc}") from exc
        if not np.isfinite(data).all():
            raise NonFinite("matrix has a NaN or infinite entry")
        if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
            raise InvalidInput("matrix sizes must be JSON integers, got "
                               f"{type(rows).__name__} x {type(cols).__name__}")
        if rows < 0 or cols < 0:
            raise InvalidInput(f"negative matrix size {rows} x {cols}")
        if max(rows, cols) > _MAX_SIDE:
            raise InvalidInput(f"matrix size {rows} x {cols} is beyond numpy's array sizes")
        if rows * cols != len(data):
            raise SizeMismatch("rows*cols does not match entry count")
        if field == REAL and data[:, 1].any():
            raise SizeMismatch("real-field matrix has nonzero imaginary part")
        return Mat(rows=rows, cols=cols, field=field, data=data)

    @staticmethod
    def loads(text: str) -> "Mat":
        """The ``Mat`` of a JSON document, decided as ``Mat.from_json(json.loads(text))`` is,
        with a ``data`` list of pairs parsed in bulk (``_value``)."""
        try:
            i = _WS(text).end()
            if not text.startswith("{", i):
                raise InvalidInput("not a matrix object")
            obj, i = json.decoder.JSONObject((text, i + 1), True, _value, None, None)
            if _WS(text, i).end() != len(text):
                raise ValueError(f"extra data at char {i}")
        except (ValueError, RecursionError) as exc:  # ValueError: not JSON
            raise InvalidInput(f"cannot read a matrix JSON file: {exc}") from exc
        return Mat.from_json(obj)


class _Entries(list):
    """The numbers of a list of [re, im] pairs, flattened by ``_value``."""


def _entries(pairs) -> list:
    """The numbers of a JSON ``data`` list, flattened; :class:`InvalidInput` unless it is a
    list of [re, im] pairs of JSON numbers.  A value that is not iterable raises TypeError."""
    if isinstance(pairs, _Entries):
        return pairs
    # flattened first, so types are checked and floats made in bulk; numpy would
    # coerce "1.5", true and null, and it reads a flat list faster than nested ones
    entries = list(itertools.chain.from_iterable(pairs))
    odd = set(map(type, entries)) - {int, float}
    if odd:
        raise InvalidInput("matrix entries must be JSON numbers, not "
                           + ", ".join(sorted(t.__name__ for t in odd)))
    if not isinstance(pairs, list) or set(map(len, pairs)) - {2}:
        raise InvalidInput("matrix data is not a list of [re, im] pairs")
    return entries


#: the longest side numpy gives a complex128 array, even one with no entries: it checks
#: each side times 16 bytes against the index range
_MAX_SIDE = np.iinfo(np.intp).max // 16
_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match
#: the end of a list of pairs: the first ``]`` that closes a pair and then the list
_PAIRS_END = re.compile(r"\][ \t\n\r]*\]")
#: JSON whitespace, and what a JSON number or JSON whitespace may hold
_WS_BYTES = b" \t\n\r"
_NUMBER_BYTES = b"0123456789+-.eE" + _WS_BYTES


def _value(text: str, i: int):
    """A top-level value of a matrix document and its end, for the stdlib's object parser.

    A list whose brackets and commas are exactly ``[[,],[,],...]``, with number bytes only
    inside the pairs (checked by ``bytes.translate``: the skeleton without number bytes and
    whitespace, and the k - 1 ``],[`` between k pairs with only whitespace removed), is the
    ``_Entries`` of one ``json.loads`` of its numbers, inner brackets stripped; whitespace
    stays, so a slot holds a valid number exactly when it does in ``text``.  Any other value
    is the stdlib decoder's."""
    end = _PAIRS_END.search(text, i) if text.startswith("[", i) else None
    if end:
        span = text[i:end.end()].encode("ascii", "replace")
        skeleton = span.translate(None, _NUMBER_BYTES)
        k = len(skeleton) // 4
        compact = span.translate(None, _WS_BYTES)
        if (skeleton == b"[" + b"[,]," * (k - 1) + b"[,]]" and compact.startswith(b"[[")
                and compact.count(b"],[") == k - 1):
            return _Entries(json.loads(b"[" + span.translate(None, b"[]") + b"]")), end.end()
    return _DECODER.raw_decode(text, i)


def mat_to_json(a: np.ndarray, field: str | None = None) -> Mat:
    """The JSON leaf of ``a`` in a result tree: a ``Mat``, which ``dumps`` writes as
    its ``to_json`` object."""
    return Mat.from_array(a, field)


def mat_from_json(obj: dict | Mat) -> np.ndarray:
    """The array of a ``to_json`` object, or of the ``Mat`` leaf itself."""
    return (obj if isinstance(obj, Mat) else Mat.from_json(obj)).to_array()


#: stands for a leaf's ``data`` in the first pass of ``dumps``, and its JSON text
_DATA = "\0data\0"
_DATA_TEXT = json.dumps(_DATA)


#: the text of a zero keyed by its sign bit; None stands for any other entry
_ZEROS = np.array(["0.0", "-0.0", None], dtype=object)


def _reprs(x: np.ndarray) -> list[str]:
    """``float.__repr__`` of each entry of a 1-d float array, the zeros looked up in
    ``_ZEROS`` by a vectorized key."""
    key = np.where(x == 0, np.signbit(x), 2)
    rest = key == 2
    text = _ZEROS[key]
    text[rest] = list(map(float.__repr__, x[rest].tolist()))
    return text.tolist()


def _data_text(m: Mat) -> str:
    """The compact JSON text of ``m.to_json()["data"]``, from the float array in bulk
    (``_reprs``), and for all-(+0.0) imaginary parts without them."""
    if not np.isfinite(m.data).all():
        raise NonFinite("the result holds NaN or an infinity")
    if not len(m.data):
        return "[]"
    im = m.data[:, 1]
    if not (im.any() or np.signbit(im).any()):
        return "[[" + ",0.0],[".join(_reprs(m.data[:, 0])) + ",0.0]]"
    text = _reprs(m.data.ravel())
    return "[[" + "],[".join(map(",".join, zip(text[::2], text[1::2]))) + "]]"


def dumps(tree, pretty: bool = False) -> str:
    """The JSON text of a result tree, keys sorted: compact, or indented by 2 with ``pretty``.

    The one writer of the CLI's documents.  ``Mat`` leaves read as their ``to_json``
    object.  Compact text is one ``json.dumps`` pass that writes each leaf's ``data`` as a
    placeholder, then the data texts of ``_data_text`` spliced in; should a string in the
    tree hold the placeholder, so that the pieces do not match the leaves, the tree is
    written again with plain leaves.  NaN or an infinity raises :class:`NonFinite`."""
    leaves: list[Mat] = []

    def plain(obj):
        if not isinstance(obj, Mat):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return obj.to_json()

    def marked(obj):
        if not isinstance(obj, Mat):
            return plain(obj)
        leaves.append(obj)
        return {"rows": obj.rows, "cols": obj.cols, "field": obj.field, "data": _DATA}

    def encode(default):
        try:
            return json.dumps(tree, sort_keys=True, allow_nan=False, default=default,
                              indent=2 if pretty else None,
                              separators=None if pretty else (",", ":"))
        except ValueError as exc:
            raise NonFinite("the result holds NaN or an infinity") from exc

    if pretty:
        return encode(plain)
    parts = encode(marked).split(_DATA_TEXT)
    if len(parts) != len(leaves) + 1:
        return encode(plain)
    return "".join(itertools.chain.from_iterable(zip(parts, map(_data_text, leaves)))) + parts[-1]


def pow2_below(a) -> float:
    """The power of two at or below the largest |entry| of ``a`` (2^(e-1) for the ``frexp``
    exponent e of max |a|), and 1/2 when every entry is zero or ``a`` is empty.  Dividing by
    it keeps every digit and brings the largest entry into [1, 2)."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(a), initial=0.0)))[1] - 1)


def frob(a: np.ndarray) -> float:
    """The Frobenius norm of ``a``.  When the squares of finite entries overflow, it is taken
    in a / ``pow2_below(a)`` and scaled back, so only a norm beyond the float range is inf."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(a))
    if n == math.inf and np.isfinite(a).all():
        scale = pow2_below(a)
        n = float(np.linalg.norm(np.divide(a, scale))) * scale
    return n


def require_square(X: np.ndarray) -> int:
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {X.shape}")
    return X.shape[0]


def numerical_rank(X: np.ndarray, tol: Tolerance = DEFAULT_TOL, *, strict: bool = False) -> int:
    """Number of singular values of X that ``above_cutoff`` keeps: ``numerical_ranks`` of X
    on all its columns."""
    X = np.asarray(X)
    return numerical_ranks(X, [np.arange(X.shape[1])], tol, strict=strict)[0]


def numerical_ranks(A: np.ndarray, column_sets, tol: Tolerance = DEFAULT_TOL, *,
                    strict: bool = False) -> list[int]:
    """The ``numerical_rank`` of A[:, s] for each set s of column indices, in one pass.

    A[:, s] is block diagonal along the connected blocks of A, so its singular values are
    those of its sub-blocks, the blocks of A on the columns of s (``_blocks``).  Sets that
    hold the same columns of a block share that sub-block, and each distinct sub-block is
    taken once, in one batched SVD per shape, each matrix tall (B and B^T have the same
    singular values).  The values are gathered by set, and one ``above_cutoff`` call decides
    them all, each set as one segment holding those of all its sub-blocks, so each set keeps
    its own cutoff, ``tol.cutoff`` of its largest singular value, as for its dense SVD, and
    its own ``strict`` band and :class:`NonFinite` rule.
    """
    A = np.asarray(A, complex if np.iscomplexobj(A) else float)
    member = np.zeros((len(column_sets), A.shape[1]), bool)
    for t, cols in enumerate(column_sets):
        member[t, np.asarray(cols, int)] = True
    owner, s = [np.zeros(0, int)], [np.zeros(0)]
    for (t, j), stack in _blocks(A, member):
        vals = np.linalg.svd(stack if stack.shape[1] >= stack.shape[2] else stack.mT,
                             compute_uv=False)
        s.append(vals[j].ravel())
        owner.append(np.repeat(t, vals.shape[1]))
    owner, s = np.concatenate(owner), np.concatenate(s)
    order = np.argsort(owner)  # set by set
    owner, s = owner[order], s[order]
    keep = above_cutoff(s, tol, strict=strict,
                        ends=np.cumsum(np.bincount(owner, minlength=len(member))))
    return np.bincount(owner[keep], minlength=len(member)).tolist()


def _labels(r: np.ndarray, c: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of m rows and n columns joined by the edges (r_i, c_i), listed row by
    row (r ascending), by label propagation.

    Rows and columns are the nodes of a bipartite graph.  Labels are row numbers.  A pass
    gives each column the least label of its rows and stops once the columns of each row
    share one label, which is then the label of the row's component.  Otherwise each row and
    the row its label names take the least label of the row's columns, and each row its
    label's label, so labels only fall, stay inside their component, and meet in a few
    passes.  Each component ends labelled by its least row; rows and columns with no edge,
    in no component, get the label m."""
    bounds = np.searchsorted(r, np.arange(m + 1))
    live = np.flatnonzero(np.diff(bounds))
    starts = bounds[live]
    rl, cl = np.arange(m), np.full(n, m)
    while True:
        np.minimum.at(cl, c, rl[r])
        ends = cl[c]
        lo = np.minimum.reduceat(ends, starts)
        if np.array_equal(lo, np.maximum.reduceat(ends, starts)):
            break
        np.minimum.at(rl, rl[live], lo)
        rl[live] = np.minimum(rl[live], lo)
        rl = rl[rl]
    rl = np.full(m, m)
    rl[live] = lo
    return rl, cl


def _blocks(A: np.ndarray, member: np.ndarray):
    """The distinct sub-blocks of A on the column sets member[t], as ((t, j), stack) pairs:
    one (k, p, q) stack per shape and field, and for each set t that holds matrix j of the
    stack, t and j, as two index arrays.

    The blocks of A are the components of ``_labels`` on A's own nonzero pattern (rows and
    columns joined by nonzero entries), found once for all sets; a block's rows and columns
    keep their order in A.  Set t's sub-block of block k is A on the rows of k and the
    columns of k that t holds, if any.  Sets holding the same columns of a block hold one
    sub-block: a set's columns of a block are read as bits, 31 to a chunk, and each chunk
    refines a code of the (set, block) pairs by one ``np.unique``.  A sub-block is real when
    its columns have zero imaginary part.  All-zero rows and columns, whose singular values
    are 0, are in no block.  One set holding every column of a dense A is one block, A
    itself, not a copy."""
    m, n = A.shape
    whole = len(member) == 1 and member.all()  # one set: every column
    flat = np.flatnonzero(A != 0)  # row by row
    if whole and 0 < len(flat) == A.size:  # dense: one block, found without labels or gather
        B = A if np.iscomplexobj(A) and A.imag.any() else A.real
        yield (np.zeros(1, int), np.zeros(1, int)), B[None]
        return
    r, c = np.divmod(flat, n)
    imag = np.zeros(n, bool)  # the columns with an entry off the real line
    if np.iscomplexobj(A):
        imag[c[A.ravel()[flat].imag != 0]] = True
    rl, cl = _labels(r, c, m, n)
    p, q = np.bincount(rl, minlength=m + 1)[:m], np.bincount(cl, minlength=m + 1)[:m]
    label = np.flatnonzero(p)  # blocks, labelled by their least row
    p, q = p[label], q[label]
    if not len(q):
        return
    # rows and columns block by block, in their order in A; those in no block are cut
    R, C = np.argsort(rl, kind="stable")[:p.sum()], np.argsort(cl, kind="stable")[:q.sum()]
    r0, c0 = np.cumsum(p) - p, np.cumsum(q) - q  # each block's first row in R, column in C
    if whole:  # the sub-blocks are the blocks
        t, sub, block = np.zeros(len(q), int), np.arange(len(q)), np.arange(len(q))
        width, cols, head = q, C, c0
    else:
        place = (np.arange(len(C)) - np.repeat(c0, q)).astype(np.int32)
        held = member[:, C]
        bits = np.add.reduceat(held << place % 31, np.flatnonzero(place % 31 == 0), axis=1)
        nch = (q + 30) // 31
        f = np.cumsum(nch) - nch  # each block's first chunk
        count = np.add.reduceat(np.bitwise_count(bits), f, axis=1, dtype=int)
        t, sub = np.nonzero(count)  # (set, block) pairs that share a column, set by set
        block = sub
        for i in range(nch.max()):  # codes stay below 2^32, one per (set, block) pair
            at = np.minimum(f[block] + i, bits.shape[1] - 1)
            chunk = np.where(nch[block] > i, bits[t, at], 0)
            sub = np.unique(sub << 31 | chunk, return_inverse=True)[1]
        rep = np.zeros(sub.max(initial=-1) + 1, int)
        rep[sub] = np.arange(len(sub))  # a pair holding each sub-block
        block, width = block[rep], count[t[rep], block[rep]]
        # the columns of each sub-block: those of its block that its pair's set holds
        qb = q[block]
        own = np.repeat(np.arange(len(rep)), qb)
        at = C[np.arange(len(own)) + np.repeat(c0[block] - np.cumsum(qb) + qb, qb)]
        cols, head = at[member[t[rep][own], at]], np.cumsum(width) - width
    real = ~np.logical_or.reduceat(imag[cols], head)
    shape = (p[block] * (n + 1) + width) * 2 + real  # by sub-block: shape, field
    order = np.argsort(shape)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))  # each sub-block's place in shape order
    j = place[sub]
    by = np.argsort(j)  # pairs by sub-block
    t, j = t[by], j[by]
    ends = (np.flatnonzero(np.diff(shape[order], append=-1)) + 1).tolist()
    for a, b in zip([0, *ends], ends):  # the sub-blocks order[a:b] of one shape
        u = order[a:b]
        rows = R[r0[block[u], None] + np.arange(p[block[u[0]]])]
        at = cols[head[u, None] + np.arange(width[u[0]])]
        lo, hi = j.searchsorted(a), j.searchsorted(b)
        yield ((t[lo:hi], j[lo:hi] - a),
               (A.real if real[u[0]] else A)[rows[:, :, None], at[:, None, :]])


def clusters(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage clusters of finite real or complex values: the components of the graph
    joining v_i and v_j when |v_i - v_j| <= radius, found by ``_labels``.  Each cluster is an
    ascending index array; clusters are ordered by their least index."""
    v = np.ravel(values)
    if not v.size:
        return []
    labels = _labels(*np.nonzero(np.abs(v[:, None] - v) <= radius), len(v), len(v))[0]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def above_cutoff(
    s: np.ndarray, tol: Tolerance = DEFAULT_TOL, *, strict: bool = False, ends=None
) -> np.ndarray:
    """Mask of the values with |s_i| above ``max(abs_eps, rel_eps * max |s|)``: the one rank rule.

    With ``strict=True`` a value within ``abs_eps`` of the cutoff and within a factor of two
    of it raises :class:`RankAmbiguous` instead of being silently classified.  The factor keeps
    the band off 0 when the cutoff is ``abs_eps`` itself, so roundoff-level values of a small
    rank-deficient matrix are not ambiguous.  A NaN or infinite value, such as the singular
    value of a matrix whose norm overflows, leaves no cutoff and raises :class:`NonFinite`.

    With ``ends``, the ascending ends of consecutive segments, the last of them len(s), one
    call decides each segment s[a:b] as a call on it alone would: against its own largest
    value, with its own ``strict`` band.
    """
    s = np.abs(np.asarray(s))
    ends = np.asarray([len(s)] if ends is None else ends, int)
    starts = np.concatenate([[0], ends])[:-1]
    # each segment's largest value; an empty one reads the next value, or the 0 appended,
    # which only the segment holding it is decided by
    top = np.maximum.reduceat(np.append(s, 0.0), starts)
    if not np.isfinite(top).all():
        raise NonFinite("a singular value or eigenvalue is beyond the float range")
    cut = np.repeat([tol.cutoff(t) for t in top.tolist()], ends - starts)
    if strict:
        near = (np.abs(s - cut) < tol.abs_eps) & (s > cut / 2) & (s < 2 * cut)
        if near.any():
            raise RankAmbiguous(f"singular value within {tol.abs_eps:g} of the rank cutoff "
                                f"{cut[near.argmax()]:g}")
    return s > cut


def unit_stack(part: str, n: int, k: int | None = None) -> np.ndarray:
    """An (m, n, n) stack of unit matrices, row-major: ``ALL`` every E_ij (n x k if k is given),
    ``SYM`` E_ij + E_ji for i <= j, ``SKEW`` E_ij - E_ji for i < j; ``ANTI_HERMITIAN`` the SKEW
    and i * SYM units, spanning the anti-Hermitian matrices over R."""
    if part == ANTI_HERMITIAN:
        return np.concatenate([unit_stack(SKEW, n), 1j * unit_stack(SYM, n)])
    if part == ALL:
        k = n if k is None else k
        return np.eye(n * k).reshape(n * k, n, k)
    i, j = np.triu_indices(n, 0 if part == SYM else 1)
    out = np.zeros((len(i), n, n))
    r = np.arange(len(i))
    out[r, j, i] = 1.0 if part == SYM else -1.0
    out[r, i, j] = 1.0
    return out


def span_kernel(gens: np.ndarray, residuals=(), real: bool = False) -> np.ndarray:
    """Orthonormal (d, p, q) basis of {sum c_i G_i : r(sum c_i G_i) = 0 for r in residuals}.

    ``gens`` is an (m, p, q) stack of nonzero, mutually orthogonal G_i under the (with ``real``,
    real) Frobenius pairing, as every ``unit_stack`` is; each residual is linear from stacks to
    stacks.  The c_i are complex, or real with ``real``.  Each G_i is divided by its norm.  Of
    the conditions on the c_i, the rows of an economy SVD above ``KERNEL_RCOND`` are kept; one
    Householder reflection per kept row, applied to the stack, leaves an orthonormal basis of
    their orthogonal complement, the kernel, after them: O(r m p q) for r rows, and no QR."""
    gens = np.asarray(gens)
    rows = _rows(gens, True)  # (re, im) pairs: each norm is the same under either pairing
    gens = gens / np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None, None]
    if residuals and len(gens):
        A = np.concatenate([_rows(r(gens), real) for r in residuals], axis=1).T
        _, s, vh = np.linalg.svd(A, full_matrices=False)
        W = vh[:np.sum(s > KERNEL_RCOND * s[0])].conj().T  # orthonormal columns: A's row space
        gens = gens.astype(np.result_type(gens, W), copy=False)
        for j in range(W.shape[1]):  # H = I - 2 v v^H takes column j of W onto e_j
            v = W[j:, j].copy()
            v[0] += (v[0] / abs(v[0]) if v[0] else 1.0) * np.linalg.norm(v)
            v /= np.linalg.norm(v)
            W[j:] -= 2.0 * np.outer(v, v.conj() @ W[j:])
            gens[j:] -= 2.0 * v.conj()[:, None, None] * np.tensordot(v, gens[j:], axes=1)
        gens = gens[W.shape[1]:]
    return gens


def _rows(stack: np.ndarray, real: bool) -> np.ndarray:
    """One row per matrix of a stack; with ``real``, complex entries become (re, im) pairs."""
    rows = np.ascontiguousarray(stack.reshape(len(stack), math.prod(stack.shape[1:])))
    return rows.view(float) if real and np.iscomplexobj(rows) else rows


_bases: OrderedDict = OrderedDict()
_held: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cached_basis(build, desc) -> np.ndarray:
    """``build(desc)`` as a read-only array, keyed by ``build`` and ``desc.cache_key()``.  A
    key without form bytes is kept in one LRU of ``BASIS_CACHE_SIZE`` entries, shared by
    every descriptor.  A key with them, a basis under a form, is held by ``desc`` itself
    (which hashes by identity) and released when it is collected: a fresh form never
    recurs, so only that descriptor's later calls can reuse it.  An ndarray subclass is
    kept as it is, with what it carries, which must not reference ``desc``."""
    key = (build, desc.cache_key())
    held = any(isinstance(part, bytes) for part in key[1])
    cache = _held.setdefault(desc, {}) if held else _bases
    if key not in cache:
        cache[key] = np.asanyarray(build(desc))
        cache[key].flags.writeable = False
        if len(_bases) > BASIS_CACHE_SIZE:
            _bases.popitem(last=False)
    if not held:
        _bases.move_to_end(key)
    return cache[key]


def _check_symmetry(X: np.ndarray, sign: float, tol: Tolerance) -> None:
    """Raise unless |X + sign X^T| <= max(abs_eps, rel_eps * max(|X|, 1)) (Frobenius norms).

    Both sides are divided by s = max(max |x_ij|, 1) before any norm is taken, so a norm
    that would overflow cannot turn the test into inf > inf, which passes."""
    s = max(float(np.abs(X).max(initial=0.0)), 1.0)
    Y = X / s
    dev = frob(Y + sign * Y.T)
    bound = max(tol.abs_eps / s, tol.rel_eps * max(frob(Y), 1.0 / s))
    if dev > bound:
        if sign < 0:
            raise NotSymmetric(f"symmetry defect {dev * s:g} exceeds {bound * s:g}")
        raise NotSkew(f"skewness defect {dev * s:g} exceeds {bound * s:g}")


def complete_unitary(Q: np.ndarray) -> np.ndarray:
    """The n x k matrix Q of orthonormal columns followed by an orthonormal basis of its
    orthogonal complement (the trailing columns of a complete QR of Q): an n x n unitary
    (real orthogonal when Q is real)."""
    return np.concatenate([Q, np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]], axis=1)


def takagi(X: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric X as U diag(sigma) U^T, U unitary.

    Returns ``(U, sigma)`` with sigma real nonnegative, sorted descending.
    With X = A + iB, the real-linear map z = x + iy |-> X conj(z) is the real
    symmetric matrix [[A, B], [B, -A]] with eigenvalues +-sigma.  Its
    eigenvectors (x, y) for the eigenvalues above the rank cutoff give Takagi
    vectors x + iy, X conj(u) = sigma u.  They are orthonormal over C even
    when sigma repeats, as i u lies in the -sigma eigenspace; as that holds
    only to eps |X| / (sigma + sigma'), one complete QR restores it for small
    sigma and completes them to a unitary.  A final phase refinement pass
    absorbs roundoff in the diagonal.
    """
    n = require_square(X)
    X = np.asarray(X, dtype=complex)
    _check_symmetry(X, -1.0, tol)
    X = X / 2.0 + X.T / 2.0  # halved first, so finite X cannot overflow

    w, V = np.linalg.eigh(np.block([[X.real, X.imag], [X.imag, -X.real]]))
    top = above_cutoff(w, tol) & (w > 0)
    U = np.linalg.qr(V[:n, top] + 1j * V[n:, top], mode="complete")[0]
    # refinement: re-read the diagonal of U* X conj(U), absorb residual phases
    d = np.diag(U.conj().T @ X @ U.conj())
    phase = np.ones(n, dtype=complex)
    nz = np.abs(d) > tol.abs_eps
    phase[nz] = np.exp(1j * np.angle(d[nz]) / 2.0)
    U = U @ np.diag(phase)
    sigma = np.abs(np.diag(U.conj().T @ X @ U.conj()))

    order = np.argsort(-sigma)
    sigma = sigma[order]
    U = U[:, order]
    err = frob(U @ np.diag(sigma) @ U.T - X)
    if err > tol.cutoff(max(frob(X), 1.0)) * 10:
        raise ConvergenceFailure(f"reconstruction error {err:g} after refinement")
    return U, sigma


def youla_skew(
    X: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, list[float], int]:
    """Canonical form of a skew-symmetric matrix under congruence.

    Returns ``(Q, lams, r)`` with X = Q diag(lams[0]*Omega_2, ...,
    lams[r-1]*Omega_2, 0) Q^T, ``lams`` positive sorted descending, and
    2r the numerical rank of X.  Q is real orthogonal for real input and
    unitary for complex input.

    One SVD X = U S V* gives the rank (``above_cutoff`` on S) and, in the
    kept left singular vectors, the range of X.  The con-linear map
    C(z) = X conj(z) preserves each singular subspace, and for a unit q1 in
    one of them q2 = -C(q1) / lam with lam = |C(q1)| gives
    X conj(q1) = -lam q2 and X conj(q2) = lam q1.  Each q1 is the candidate
    of largest singular value times part left off the planes already taken:
    large lam come first, so q2, which holds roundoff of size eps |X| / lam,
    can be projected off them, and clusters of equal or close lam stay well
    conditioned.  ``complete_unitary`` completes Q and keeps the pair columns
    verbatim, as a phase on a complex pair would change Q Omega Q^T.
    """
    require_square(X)
    X = np.asarray(X)
    _check_symmetry(X, +1.0, tol)
    if np.iscomplexobj(X) and not X.imag.any():
        X = X.real
    Y = X / 2.0 - X.T / 2.0  # halved first, so finite X cannot overflow
    U, s, _ = np.linalg.svd(Y)
    keep = above_cutoff(s, tol, strict=True)
    if keep.sum() % 2 != 0:
        raise RankAmbiguous("numerical rank of a skew matrix must be even")
    cand, s = U[:, keep], s[keep]
    scale = pow2_below(Y)  # pair in Y / scale, so no norm overflows
    Y = Y / scale

    Q, pairs = U[:, :0], []
    for _ in range(len(s) // 2):
        w = np.linalg.norm(cand, axis=0)
        j = np.argmax(s * w)
        q1 = cand[:, j] / w[j]
        B = np.column_stack([Q, q1])
        c = Y @ q1.conj()
        c = c - B @ (B.conj().T @ c)
        lam = np.linalg.norm(c)
        P = np.column_stack([q1, -c / lam])
        Q = np.concatenate([Q, P], axis=1)
        cand = cand - P @ (P.conj().T @ cand)
        pairs.append((lam, P))
    pairs.sort(key=lambda t: -t[0])
    Q = complete_unitary(np.concatenate([Q[:, :0], *(P for _, P in pairs)], axis=1))
    return Q, [float(lam * scale) for lam, _ in pairs], len(pairs)


def youla_blocks(lams: list[float], n: int) -> np.ndarray:
    """Assemble diag(lams[0]*Omega_2, ..., 0_{n-2r}) as a dense array."""
    out = np.zeros((n, n))
    for i, lam in enumerate(lams):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = lam * OMEGA2
    return out
