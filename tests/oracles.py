"""Reference computations shared by several test modules, kept out of the library."""

import json
from itertools import permutations

import numpy as np
from hypothesis import strategies as st

from manirep.errors import InvalidInput
from manirep.numkit import ALL, COMPLEX, REAL, Mat, frob, span_kernel, unit_stack


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


def reference_read(text: str):
    """A matrix document read as ``json.loads`` and ``Mat.from_json`` read it, every JSON
    error an :class:`InvalidInput`: what ``Mat.loads`` must decide."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"not JSON: {exc}") from exc
    return Mat.from_json(obj)


#: JSON whitespace, and whitespace that JSON does not allow
_WS = st.sampled_from(["", "", " ", "\n  ", "\t", "\r\n"])
_NOT_WS = st.sampled_from(["\f", "\v", "\u00a0", "\u2028"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1E5", "1e+5", "-2.5e-3", "5e-324", "1e400",
                     "-1e400", "1" + "0" * 400, "NaN", "Infinity", "-Infinity"]),
)
_ZEROS = st.sampled_from(["0", "-0", "0.0", "-0.0", "0e5"])
_NOT_NUMBERS = st.sampled_from(['"1.5"', "true", "false", "null", "[1]", "{}", "01", "+1",
                                "1.", ".5", "1e", "--1", "0x1", "nan", "", "1 2"])
_NOT_PAIRS = st.sampled_from(['"[[1, 2]]"', '{"a": [1, 2]}', "null", "3", "[]", "[[]]",
                              '"ab"', '["ab"]', "[1, 2]", "[[1, 2], 3]", "[[1, 2],, [3, 4]]",
                              "[[1, 2] [3, 4]]", "[[1, 2], [3, 4]", "[[1, 2], [3, 4]]]"])
_EXTRA_KEYS = st.sampled_from(['"x"', '"Data"', '"data "', '"meta"', '"rows2"'])
_EXTRA_VALUES = st.sampled_from(['"data"', '{"data": [[1, 2]]}', "[[1, 2], [3, 4]]",
                                 '"[[1, 2]], \\"data\\": "', "null", "[]", '{"rows": 9}',
                                 "1e400", "NaN", '"\\u0064ata"'])
_FLAWS = st.sampled_from(["entry", "ragged", "nested", "data", "size", "field", "missing",
                          "imag", "duplicate", "top", "not-ws", "edit", "glued", "cut"])
_EDITS = st.sampled_from(["", "[", "]", ",", '"', "-", "e", "0", "5", " "])


@st.composite
def matrix_documents(draw, flaws=None):
    """The JSON text of a matrix document: a valid one, in a layout of its own (key order,
    whitespace, number spellings, extra and duplicate keys, ``"data"`` inside strings and
    nested objects), or one with up to two flaws: junk entries, ragged or nested pairs, a
    ``data`` that is not a list of pairs, bad sizes or field, a missing key, a nonzero
    imaginary part in a real matrix, a duplicate key whose junk value wins, a top level that
    is not one object, whitespace JSON does not allow, one character edited, one
    glued to a pair's bracket in the data list, or the text cut short.  ``flaws``, a list of
    ``_FLAWS`` names, fixes the flaws instead of drawing them."""
    def ws():
        return draw(_WS)

    def listed(items):
        return "[" + ws() + ",".join(ws() + item + ws() for item in items) + ws() + "]"

    if flaws is None:
        flaws = draw(st.lists(_FLAWS, max_size=2, unique=True))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    field = draw(st.sampled_from(["R", "C"]))
    pairs = [[draw(_NUMBERS), draw(_NUMBERS if field == "C" else _ZEROS)]
             for _ in range(rows * cols)]
    if pairs and "entry" in flaws:
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = draw(_NOT_NUMBERS)
    if pairs and "nested" in flaws:
        pair = pairs[draw(st.integers(0, len(pairs) - 1))]
        pair[0] = "[" + pair[0] + "]"
    if pairs and "imag" in flaws:
        pairs[draw(st.integers(0, len(pairs) - 1))][1] = "1.5"
    if "ragged" in flaws:
        pairs.append(draw(st.sampled_from([[], ["1"], ["1", "2", "3"]])))
    data = draw(_NOT_PAIRS) if "data" in flaws else listed([listed(p) for p in pairs])
    if "glued" in flaws:  # a number byte glued to an inner bracket, its whitespace dropped
        inner = [at for at, c in enumerate(data[:-1]) if c in "[]" and at] or [0]
        at = draw(st.sampled_from(inner))
        left, bracket, right = data[:at].rstrip(" \t\n\r"), data[at:at + 1], data[at + 1:]
        right = right.lstrip(" \t\n\r")
        char = draw(st.sampled_from("5-0e."))  # a number byte, read as JSON only in a pair
        data = left + char + bracket + right if draw(st.booleans()) else \
            left + bracket + char + right
    values = {
        '"rows"': str(rows), '"cols"': str(cols), '"field"': f'"{field}"',
        draw(st.sampled_from(['"data"', '"d\\u0061ta"'])): data,
    }
    if "size" in flaws:
        values[draw(st.sampled_from(['"rows"', '"cols"']))] = draw(st.sampled_from(
            ["1.5", "-1", "true", '"2"', "null", "2.0", str(rows + 1), "1e400",
             str(10**20)]))
    if "field" in flaws:
        values['"field"'] = draw(st.sampled_from(['"H"', "1", "null", '["R"]', '"r"']))
    if "missing" in flaws:
        del values[draw(st.sampled_from(sorted(values)))]
    entries = list(values.items())
    entries += draw(st.lists(st.tuples(_EXTRA_KEYS, _EXTRA_VALUES), max_size=2))
    entries = draw(st.permutations(entries))
    if entries:  # an earlier duplicate loses to the later key; with the flaw, junk comes last
        key = draw(st.sampled_from(entries))[0]
        junk = (key, draw(st.one_of(_NOT_PAIRS, _EXTRA_VALUES)))
        if "duplicate" in flaws:
            entries.append(junk)
        elif draw(st.booleans()):
            entries.insert(0, junk)
    text = ws() + "{" + ws() + ",".join(ws() + k + ws() + ":" + ws() + v + ws()
                                        for k, v in entries) + ws() + "}" + ws()
    if "top" in flaws:
        text = draw(st.sampled_from(["[%]", "% x", "%,", "\ufeff%", "%%", "null", "[1, 2]",
                                     '"data"', ""])).replace("%", text)
    if "not-ws" in flaws:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_NOT_WS) + text[at:]
    if "edit" in flaws and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(_EDITS) + text[at + 1:]
    if "cut" in flaws:
        text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    return text
