"""Byte-for-byte golden outputs of the CLI and of the minimality sweep.

Each file under ``tests/golden/`` maps a request to the exact text it
printed: CLI stdout for ``embed``/``verify``/``census``/``cartan``/``stabilizer``
and for ``--help`` of the top level and of every verb (at 80 columns), the
sorted compact JSON of ``minimality_certificate(md).to_json()``, and the JSON
of ``weyl.catalog_weight`` on every catalog name (and one unknown name) of
each algebra at n = 0..29: its kappa, null, or its error's type and message.
Requests run in ``tests/golden/matrices/``, which holds the ``stabilizer``
input files.  A change that is meant to keep behaviour leaves every byte in
place.  The outputs hold floating-point digits, so they are tied to the
numeric stack they were recorded on (numpy 2.4, OpenBLAS 0.3.31, x86-64).
Regenerate them, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from manirep import cli
from manirep.classify import minimality_certificate
from manirep.embeddings import ManifoldDescriptor, all_smallest_legal
from manirep.errors import ManirepError
from manirep.weyl import catalog_weight

GOLDEN = Path(__file__).parent / "golden"
MATRICES = GOLDEN / "matrices"

CENSUS_GROUPS = (
    "--group SL --n 9 --field C",
    "--group SO --n 19 --field C",
    "--group Sp --n 10 --field C",
    "--group Sp --n 10 --field R",
    "--group SU --n 9",
    "--group SpCompact --n 10",
    # the only census that builds form-twisted SO modules
    "--group SOpq --n 5 --signature 2,3",
)
CARTAN = (
    "--type AI --n 3", "--type AII --n 2", "--type AIII --n 4 --k 2",
    "--type BDI --n 4 --k 2", "--type DIII --n 2", "--type CI --n 2",
    "--type CII --n 3 --k 1",
)
# between them the inputs hold -0.0, 5e-324, 1e-05, 1e16 and 1e300
STABILIZER = (
    "--action left-mult --matrix frame.json",
    "--action congruence-sym --matrix sym_real.json",
    "--action congruence-sym --matrix sym_complex.json",
    "--action congruence-skew --matrix skew_real.json",
    "--action congruence-skew --matrix skew_complex.json",
    "--action similarity --matrix jordan.json",
    "--action similarity --mode numeric --matrix spectrum.json",
)
VERBS = ("dims", "irreps", "classify", "stabilizer", "embed", "verify", "cartan", "census")
#: algebra -> its catalog names, then one name that is not in the catalog
CATALOG = {
    "SL": ("trivial", "vector", "vector_dual", "alt2", "alt2_dual", "sym2", "sym2_dual",
           "adjoint", "no_such_module"),
    "SO": ("trivial", "vector", "alt2", "adjoint", "sym2_0", "spin", "spin_minus",
           "no_such_module"),
    "SP": ("trivial", "vector", "adjoint", "alt2_form", "sym2_0_form", "no_such_module"),
}


def manifold_flags(md: ManifoldDescriptor) -> str:
    out = ["--manifold", md.family, "--n", str(md.n)]
    for flag, val in (("--k", md.k), ("--p", md.p), ("--field", md.field)):
        if val is not None:
            out += [flag, str(val)]
    for flag, val in (("--ks", md.ks), ("--pq", md.pq), ("--sizes", md.sizes)):
        if val is not None:
            out += [flag, ",".join(map(str, val))]
    return " ".join(out)


def cli_stdout(line: str) -> str:
    buf = io.StringIO()
    with contextlib.chdir(MATRICES), contextlib.redirect_stdout(buf):
        code = cli.main(line.split())
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def help_stdout(line: str) -> str:
    """What ``--help`` prints, wrapped at 80 columns whatever the terminal."""
    buf = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(buf):
        try:
            cli.main(line.split())
        except SystemExit as exc:
            assert exc.code == 0, buf.getvalue()
    return buf.getvalue()


def catalog(algebra: str, n: int, name: str) -> str:
    try:
        w = catalog_weight(algebra, n, name)
    except ManirepError as exc:
        return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
    return json.dumps(None if w is None else list(w.kappa)) + "\n"


def certificate(md: ManifoldDescriptor) -> str:
    return json.dumps(minimality_certificate(md).to_json(), sort_keys=True) + "\n"


def cases() -> dict[str, dict]:
    """file name -> {request: thunk printing its output}."""
    rows = all_smallest_legal()
    table = {
        "embed": [f"embed {manifold_flags(md)}" for md in rows],
        "verify": ["verify --manifold all --trials 20 --seed 7"],
        "census": [f"census {g}" for g in CENSUS_GROUPS],
        "cartan": [f"cartan {c} --seed 7" for c in CARTAN],
        "stabilizer": [f"stabilizer {s}{p}" for s in STABILIZER for p in ("", " --pretty")],
    }
    out = {name: {line: (lambda line=line: cli_stdout(line)) for line in lines}
           for name, lines in table.items()}
    helps = ["--help"] + [f"{verb} --help" for verb in VERBS]
    out["help"] = {line: (lambda line=line: help_stdout(line)) for line in helps}
    out["catalog"] = {f"{a} {n} {name}": (lambda a=a, n=n, name=name: catalog(a, n, name))
                      for a, names in CATALOG.items() for n in range(30) for name in names}
    out["minimality"] = {manifold_flags(md): (lambda md=md: certificate(md)) for md in rows}
    return out


CASES = cases()


def golden(name: str) -> dict[str, str]:
    return json.loads((GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_requests_match_files(name):
    assert sorted(golden(name)) == sorted(CASES[name])


@pytest.mark.parametrize(
    "name,request_line",
    [(name, line) for name in sorted(CASES) for line in CASES[name]],
)
def test_golden_output(name, request_line):
    assert CASES[name][request_line]() == golden(name)[request_line]


def test_a_matrix_file_in_another_layout_prints_the_same_bytes():
    """``sym_real_layout.json`` is ``sym_real.json`` pretty-printed, with its keys reordered
    and one extra key; the reader sees the same matrix, so the output bytes are the same."""
    want = golden("stabilizer")["stabilizer --action congruence-sym --matrix sym_real.json"]
    assert cli_stdout("stabilizer --action congruence-sym --matrix sym_real_layout.json") == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, requests in CASES.items():
        text = json.dumps({line: run() for line, run in requests.items()}, indent=1, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
