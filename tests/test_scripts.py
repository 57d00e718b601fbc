"""The command-line scripts under scripts/ run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from manirep import classify as C
from manirep import groups as G
from manirep.embeddings import all_smallest_legal, grow
from manirep.numkit import dumps

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,args", [
    ("verify_embeddings.py", ["--trials", "5"]),
    ("cartan_sweep.py", ["--max-n", "3", "--trials", "5"]),
])
def test_script_exits_cleanly(name, args):
    out = run_script(name, *args)
    assert out.returncode == 0, out.stderr
    assert out.stdout and not out.stderr


def test_census_files_are_the_census(tmp_path):
    out = run_script("run_census.py", "--outdir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    groups = {"sl9c": G.sl(9, "C"), "so19c": G.so(19, "C"), "sp10c": G.sp(10, "C"),
              "su9": G.su(9), "sp10_compact": G.sp_compact(10)}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{k}.json" for k in groups)
    for name, g in groups.items():
        written = json.loads((tmp_path / f"{name}.json").read_text())
        assert written == json.loads(json.dumps(C.census(g)))


@pytest.mark.parametrize("g", [0, 2])
def test_minimality_sweep_rows_are_the_certificates(g):
    out = run_script("minimality_sweep.py", "--grow", str(g))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    rows = [grow(md, g) for md in all_smallest_legal()]
    assert len(rows) == 25 and doc["grow"] == g
    assert doc["rows"] == [json.loads(dumps(C.minimality_certificate(md).to_json()))
                           for md in rows]
