import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import matrix_documents

from manirep import embeddings as E
from manirep.cli import main
from manirep.numkit import OMEGA2, Mat, mat_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dims(capsys):
    code, payload = run_cli(capsys, "dims", "--algebra", "SO", "--n", "19",
                            "--kappa", "0,0,0,0,0,0,0,0,1")
    assert code == 0
    assert payload == {"dim": "512"}


def test_dims_sl_anchor(capsys):
    code, payload = run_cli(capsys, "dims", "--algebra", "SL", "--n", "9",
                            "--kappa", "2,0,0,0,0,0,0,1")
    assert code == 0 and payload["dim"] == "396"


def test_irreps(capsys):
    code, payload = run_cli(capsys, "irreps", "--algebra", "SP", "--n", "5", "--bound", "100")
    assert code == 0
    assert [int(w["dim"]) for w in payload["irreps"]] == [1, 10, 44, 55]


def test_embed_base_point(capsys):
    code, payload = run_cli(capsys, "embed", "--manifold", "stiefel-real", "--n", "9", "--k", "2")
    assert code == 0
    X = Mat.from_json(payload["value"]).to_array()
    expected = np.zeros((9, 2))
    expected[0, 0] = expected[1, 1] = 1.0
    np.testing.assert_array_equal(X, expected)


def test_embed_with_element(tmp_path, capsys):
    from manirep import groups as G

    Q = G.sample(G.so(9), 1)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(Mat.from_array(Q).to_json()))
    code, payload = run_cli(capsys, "embed", "--manifold", "gr-real", "--n", "9", "--k", "2",
                            "--element", str(path))
    assert code == 0
    X = Mat.from_json(payload["value"]).to_array()
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(X)), [-2.0] * 7 + [7.0] * 2, atol=1e-9)


def test_verify_single(capsys):
    code, payload = run_cli(capsys, "verify", "--manifold", "gr-real", "--n", "9", "--k", "2",
                            "--trials", "100", "--seed", "1")
    assert code == 0
    assert payload["residual"] <= 1e-9


def test_classify_enumerate(capsys):
    code, payload = run_cli(capsys, "classify", "--group", "SU", "--n", "9", "--enumerate")
    assert code == 0
    assert len(payload["admissible"]) == 1
    assert payload["admissible"][0]["dim_total"] == "80"


def test_classify_single(capsys):
    code, payload = run_cli(capsys, "classify", "--group", "SL", "--n", "9", "--field", "C",
                            "--multiplicities", "0,0,0,1")
    assert code == 0
    assert payload["admissible"] is True
    assert payload["inequality_value"] == "-1"


def test_stabilizer_file(tmp_path, capsys):
    X = np.zeros((9, 9))
    X[0, 1] = 1.0
    X[1, 0] = -1.0
    path = tmp_path / "x.json"
    path.write_text(json.dumps(Mat.from_array(X).to_json()))
    code, payload = run_cli(capsys, "stabilizer", "--action", "congruence-skew",
                            "--matrix", str(path))
    assert code == 0
    assert payload["dim"] == 66
    assert payload["off_block"] == [2, 7]


def _c_tagged_file(tmp_path, X):
    """A matrix file tagged with field C whose entries are all real."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(Mat.from_array(np.asarray(X, dtype=float), "C").to_json()))
    return str(path)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_similarity_reads_the_field_tag_of_the_file(tmp_path, capsys, mode):
    """Over C, the rotation [[0, -1], [1, 0]] has two eigenvalue classes +-i, not one
    complex-pair class as over R."""
    path = _c_tagged_file(tmp_path, [[0.0, -1.0], [1.0, 0.0]])
    code, payload = run_cli(capsys, "stabilizer", "--action", "similarity", "--mode", mode,
                            "--matrix", path)
    assert code == 0
    assert [c["kind"] for c in payload["classes"]] == ["complex", "complex"]
    eigs = sorted((complex(*c["eig"]) for c in payload["classes"]), key=lambda z: z.imag)
    assert eigs == pytest.approx([-1j, 1j], abs=1e-12)


def test_congruence_sym_reads_the_field_tag_of_the_file(tmp_path, capsys):
    """Over C, diag(1, -1) is congruent to I: its stabilizer is O_2 over C."""
    path = _c_tagged_file(tmp_path, np.diag([1.0, -1.0]))
    code, payload = run_cli(capsys, "stabilizer", "--action", "congruence-sym", "--matrix", path)
    assert code == 0
    assert (payload["top"]["family"], payload["top"]["field"]) == ("O", "C")
    assert payload["conjugator"]["field"] == "C"


def test_cartan(capsys):
    code, payload = run_cli(capsys, "cartan", "--type", "AII", "--n", "3")
    assert code == 0
    assert payload["residual"] <= 1e-8
    assert payload["identical"] is False


def test_census(capsys):
    code, payload = run_cli(capsys, "census", "--group", "SpCompact", "--n", "10")
    assert code == 0
    assert len(payload["targets"]) == 3


def test_domain_error_is_json(capsys):
    code, payload = run_cli(capsys, "dims", "--algebra", "SL", "--n", "9", "--kappa", "1,2")
    assert code == 1
    assert payload["error"]["type"] == "InvalidDescriptor"


def test_congruence_sym_of_huge_entries_fails_cleanly(tmp_path):
    """Symmetrizing [[1e308] * 2] * 2 must not overflow; its eigenvalue 2e308 does."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(Mat.from_array(np.full((2, 2), 1e308)).to_json()))
    proc = subprocess.run([sys.executable, "-m", "manirep", "stabilizer", "--action",
                           "congruence-sym", "--matrix", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "NonFinite"
    assert proc.stderr == ""


def test_numeric_similarity_of_an_overflowing_pair_product_fails_cleanly(tmp_path):
    """[[1e308, 1e308], [-1e308, 1e308]] is a valid file with finite eigenvalues 1e308 +- 1e308 i,
    but the pair's product X (X - 2 Re z) + |z|^2 I overflows to inf - inf: a typed error."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(Mat.from_array(np.array([[1e308, 1e308],
                                                        [-1e308, 1e308]])).to_json()))
    proc = subprocess.run([sys.executable, "-m", "manirep", "stabilizer", "--action",
                           "similarity", "--mode", "numeric", "--matrix", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "NonFinite"
    assert proc.stderr == ""


@pytest.mark.parametrize("blocked,argv", [
    ("scipy", ["verify", "--manifold", "all", "--trials", "1"]),
    ("scipy", ["cartan", "--type", "CI", "--n", "2"]),
    ("sympy", ["stabilizer", "--action", "similarity", "--matrix", "{path}"]),
])
def test_a_missing_optional_dependency_is_a_typed_error(tmp_path, blocked, argv):
    """scipy (groups.sample's expm) and sympy (exact similarity) are optional: without them,
    a request that needs one gets a JSON error and exit 1, not a traceback."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(Mat.from_array(np.diag([1.0, 2.0])).to_json()))
    script = (f"import sys\nsys.modules[{blocked!r}] = None  # import {blocked} now fails\n"
              "from manirep.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, *(a.format(path=path) for a in argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "MissingDependency"
    assert blocked in json.loads(proc.stdout)["error"]["message"]
    assert proc.stderr == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--algebra", "SL"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "SO", "--n", "3", "--signature", "1,2", "--multiplicities", "1,0,0"],
    ["census", "--group", "SL", "--n", "3", "--signature", "1,2"],
    ["census", "--group", "SU", "--n", "3", "--field", "R"],
    ["classify", "--group", "SpCompact", "--n", "4", "--field", "R", "--enumerate"],
    ["census", "--group", "SOpq", "--n", "5", "--signature", "2,3", "--field", "C"],
], ids=["so-signature", "sl-signature", "su-real", "spcompact-real", "sopq-complex"])
def test_flags_the_group_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("group, field", [("SU", "C"), ("SpCompact", "C"), ("SOpq", "R"),
                                          ("SL", "R")])
def test_the_group_field_may_be_named(group, field, capsys):
    argv = ["census", "--group", group, "--n", "4"] + (
        ["--signature", "2,2"] if group == "SOpq" else [])
    assert main(argv) == 0
    implicit = capsys.readouterr().out
    assert main(argv + ["--field", field]) == 0
    assert capsys.readouterr().out == implicit


def test_determinism(capsys):
    args = ["verify", "--manifold", "gr-real", "--n", "5", "--k", "1",
            "--trials", "10", "--seed", "3"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MANIREP_SEED", "7")
    args = ["verify", "--manifold", "gr-real", "--n", "5", "--k", "1", "--trials", "5"]
    main(args)
    out1 = capsys.readouterr().out
    main(args + ["--seed", "7"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--out", str(target), "dims", "--algebra", "SP", "--n", "1", "--kappa", "2"])
    assert code == 0
    assert json.loads(target.read_text()) == {"dim": "3"}


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "manirep.cli", "dims", "--algebra", "SL", "--n", "3",
         "--kappa", "1,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dim": "8"}


def test_verify_flag_family(capsys):
    code, payload = run_cli(capsys, "verify", "--manifold", "fl-real", "--n", "5",
                            "--ks", "1,3", "--trials", "20", "--seed", "2")
    assert code == 0
    assert payload["residual"] <= 1e-9


def test_embed_indefinite(capsys):
    code, payload = run_cli(capsys, "embed", "--manifold", "gr-indefinite", "--n", "5",
                            "--pq", "1,1", "--sizes", "2,3")
    assert code == 0
    X = Mat.from_json(payload["value"]).to_array()
    assert abs(np.trace(X)) < 1e-12


@pytest.mark.parametrize("argv", [
    # SOpq without a signature, with one entry, and with p + q != n
    ["classify", "--group", "SOpq", "--n", "5", "--enumerate"],
    ["classify", "--group", "SOpq", "--n", "5", "--signature", "1", "--enumerate"],
    ["classify", "--group", "SOpq", "--n", "7", "--signature", "2,3", "--enumerate"],
    ["census", "--group", "SOpq", "--n", "7", "--signature", "2,3"],
    # a parameter the family does not take
    ["embed", "--manifold", "fl-real", "--n", "4", "--ks", "1,2", "--k", "9"],
    ["verify", "--manifold", "gr-real", "--n", "4", "--k", "2", "--field", "C"],
], ids=["sopq-no-signature", "sopq-short-signature", "sopq-signature-not-n",
        "census-signature-not-n", "embed-extra-k", "verify-extra-field"])
def test_bad_arguments_are_json_errors(capsys, argv):
    code, payload = run_cli(capsys, *argv)
    assert code == 1
    assert payload["error"]["type"] == "InvalidDescriptor"


def test_sopq_signature(capsys):
    code, payload = run_cli(capsys, "classify", "--group", "SOpq", "--n", "5",
                            "--signature", "2,3", "--enumerate")
    assert code == 0
    assert payload["group"]["signature"] == [2, 3]


@pytest.mark.parametrize("argv", [
    ["dims", "--algebra", "SL", "--n", "3", "--kappa", "a,b"],
    ["classify", "--group", "SOpq", "--n", "5", "--signature", "a,b", "--enumerate"],
    ["classify", "--group", "SL", "--n", "4", "--multiplicities", "1,x"],
    ["census", "--group", "SOpq", "--n", "5", "--signature", "2.5,2.5"],
    ["embed", "--manifold", "fl-real", "--n", "5", "--ks", "1,two"],
    ["embed", "--manifold", "gr-indefinite", "--n", "5", "--pq", "1;1", "--sizes", "2,3"],
    ["embed", "--manifold", "gr-indefinite", "--n", "5", "--pq", "1,1", "--sizes", "2,c"],
    ["embed", "--manifold", "gr-real", "--n", "5", "--k", "2", "--spectrum", "3,x"],
    ["verify", "--manifold", "fl-real", "--n", "5", "--ks", "1,2.0"],
], ids=["kappa", "signature", "multiplicities", "census-signature", "ks", "pq", "sizes",
        "spectrum", "verify-ks"])
def test_junk_in_list_flags_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "not json", "[1, 2]", '{"rows": 1}', b"\xff\xfe"],
                         ids=["missing", "not-json", "not-an-object", "no-fields", "not-text"])
@pytest.mark.parametrize("verb", ["stabilizer", "embed"])
def test_unreadable_matrix_files_are_json_errors(tmp_path, capsys, content, verb):
    path = tmp_path / "m.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    argv = (["stabilizer", "--action", "left-mult", "--matrix", str(path)] if verb == "stabilizer"
            else ["embed", "--manifold", "gr-real", "--n", "4", "--k", "2",
                  "--element", str(path)])
    code, payload = run_cli(capsys, *argv)
    assert code == 1
    assert payload["error"]["type"] == "InvalidInput"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "10^400"])
def test_non_finite_matrix_file_is_rejected(tmp_path, capsys, bad):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 2, "field": "R", "data": '
                    f'[[{bad}, 0], [0, 0], [0, 0], [1, 0]]}}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "congruence-sym", "--matrix",
                            str(path))
    assert code == 1
    assert payload["error"]["type"] == "NonFinite"


def test_negative_matrix_size_is_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"rows": -1, "cols": -1, "field": "R", "data": [[1, 0]]}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "InvalidInput"


def test_left_mult_conjugator_too_big_for_numpy_is_a_json_error(tmp_path, capsys):
    """An n x 0 file with n = 2^59 - 1, the largest side a file may give, asks for an n x n
    conjugator, which numpy refuses before allocating anything."""
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows": {2**59 - 1}, "cols": 0, "field": "R", "data": []}}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "SizeMismatch"


def test_left_mult_conjugator_that_cannot_be_allocated_is_a_json_error(tmp_path, capsys,
                                                                       monkeypatch):
    """A MemoryError from the SVD that builds the conjugator is a typed error too."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the left factor")

    monkeypatch.setattr(np.linalg, "svd", no_memory)
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 1, "field": "C", "data": [[1, 0], [0, 1]]}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "SizeMismatch"
    assert "cannot be allocated" in payload["error"]["message"]


@pytest.mark.parametrize("size", ["1.5", "1.0", '"1"', "true"])
def test_non_integer_matrix_size_is_rejected(tmp_path, capsys, size):
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows": {size}, "cols": 2, "field": "R", "data": [[1, 0], [2, 0]]}}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "InvalidInput"


# numpy would read the strings and booleans as numbers, and null as NaN
@pytest.mark.parametrize("entry", ['["1.5", "0"]', "[1.5, \"0\"]", "[true, false]", '["nan", 0]',
                                   "[null, 0]"],
                         ids=["string", "string-im", "bool", "string-nan", "null"])
def test_non_number_matrix_entry_is_rejected(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows": 1, "cols": 1, "field": "R", "data": [{entry}]}}')
    code, payload = run_cli(capsys, "stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "InvalidInput"


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("action", ["congruence-sym", "congruence-skew"])
def test_congruence_of_a_non_square_matrix_is_a_size_error(tmp_path, capsys, action, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(Mat.from_array(np.eye(2, 3) * (1j if field == "C" else 1),
                                              field).to_json()))
    code, payload = run_cli(capsys, "stabilizer", "--action", action, "--matrix", str(path))
    assert code == 1
    assert payload["error"]["type"] == "SizeMismatch"


@pytest.mark.parametrize("action, block, dim", [
    ("congruence-sym", np.diag([1e-3, 2e-3, 0.0]), 4),  # O_2, GL_1 and a 2 x 1 free block
    ("congruence-skew", np.pad(1e-3 * OMEGA2, (0, 1)), 6),  # Sp_2, GL_1 and a 2 x 1 free block
])
def test_small_rank_deficient_form_is_not_ambiguous(tmp_path, capsys, action, block, dim):
    """Largest singular value below abs_eps / rel_eps: the cutoff is abs_eps itself, and the
    roundoff-level value of the rotated zero lies far below it."""
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(Mat.from_array(Q @ block @ Q.T).to_json()))
    code, payload = run_cli(capsys, "stabilizer", "--action", action, "--matrix", str(path))
    assert code == 0
    assert payload["dim"] == dim and payload["off_block"] == [2, 1]


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("action", ["left-mult", "congruence-skew", "congruence-sym",
                                    "similarity"])
def test_empty_matrix_has_a_stabilizer(tmp_path, capsys, action, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "field": field, "data": []}))
    code, payload = run_cli(capsys, "stabilizer", "--action", action, "--matrix", str(path))
    assert code == 0
    assert payload.get("dim", payload.get("commutant_dim")) == 0


def test_non_finite_result_is_a_json_error(capsys, monkeypatch):
    import manirep.cli as cli

    monkeypatch.setattr(cli, "cmd_dims", lambda args: {"dim": float("nan")})
    code, payload = run_cli(capsys, "dims", "--algebra", "SL", "--n", "3", "--kappa", "1,0")
    assert code == 1
    assert payload["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_in_a_result_is_a_json_error(capsys, monkeypatch, x, pretty):
    import manirep.cli as cli

    monkeypatch.setattr(cli, "cmd_dims", lambda args: {"m": mat_to_json(np.array([[1.0, x]]))})
    code, payload = run_cli(capsys, "dims", "--algebra", "SL", "--n", "3", "--kappa", "1,0",
                            *pretty)
    assert code == 1
    assert payload["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_is_a_json_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, payload = run_cli(capsys, "dims", "--algebra", "SL", "--n", "3", "--kappa", "1,0",
                            "--out", str(target))
    assert code == 1
    assert payload["error"]["type"] == "InvalidInput"
    assert not (tmp_path / "missing").exists()


def test_census_does_not_load_sympy_and_exact_similarity_still_does(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(Mat.from_array(np.array([[2.0, 1, 0], [0, 2, 0], [0, 0, 3]]))
                               .to_json()))
    script = (
        "import contextlib, io, sys\n"
        "import manirep.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['census', '--group', 'Sp', '--n', '6', '--field', 'C'])\n"
        "print(code, 'sympy' in sys.modules)\n"
        f"cli.main(['stabilizer', '--action', 'similarity', '--matrix', {str(path)!r}])\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    census, stabilizer, loaded = proc.stdout.splitlines()
    assert census == "0 False"
    assert stabilizer == ('{"classes":[{"blocks":[2],"eig":[2.0,0.0],"kind":"real"},'
                          '{"blocks":[1],"eig":[3.0,0.0],"kind":"real"}],"commutant_dim":3}')
    assert loaded == "True"


def test_numeric_verbs_do_not_load_scipy_and_verify_does(tmp_path):
    """scipy is imported only for ``groups.sample``'s ``expm``, which ``verify`` reaches."""
    X = np.random.default_rng(0).standard_normal((4, 4))
    files = {}
    for name, a in [("rect", X[:, :2]), ("sym", X + X.T), ("skew", X - X.T)]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(Mat.from_array(a).to_json()))
    runs = [
        ["census", "--group", "SO", "--n", "7", "--field", "C"],
        ["stabilizer", "--action", "left-mult", "--matrix", str(files["rect"])],
        ["stabilizer", "--action", "congruence-sym", "--matrix", str(files["sym"])],
        ["stabilizer", "--action", "congruence-skew", "--matrix", str(files["skew"])],
        ["embed", "--manifold", "gr-real", "--n", "5", "--k", "2"],
        ["verify", "--manifold", "lgr-c", "--n", "4", "--trials", "2"],  # Sp_8(C) samples by expm
    ]
    script = (
        "import contextlib, io, sys\n"
        "import manirep.cli as cli\n"
        "print('scipy' in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "census 0 False", "stabilizer 0 False", "stabilizer 0 False",
        "stabilizer 0 False", "embed 0 False", "verify 0 True"]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["embed", "--manifold", "gr-indefinite", "--n", "2", "--pq", "1", "--sizes", "2,2"],
    ["embed", "--manifold", "gr-indefinite", "--n", "2", "--pq", "1,1", "--sizes", "2"],
    ["cartan", "--type", "AIII", "--n", "3", "--k", "5"],
    ["cartan", "--type", "CII", "--n", "2", "--k", "-1"],
], ids=["pq-one-entry", "sizes-one-entry", "cartan-k-above-n", "cartan-k-negative"])
def test_descriptor_arguments_out_of_shape_are_json_errors(capsys, argv):
    assert main(argv) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["error"]["type"] == "InvalidDescriptor"


@pytest.mark.parametrize("k", [0, 3])
def test_cartan_k_at_the_ends_of_its_range(capsys, k):
    code, payload = run_cli(capsys, "cartan", "--type", "AIII", "--n", "3", "--k", str(k))
    assert code == 0 and payload["params"] == {"n": 3, "k": k}


def _overflowing_file(tmp_path):
    """A finite symmetric matrix whose eigenvalue 2e308 and Frobenius norm overflow."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "field": "R", "data": [[1e308, 0]] * 4}))
    return str(path)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_similarity_with_an_overflowing_spectrum_is_a_json_error(tmp_path, capsys, mode):
    assert main(["stabilizer", "--action", "similarity", "--mode", mode,
                 "--matrix", _overflowing_file(tmp_path)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "NonFinite"


def _run_module(*argv):
    """A fresh ``python -m manirep`` process, whose stderr catches warnings and tracebacks."""
    return subprocess.run([sys.executable, "-m", "manirep", *argv], capture_output=True,
                          text=True)


def test_element_with_an_overflowing_norm_is_a_json_error(tmp_path):
    """Finite entries of 1e160 overflow the squared norm that scales the group test."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(Mat.from_array(np.diag([1e160] * 4)).to_json()))
    proc = _run_module("embed", "--manifold", "gr-real", "--n", "4", "--k", "2",
                       "--element", str(path))
    assert proc.returncode == 1 and proc.stderr == ""
    assert _strict_json(proc.stdout)["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("argv", [
    ["stabilizer", "--action", "left-mult", "--matrix"],
    ["stabilizer", "--action", "congruence-sym", "--matrix"],
    ["stabilizer", "--action", "congruence-skew", "--matrix"],
    ["stabilizer", "--action", "similarity", "--matrix"],
    ["embed", "--manifold", "gr-real", "--n", "4", "--k", "2", "--element"],
], ids=["left-mult", "congruence-sym", "congruence-skew", "similarity", "embed"])
@pytest.mark.parametrize("rows,cols", [(10**20, 0), (0, 2**63 - 1)], ids=["rows", "cols"])
def test_an_empty_matrix_of_a_size_numpy_cannot_shape_is_a_json_error(tmp_path, capsys, argv,
                                                                      rows, cols):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": rows, "cols": cols, "field": "R", "data": []}))
    assert main([*argv, str(path)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "InvalidInput"


@pytest.mark.parametrize("argv,message", [
    (["--group", "SL", "--n", "1"], "SL needs n >= 2"),
    (["--group", "SO", "--n", "1"], "SO needs n >= 3"),
    (["--group", "SO", "--n", "2", "--field", "C"], "SO needs n >= 3"),
    (["--group", "SOpq", "--n", "2", "--signature", "1,1"], "SO needs n >= 3"),
], ids=["SL_1", "SO_1", "SO_2(C)", "SO_1,1"])
def test_census_of_a_group_with_no_weyl_algebra_is_a_json_error(capsys, argv, message):
    """The census catalog needs a simple algebra: weyl.rank_of rejects these sizes."""
    assert main(["census", *argv]) == 1
    error = _strict_json(capsys.readouterr().out)["error"]
    assert error == {"type": "InvalidDescriptor", "message": message}


@pytest.mark.parametrize("verb", ["embed", "verify"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_spectrum_is_rejected(verb, value):
    proc = _run_module(verb, "--manifold", "lgr-c", "--n", "2", f"--spectrum={value}")
    assert proc.returncode == 1 and proc.stderr == ""
    assert _strict_json(proc.stdout)["error"]["type"] == "InvalidSpectrum"


@pytest.mark.parametrize("argv", [
    ["verify", "--manifold", "all", "--trials", "1", "--seed", "-5"],
    ["cartan", "--type", "AIII", "--n", "2", "--k", "1", "--seed", "-1"],
], ids=["verify", "cartan"])
def test_a_negative_seed_is_a_usage_error(argv):
    """numpy's default_rng rejects negative seeds; the parser rejects them first."""
    proc = _run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid seed value: '-" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_a_bad_seed_in_the_environment_is_a_json_error(value):
    proc = subprocess.run([sys.executable, "-m", "manirep", "cartan", "--type", "AIII", "--n",
                           "2", "--k", "1"], capture_output=True, text=True,
                          env=dict(os.environ, MANIREP_SEED=value))
    assert proc.returncode == 1 and proc.stderr == ""
    assert _strict_json(proc.stdout)["error"]["type"] == "InvalidInput"


@pytest.mark.parametrize("trials", ["0", "-4"])
def test_cartan_needs_at_least_one_trial(capsys, trials):
    code, payload = run_cli(capsys, "cartan", "--type", "AI", "--n", "3", "--trials", trials)
    assert code == 1 and payload["error"]["type"] == "InvalidDescriptor"


@pytest.mark.parametrize("flag", [["--n", "7"], ["--k", "2"], ["--ks", "1,2"], ["--p", "1"],
                                  ["--pq", "1,1"], ["--sizes", "2,3"], ["--field", "R"],
                                  ["--spectrum", "7,-2"]], ids=lambda f: f[0])
def test_verify_all_takes_no_manifold_flag(capsys, flag):
    """--manifold all verifies every family at its smallest legal sizes, so a size flag would
    be ignored; it is a usage error instead."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--manifold", "all", "--trials", "1"] + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_of_one_family_needs_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--manifold", "gr-real", "--k", "2", "--trials", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("action", ["left-mult", "congruence-skew", "congruence-sym"])
@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_stabilizer_mode_applies_to_similarity_only(tmp_path, capsys, action, mode):
    """Only --action similarity reads --mode, so with any other action it is a usage error
    rather than a flag silently ignored; similarity still takes either mode."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(Mat.from_array(np.eye(2)).to_json()))
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--action", action, "--matrix", str(path), "--mode", mode])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, payload = run_cli(capsys, "stabilizer", "--action", "similarity", "--matrix",
                            str(path), "--mode", mode)
    assert code == 0 and payload["commutant_dim"] == 4


@pytest.mark.parametrize("action, field, pairs, dim", [
    ("congruence-sym", "C", [[1e308, 1e308], [0, 0], [0, 0], [1, 0]], 2),
    ("congruence-skew", "R", [[0, 0], [1e308, 0], [-1e308, 0], [0, 0]], 3),
    ("congruence-skew", "C", [[0, 0], [1e308, 1e308], [-1e308, -1e308], [0, 0]], 3),
], ids=["takagi", "youla-real", "youla-complex"])
def test_congruence_of_entries_near_the_float_range(tmp_path, action, field, pairs, dim):
    """X / 2 + X^T / 2 (X / 2 - X^T / 2 for skew X) cannot overflow for finite X, where
    (X + X^T) / 2 does: the Takagi form of diag(1e308(1 + i), 1) keeps rank 1 under the
    relative cutoff (O_1 x GL_1 and the free block, dim 2), and the skew matrices
    [[0, x], [-x, 0]] with x = 1e308 or 1e308(1 + i) have stabilizer Sp_2 (dim 3), where
    the overflow gave all of GL_2 and a traceback.  Nothing reaches stderr."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "field": field, "data": pairs}))
    proc = _run_module("stabilizer", "--action", action, "--matrix", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _strict_json(proc.stdout)["dim"] == dim


@pytest.mark.parametrize("field, big", [("C", [1.3e308, 1.3e308]), ("R", [1.3e308, 0])],
                         ids=["complex", "real"])
def test_asymmetric_matrix_with_an_overflowing_modulus_is_not_symmetric(tmp_path, field, big):
    """[[1.3e308 (1 + i), 1e306], [0, 1]] is not symmetric, as its real twin is not: the
    symmetry test scales it by its largest part, whose modulus would overflow to an inf
    scale that let it pass to a NonFinite spectrum."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "field": field,
                                "data": [big, [1e306, 0], [0, 0], [1, 0]]}))
    proc = _run_module("stabilizer", "--action", "congruence-sym", "--matrix", str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert _strict_json(proc.stdout)["error"]["type"] == "NotSymmetric"


def test_left_mult_with_an_overflowing_singular_value_is_a_json_error(tmp_path):
    """A 2 x 1 column of entries near 1.8e308 has a singular value beyond the float range; the
    rank rule raises NonFinite instead of ranking inf against an infinite cutoff."""
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 1, "field": "C", "data": '
                    '[[1.7976931348623157e308, 2], [1.7976931348623157e308, -1.5e206]]}')
    proc = _run_module("stabilizer", "--action", "left-mult", "--matrix", str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert _strict_json(proc.stdout)["error"]["type"] == "NonFinite"


def test_huge_symmetric_matrix_is_not_skew(tmp_path, capsys):
    assert main(["stabilizer", "--action", "congruence-skew",
                 "--matrix", _overflowing_file(tmp_path)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "NotSkew"


def test_dimension_with_too_many_digits_is_a_json_error():
    """SL_30 at kappa = (99999999999, ...) has a dimension of more than 4,300 digits, beyond
    the int-to-str conversion limit."""
    proc = _run_module("dims", "--algebra", "SL", "--n", "30", "--kappa",
                       ",".join(["99999999999"] * 29))
    assert proc.returncode == 1 and proc.stderr == ""
    assert _strict_json(proc.stdout)["error"]["type"] == "InvalidDescriptor"


# ---------------------------------------------------------------------------
# the CLI contract for any argv

_MATRICES = sorted(str(p) for p in (Path(__file__).parent / "golden" / "matrices").glob("*.json"))
_HUGE = st.sampled_from(["99999999999999999999", str(2**63), "-99999999999999999999"])
_JUNK = st.sampled_from(["", "x", "1.5", "nan", "inf", "-", ",", "1,,2", "0x1"])
_SMALL = st.integers(-2, 6).map(str)
#: sizes, trial counts and bounds stay small, so that every drawn request runs in milliseconds
_SIZE = st.one_of(_SMALL, _JUNK)
_TRIALS = st.one_of(st.integers(-3, 3).map(str), _JUNK)
_INT = st.one_of(_SMALL, _HUGE, _JUNK)
_LIST = st.one_of(st.lists(st.one_of(_SMALL, _HUGE), max_size=5).map(",".join), _JUNK)
_FIELD = st.sampled_from(["R", "C", "H"])
_GROUP = st.sampled_from(["SL", "SO", "Sp", "SU", "SOpq", "SpCompact", "GL"])
_ALGEBRA = st.sampled_from(["SL", "SO", "SP", "sl"])
_FLAG = st.just(None)  # a flag that takes no value
_MANIFOLD_FLAGS = {"--k": _INT, "--ks": _LIST, "--p": _INT, "--pq": _LIST, "--sizes": _LIST,
                   "--field": _FIELD, "--spectrum": _LIST}


class _Document(str):
    """The text of a drawn matrix file, which the test writes to a file and names by path."""


def _written(argv, folder):
    """argv with each drawn ``_Document`` written to a file in ``folder``, named by its path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, _Document):
            path = Path(folder) / f"m{i}.json"
            path.write_text(arg)
            arg = str(path)
        out.append(arg)
    return out


def _verb(name, required, optional):
    """argv of one verb: every required flag and some optional ones, a None value standing for
    a flag that takes no value."""
    def argv(flags):
        return [name] + [s for f, v in flags.items() for s in ([f] if v is None else [f, v])]
    return st.fixed_dictionaries(required, optional=optional).map(argv)


_ARGV = st.one_of(
    _verb("dims", {"--algebra": _ALGEBRA, "--n": _SIZE, "--kappa": _LIST}, {}),
    _verb("irreps", {"--algebra": _ALGEBRA, "--n": _SIZE},
          {"--bound": st.one_of(st.integers(-3, 500).map(str), _JUNK)}),
    _verb("classify", {"--group": _GROUP, "--n": _SIZE},
          {"--field": _FIELD, "--signature": _LIST, "--enumerate": _FLAG,
           "--multiplicities": _LIST}),
    _verb("stabilizer", {"--action": st.sampled_from(
        ["left-mult", "congruence-skew", "congruence-sym", "similarity", "shear"]),
        "--matrix": st.one_of(st.sampled_from(_MATRICES + ["missing.json"]),
                              matrix_documents().map(_Document))},
        {"--mode": st.sampled_from(["exact", "numeric", "fast"])}),
    _verb("embed", {"--manifold": st.sampled_from(list(E.FAMILIES) + ["all", "torus"]),
                    "--n": _SIZE},
          dict(_MANIFOLD_FLAGS, **{"--element": st.sampled_from(_MATRICES)})),
    _verb("verify", {"--manifold": st.sampled_from(list(E.FAMILIES) + ["all", "torus"]),
                     "--trials": _TRIALS},
          dict(_MANIFOLD_FLAGS, **{"--n": _SIZE, "--seed": _INT})),
    _verb("cartan", {"--type": st.sampled_from(list(E.CARTAN_TYPES) + ["ZZ"]), "--n": _SIZE,
                     "--trials": _TRIALS}, {"--k": _INT, "--seed": _INT}),
    _verb("census", {"--group": _GROUP, "--n": _SIZE}, {"--field": _FIELD, "--signature": _LIST}),
).flatmap(lambda argv: st.sampled_from([argv, ["--pretty"] + argv]))


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV, env_seed=st.sampled_from([None, "3", "-1", "abc", " "]))
@example(argv=["verify", "--manifold", "all", "--trials", "1", "--seed", "-5"], env_seed=None)
@example(argv=["cartan", "--type", "AIII", "--n", "2", "--k", "1", "--seed", "-1"],
         env_seed=None)
@example(argv=["cartan", "--type", "AIII", "--n", "2", "--k", "1"], env_seed="abc")
@example(argv=["cartan", "--type", "AIII", "--n", "2", "--k", "1"], env_seed="-1")
@example(argv=["cartan", "--type", "AI", "--n", "3", "--trials", "-4"], env_seed=None)
@example(argv=["classify", "--group", "SL", "--n", "3", "--multiplicities",
               "0,99999999999999999999,0,0"], env_seed=None)
def test_any_argv_exits_0_1_or_2_with_strict_json(argv, env_seed):
    """The CLI contract: exit code 0, 1 or 2, strict JSON on stdout unless the code is 2 (a
    usage error), and no other exception.  A trial count below one never succeeds."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("MANIREP_SEED", None)
    if env_seed is not None:
        os.environ["MANIREP_SEED"] = env_seed
    try:
        with (tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            try:
                code = main(_written(argv, folder))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("MANIREP_SEED", None)
        if saved is not None:
            os.environ["MANIREP_SEED"] = saved
    assert code in (0, 1, 2), (code, err.getvalue())
    if code != 2:
        payload = _strict_json(out.getvalue())
        assert (code == 1) == ("error" in payload)
    if "--trials" in argv:
        trials = argv[argv.index("--trials") + 1]
        if trials.lstrip("-").isdigit() and int(trials) < 1:
            assert code != 0
