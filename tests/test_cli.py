import json
import subprocess
import sys

import numpy as np
import pytest

from manirep.cli import main
from manirep.numkit import OMEGA2, Mat


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--algebra", "SL"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("size", ["1.5", "1.0", '"1"', "true"])
def test_non_integer_matrix_size_is_rejected(tmp_path, capsys, size):
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows": {size}, "cols": 2, "field": "R", "data": [[1, 0], [2, 0]]}}')
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


def test_huge_symmetric_matrix_is_not_skew(tmp_path, capsys):
    assert main(["stabilizer", "--action", "congruence-skew",
                 "--matrix", _overflowing_file(tmp_path)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"]["type"] == "NotSkew"
