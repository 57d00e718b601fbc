"""Record the reference digests that the census, irreps and classify oracles check.

Run from the repository root with the library on the path, at a commit
whose outputs are known to be right:

    PYTHONPATH=src python3 bench/record_reference.py

It serves every digest-checked request in-process through ``cli.main`` and
writes the SHA-256 of each output to ``bench/reference.json``.
"""

import contextlib
import hashlib
import io
import json

import manirep.cli as cli

import workloads as W


def sha_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> None:
    ref = {
        "census": {key: sha_of(["census"] + argv) for key, argv in W.CENSUS_GROUPS.items()},
        "irreps": {
            f"{alg},{n},{bound}": sha_of(
                ["irreps", "--algebra", alg, "--n", str(n), "--bound", str(bound)])
            for alg, n, bound in (W.LARGE_IRREPS,) + W.SMALL_IRREPS
        },
        "classify": {W.classify_key(*c): sha_of(W.classify_argv(*c)) for c in W.CLASSIFY},
    }
    (W.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
