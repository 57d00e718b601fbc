"""Every function the benchmark tracer (bench/tracer.py) wraps or counts by name exists.

The tracer rebinds functions by their dotted names, so a rename in ``src/`` would otherwise
fail only the traced benchmark runs.  This test reads the tracer's tables and changes nothing
under bench/."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _names(tr) -> set[str]:
    names = set(tr.LEAVES) | set(tr.HOOKS)
    names |= {f"{layer}.{n}" for layer, ns in tr.PRIVATE.items() for n in ns}
    names |= {n for targets in tr._ALIASES.values() for n in targets}
    return names


def test_every_traced_name_resolves_in_manirep():
    names = _names(_tracer())
    missing = []
    for name in sorted(names):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"manirep.{layer}")
        for part in path:
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    assert not missing, f"bench/tracer.py names functions manirep lacks: {missing}"
