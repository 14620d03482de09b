"""The benchmark's per-layer metrics name public functions of ttckit.

perfbench/run.py --trace 1 reads metrics[name] for every per-layer metric
in BENCHMARK.json, and perfbench/trace.py makes the <layer>.<fn>_s and
<layer>.<fn>_calls metrics only for the functions listed in
ttckit.<layer>.__all__ and defined in that module. Deleting or renaming
such a function would make a traced benchmark run fail with a KeyError.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_functions() -> list[tuple[str, str]]:
    """(layer, function) of every per-layer metric timed or counted per call."""
    names = []
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        if layer == "trace" or rest == "self_s" or metric["name"] == "cli.import_s":
            continue
        for suffix in ("_s", "_calls"):
            if rest.endswith(suffix):
                names.append((layer, rest[: -len(suffix)]))
    return names


def test_per_layer_metrics_name_public_functions():
    names = traced_functions()
    assert len(names) >= 10
    missing = []
    for layer, fn in names:
        module = importlib.import_module(f"ttckit.{layer}")
        value = getattr(module, fn, None)
        if fn not in module.__all__ or not inspect.isfunction(value) or value.__module__ != module.__name__:
            missing.append(f"{layer}.{fn}")
    assert not missing, f"BENCHMARK.json times functions the tracer cannot wrap: {missing}"
