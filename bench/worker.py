"""One measurement in a fresh interpreter; prints one JSON object.

    worker.py setup
        time ``import nilspec.cli`` plus loading the catalog
    worker.py pass WORKLOAD INPUTS.json TRACE [SPANS.json]
        time one pass of the workload, then check its outputs

A pass runs in its own process because ``ru_maxrss`` only rises, and so that
it starts with empty caches.  The package must be importable (run.py puts the
checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def setup() -> dict:
    start = time.perf_counter()
    import nilspec.cli  # noqa: F401
    from nilspec import catalog
    catalog.list_entries()
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "module": nilspec.cli.__file__}


def one_pass(workload: str, inputs_path: str, traced: bool, spans_path: str | None) -> dict:
    import passes
    import tracing

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = passes.prepare(workload, json.load(fh))
    reference = passes.load_reference(workload)
    with tracing.Tracer() if traced else contextlib.nullcontext() as tracer:
        start = time.perf_counter()
        outputs = passes.run_pass(workload, inputs)
        wall = time.perf_counter() - start
        complex_for = getattr(passes.spectral, "complex_for", None)
        cache_info = complex_for.cache_info() if hasattr(complex_for, "cache_info") else None
    layers = self_s = None
    if traced:
        layers, self_s = tracer.metrics(wall, cache_info), tracer.self_times()
        if spans_path:
            tracer.write(spans_path, {"workload": workload, "seed": inputs.get("seed"),
                                      "wall_s": wall})
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        attempted, failures = passes.verify(workload, inputs, outputs, reference)
        digest = passes.outputs_digest(workload, outputs)
    except Exception as exc:  # a checker that cannot read the outputs fails them all
        attempted, failures = None, [f"verification raised {type(exc).__name__}: {exc}"]
        digest = None
    return {"wall_s": wall, "peak_rss_mb": peak_mb, "attempted": attempted,
            "failures": failures, "digest": digest, "layers": layers, "self_s": self_s}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        result = setup()
    elif argv[:1] == ["pass"] and len(argv) in (4, 5):
        result = one_pass(argv[1], argv[2], argv[3] == "1", argv[4] if len(argv) == 5 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
