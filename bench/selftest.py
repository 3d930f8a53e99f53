"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Checks that a traced pass produces the same outputs as an untraced one, that
every wrapped name is restored afterwards, that a deliberately wrong
reference is counted as a failure, and that the generated batch file is
reproducible.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import batchgen  # noqa: E402
import passes  # noqa: E402
import tracing  # noqa: E402
from run import DEFAULT_SEED, ROOT, WORK  # noqa: E402

SMALL_STRATA = (((6, 3, 2, 1), 1, 1), ((6, 4, 3, 1), 1, 0))
_cache: dict = {}


def small_inputs(workload: str) -> dict:
    """Inputs of the smallest pass of each workload (the catalog pass is fixed)."""
    if workload not in _cache:
        if workload == "filiform":
            inputs = {"dims": [4, 5]}
        elif workload == "random_batch":
            lines, records = batchgen.make_batch(1, SMALL_STRATA)
            text = batchgen.batch_text(lines)
            WORK.mkdir(exist_ok=True)
            path = WORK / "selftest-batch.txt"
            path.write_text(text, encoding="utf-8")
            inputs = {"path": str(path), "lines": lines, "records": records,
                      "sha256": batchgen.digest(text)}
        else:
            inputs = {}
        _cache[workload] = passes.prepare(workload, inputs)
    return _cache[workload]


def untraced(workload: str) -> dict:
    key = ("outputs", workload)
    if key not in _cache:
        _cache[key] = passes.run_pass(workload, small_inputs(workload))
    return _cache[key]


def failed_ratio(workload: str, outputs: dict, reference: dict) -> float:
    attempted, failures = passes.verify(workload, small_inputs(workload), outputs, reference)
    return len(failures) / attempted


def boundary_objects() -> dict:
    return {(b.module, b.attr): getattr(tracing.MODULES[b.module], b.attr, None)
            for b in tracing.BOUNDARIES}


def test_traced_pass_matches_untraced_and_restores_names():
    for workload in ("filiform", "random_batch", "catalog_check"):
        before = boundary_objects()
        with tracing.Tracer() as tracer:
            outputs = passes.run_pass(workload, small_inputs(workload))
        assert all(now is before[key] for key, now in boundary_objects().items()), workload
        assert tracer.spans, workload
        assert (passes.outputs_digest(workload, outputs)
                == passes.outputs_digest(workload, untraced(workload))), workload
        reference = passes.load_reference(workload)
        assert failed_ratio(workload, outputs, reference) == 0, workload


def test_names_restored_when_the_pass_raises():
    before = boundary_objects()
    try:
        with tracing.Tracer():
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    assert all(now is before[key] for key, now in boundary_objects().items())


def test_missing_boundary_reads_null():
    saved = passes.catalog.golden_check
    del passes.catalog.golden_check
    try:
        with tracing.Tracer() as tracer:
            passes.run_pass("filiform", small_inputs("filiform"))
        metrics = tracer.metrics(1.0, None)
    finally:
        passes.catalog.golden_check = saved
    assert metrics["catalog.golden_check_s"] is None
    assert metrics["spectral.table_s"] > 0


def test_every_per_layer_metric_is_produced():
    with tracing.Tracer() as tracer:
        passes.run_pass("filiform", small_inputs("filiform"))
    produced = set(tracer.metrics(1.0, None)) | {"trace.untraced_wall_s", "trace.overhead_ratio"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_wrong_reference_raises_failed_ratio():
    # filiform: a reference table with one cell off
    outputs = untraced("filiform")
    record = passes.table_record(outputs["tables"][5])
    record["limit"][0][0] += 1
    assert failed_ratio("filiform", outputs, {"tables": {"5": record}}) > 0
    # random_batch: a reference for this very file with one table off
    inputs, outputs = small_inputs("random_batch"), untraced("random_batch")
    tables = {line: passes.table_record(passes.table_from_json(json.loads(doc)))
              for line, doc in zip([l for l, r in zip(inputs["lines"], inputs["records"])
                                    if r["kind"] != "reject"],
                                   outputs["batch"]["stdout"].splitlines())}
    reference = {"sha256": inputs["sha256"], "tables": tables}
    assert failed_ratio("random_batch", outputs, reference) == 0
    wrong = copy.deepcopy(reference)
    first = next(iter(wrong["tables"]))
    wrong["tables"][first]["r0"] += 1
    assert failed_ratio("random_batch", outputs, wrong) > 0
    # catalog_check: one suspect note that the engine does not print
    wrong = copy.deepcopy(passes.load_reference("catalog_check"))
    wrong["suspect_notes"].setdefault("dim3-h3", []).append("suspect cell page 0 [0][0]")
    assert failed_ratio("catalog_check", untraced("catalog_check"), wrong) > 0


def test_batch_file_is_reproducible():
    first = batchgen.batch_text(batchgen.make_batch(DEFAULT_SEED)[0])
    assert first == batchgen.batch_text(batchgen.make_batch(DEFAULT_SEED)[0])
    assert batchgen.digest(first) == passes.load_reference("random_batch")["sha256"]
    assert first != batchgen.batch_text(batchgen.make_batch(DEFAULT_SEED + 1)[0])


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
