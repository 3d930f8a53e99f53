"""One pass of each workload, and the checks on what the pass produced.

A pass drives the package only through its public modules.  ``run_pass``
returns the raw outputs; ``verify`` turns them into a count of operations
attempted and a list of failures.  An operation is one algebra (filiform),
one batch line (random_batch) or one catalog entry or direct-sum report
(catalog_check).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from nilspec import catalog, cli, lie, spectral

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

DIRECT_SUM_MAX_DIM = 5
DIRECT_SUM_ARGS = ("--direct-sum", "1", "--page", "0", "--page", "limit")


def run_cli(argv: list[str]) -> dict:
    """``nilspec <argv>`` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to report, not to hide
            code, crash = None, f"{type(exc).__name__}: {exc}"
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "crash": crash}


def prepare(workload: str, inputs: dict) -> dict:
    """Untimed set-up that a pass needs beyond its input file."""
    if workload == "catalog_check":
        inputs = dict(inputs, direct_sum=[e.salamon for e in catalog.list_entries()
                                          if e.dim <= DIRECT_SUM_MAX_DIM])
    return inputs


def run_pass(workload: str, inputs: dict) -> dict:
    """One pass; the caller times it.  Starts from an empty complex cache."""
    clear = getattr(getattr(spectral, "complex_for", None), "cache_clear", None)
    if clear is not None:
        clear()
    if workload == "filiform":
        return {"tables": {m: spectral.table_for(lie.m0(m)) for m in inputs["dims"]}}
    if workload == "random_batch":
        return {"batch": run_cli(["compute", "--batch", inputs["path"], "--format", "json"])}
    if workload == "catalog_check":
        return {"catalog": run_cli(["catalog", "--check"]),
                "checks": [run_cli(["check", s, *DIRECT_SUM_ARGS]) for s in inputs["direct_sum"]]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def table_record(table: spectral.SpectralTable) -> dict:
    """The parts of a table that are compared: pages up to r0, limit, r0, Betti."""
    return {"r0": table.r0, "betti": list(table.betti),
            "pages": {str(r): [list(row) for row in grid]
                      for r, grid in sorted(table.pages.items()) if r <= table.r0},
            "limit": [list(row) for row in table.limit]}


def _grid(rows: list[list[int]]) -> spectral.Grid:
    return tuple(tuple(row) for row in rows)


def table_from_json(doc: dict) -> spectral.SpectralTable:
    """A table from one line of ``compute --format json`` output."""
    return spectral.SpectralTable(
        m=doc["m"], k=doc["k"], pages={int(r): _grid(g) for r, g in doc["pages"].items()},
        limit=_grid(doc["limit"]), betti=tuple(doc["betti"]), r0=doc["r0"])


def table_problems(table: spectral.SpectralTable, algebra: lie.LieAlgebra) -> list[str]:
    """Structural checks that need no reference: the limit-edge identities,
    page r0 equal to the limit, and Euler characteristic 0 on every page."""
    problems = list(spectral.check_limit_edges(table, spectral.complex_for(algebra)).violations)
    if table.pages.get(table.r0) != table.limit:
        problems.append(f"page r0={table.r0} differs from the limit")
    for r, grid in [*table.pages.items(), ("limit", table.limit)]:
        chi = sum((-1) ** deg * row[deg] for row in grid for deg in range(len(row)))
        if chi:
            problems.append(f"page {r} has Euler characteristic {chi}")
    return problems


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def outputs_digest(workload: str, outputs: dict) -> str:
    """Digest of everything a pass produced, to compare traced and untraced passes."""
    if workload == "filiform":
        doc = {str(m): table_record(t) for m, t in outputs["tables"].items()}
    else:
        doc = outputs
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def verify(workload: str, inputs: dict, outputs: dict, reference: dict) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation)."""
    if workload == "filiform":
        return _verify_filiform(outputs, reference)
    if workload == "random_batch":
        return _verify_batch(inputs, outputs, reference)
    return _verify_catalog(outputs, reference)


def _verify_filiform(outputs: dict, reference: dict) -> tuple[int, list[str]]:
    failures = []
    for m, table in outputs["tables"].items():
        want = reference["tables"].get(str(m))
        if want is not None and table_record(table) != want:
            failures.append(f"m0({m}): table differs from the reference")
            continue
        problems = table_problems(table, lie.m0(m))
        if problems:
            failures.append(f"m0({m}): {problems[0]}")
    return len(outputs["tables"]), failures


def _verify_batch(inputs: dict, outputs: dict, reference: dict) -> tuple[int, list[str]]:
    lines, records = inputs["lines"], inputs["records"]
    run = outputs["batch"]
    want_exit = max([0] + [rec["exit"] for rec in records if rec["kind"] == "reject"])
    if run["crash"] or run["exit"] != want_exit:
        why = run["crash"] or f"exit {run['exit']}, expected {want_exit}"
        return len(lines), [f"batch: {why}"] * len(lines)
    tables = iter(run["stdout"].splitlines())
    errors = iter(run["stderr"].splitlines())
    known = reference["tables"] if inputs.get("sha256") == reference.get("sha256") else {}
    failed: dict[int, str] = {}
    got: dict[int, dict] = {}
    for n, (line, rec) in enumerate(zip(lines, records)):
        if rec["kind"] == "reject":
            message = next(errors, "")
            alone = run_cli(["compute", line])
            if not message.startswith(f"error: {line}: "):
                failed[n] = f"not rejected in order ({message!r})"
            elif alone["exit"] != rec["exit"]:
                failed[n] = f"exit {alone['exit']}, expected {rec['exit']}"
            continue
        try:
            table = table_from_json(json.loads(next(tables, "")))
        except (ValueError, KeyError, TypeError) as exc:
            failed[n] = f"unreadable output ({type(exc).__name__}: {exc})"
            continue
        got[n] = table_record(table)
        if line in known and got[n] != known[line]:
            failed[n] = "table differs from the reference"
        else:
            problems = table_problems(table, lie.parse_salamon(line))
            if problems:
                failed[n] = problems[0]
    for n, rec in enumerate(records):
        if rec["kind"] == "twin" and n in got and got[n] != got.get(rec["of"]):
            failed.setdefault(n, f"table differs from its original on line {rec['of'] + 1}")
    failures = [f"line {n + 1} {lines[n]}: {why}" for n, why in sorted(failed.items())]
    leftover = len(list(tables)) + len(list(errors))
    if leftover:
        failures.append(f"batch: {leftover} unexpected output lines")
    return len(lines), failures


def catalog_reports(lines: list[str]) -> dict[str, tuple[str, list[str]]]:
    """``catalog --check`` text output as entry id -> (PASS or FAIL, note lines)."""
    reports: dict[str, tuple[str, list[str]]] = {}
    notes: list[str] = []
    for line in lines:
        if line.startswith(" "):
            notes.append(line.strip())
        else:
            verdict, _, entry_id = line.partition(" ")
            notes = []
            reports[entry_id] = (verdict, notes)
    return reports


def _verify_catalog(outputs: dict, reference: dict) -> tuple[int, list[str]]:
    run = outputs["catalog"]
    ids = reference["entries"]
    total = len(ids) + len(reference["direct_sum"])
    failures = []
    summary = f"{len(ids)}/{len(ids)} entries pass"
    lines = run["stdout"].splitlines()
    if run["crash"] or run["exit"] != 0 or not lines or lines[-1] != summary:
        why = run["crash"] or f"exit {run['exit']}, last line {lines[-1:]!r}"
        failures += [f"catalog --check: {why}"] * len(ids)
    else:
        reports = catalog_reports(lines[:-1])
        for entry_id in ids:
            verdict, notes = reports.get(entry_id, ("missing", []))
            want = reference["suspect_notes"].get(entry_id, [])
            if verdict != "PASS" or notes != want:
                failures.append(f"{entry_id}: {verdict} with notes {notes}, expected PASS with {want}")
    checks = {c["argv"][1]: c for c in outputs["checks"]}
    for salamon, want in reference["direct_sum"].items():
        c = checks.get(salamon)
        if c is None or c["crash"] or c["exit"] != 0 or c["stdout"].splitlines() != want:
            failures.append(f"check {salamon} --direct-sum 1: "
                            f"{c and (c['crash'] or c['exit'])}, output {c and c['stdout']!r}")
    return total, failures
