"""Write reference/*.json from the package in src/.

    python3 bench/make_reference.py

The stored references are the outputs of the seed code (all 44 golden
tables passing).  Rerun this only on a commit whose tables are trusted: the
benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, FILIFORM_DIMS, HERE, SRC, WORK, batchgen

sys.path.insert(0, str(SRC))

import passes  # noqa: E402


def main() -> int:
    WORK.mkdir(exist_ok=True)
    refs = {}

    out = passes.run_pass("filiform", {"dims": FILIFORM_DIMS})
    refs["filiform"] = {"tables": {str(m): passes.table_record(t) for m, t in out["tables"].items()}}

    lines, records = batchgen.make_batch(DEFAULT_SEED)
    text = batchgen.batch_text(lines)
    path = WORK / "reference-batch.txt"
    path.write_text(text, encoding="utf-8")
    run = passes.run_pass("random_batch", {"path": str(path)})["batch"]
    accepted = [line for line, rec in zip(lines, records) if rec["kind"] != "reject"]
    tables = [passes.table_record(passes.table_from_json(json.loads(doc)))
              for doc in run["stdout"].splitlines()]
    if len(tables) != len(accepted):
        raise SystemExit(f"batch produced {len(tables)} tables for {len(accepted)} lines")
    refs["random_batch"] = {"seed": DEFAULT_SEED, "sha256": batchgen.digest(text),
                            "tables": dict(zip(accepted, tables))}

    out = passes.run_pass("catalog_check", passes.prepare("catalog_check", {}))
    reports = passes.catalog_reports(out["catalog"]["stdout"].splitlines()[:-1])
    refs["catalog_check"] = {
        "entries": list(reports),
        "suspect_notes": {entry: notes for entry, (_, notes) in reports.items() if notes},
        "direct_sum": {c["argv"][1]: c["stdout"].splitlines() for c in out["checks"]},
    }

    for name, doc in refs.items():
        with open(HERE / "reference" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
