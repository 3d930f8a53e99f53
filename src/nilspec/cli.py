"""Command-line front end.

Subcommands:
  compute   spectral pages of one algebra (or a batch), as text/json/csv/latex
  catalog   list built-in algebras, run the golden checks, print the census
  check     run the structural checkers on one algebra

Exit codes are a contract: 0 success, 2 parse error, 3 validation error
(well-formed input that is not a nilpotent Lie algebra), 4 internal
consistency failure.  Batch lines are independent; the worst outcome wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from . import catalog as catalog_mod
from .exterior import CochainComplexError
from .lie import (
    AlgebraFormatError,
    FiltrationMismatchError,
    IndexPairError,
    IndexRangeError,
    JacobiError,
    LieAlgebra,
    NotNilpotentError,
    SalamonSyntaxError,
    algebra_from_json,
    m0,
    parse_salamon,
    to_salamon,
)
from .spectral import (
    LIMIT,
    InternalConsistencyError,
    SpectralTable,
    check_top_degree_forms,
    check_limit_edges,
    check_abelian_extension,
    complex_for,
    table_for,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

_PARSE_ERRORS = (SalamonSyntaxError, IndexRangeError, IndexPairError, AlgebraFormatError)
_VALIDATION_ERRORS = (JacobiError, NotNilpotentError)
_INTERNAL_ERRORS = (InternalConsistencyError, CochainComplexError, FiltrationMismatchError)


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, _PARSE_ERRORS):
        return EXIT_PARSE
    if isinstance(exc, _VALIDATION_ERRORS):
        return EXIT_VALIDATION
    if isinstance(exc, _INTERNAL_ERRORS):
        return EXIT_INTERNAL
    raise exc


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _page_items(table: SpectralTable, pages: str | tuple[int, ...]) -> list[tuple[str, tuple]]:
    """(label, grid) pairs for the requested page selection (see ``_pages``)."""
    if pages == "limit":
        return [("limit", table.limit)]
    selected = sorted(table.pages) if pages == "all" else pages
    items = [(str(r), table.grid(r)) for r in selected]
    items.append(("limit", table.limit))
    return items


def _render_text(table: SpectralTable, meta: dict, pages: str) -> str:
    lines = []
    name = meta.get("id") or meta.get("label")
    head = f"{name}: " if name else ""
    lines.append(f"{head}{meta['salamon']}")
    lines.append(f"m = {table.m}, k = {table.k}, r0 = {table.r0}, "
                 f"betti = {list(table.betti)}")
    half = (table.m + 1) // 2
    lines.append(f"(degeneration bound k = {table.k}; the conjectured bound "
                 f"ceil(m/2) = {half} is {'met' if table.r0 <= half else 'exceeded'} here)")
    width = max(len(str(x)) for _, grid in _page_items(table, pages) for row in grid for x in row)
    for label, grid in _page_items(table, pages):
        title = "E_oo (limit)" if label == "limit" else f"E_{label}"
        if label != "limit" and int(label) == table.r0:
            title += " = E_oo"
        lines.append(title)
        for row in grid:
            lines.append("  " + " ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines)


def _render_latex(table: SpectralTable, meta: dict, pages: str) -> str:
    lines = []
    for label, grid in _page_items(table, pages):
        title = "E_\\infty" if label == "limit" else f"E_{label}"
        lines.append(f"% {title}")
        lines.append("\\begin{tabular}{|" + "c|" * (table.m + 1) + "}")
        lines.append("\\hline")
        for row in grid:
            lines.append(" & ".join(str(x) for x in row) + " \\\\")
            lines.append("\\hline")
        lines.append("\\end{tabular}")
    return "\n".join(lines)


def _render_csv(table: SpectralTable, meta: dict, pages: str) -> str:
    lines = ["page,p,q,total_degree,dim"]
    for label, grid in _page_items(table, pages):
        for row_idx, row in enumerate(grid):
            p = table.k - 1 - row_idx
            for deg, dim in enumerate(row):
                lines.append(f"{label},{p},{deg - p},{deg},{dim}")
    return "\n".join(lines)


def table_json(table: SpectralTable, meta: dict, pages: str | tuple[int, ...]) -> dict:
    return {
        "id": meta.get("id"),
        "salamon": meta["salamon"],
        "m": table.m,
        "k": table.k,
        "r0": table.r0,
        "betti": list(table.betti),
        "pages": {label: [list(row) for row in grid]
                  for label, grid in _page_items(table, pages) if label != "limit"},
        "limit": [list(row) for row in table.limit],
    }


def render_table(table: SpectralTable, meta: dict, fmt: str, pages: str) -> str:
    if fmt == "text":
        return _render_text(table, meta, pages)
    if fmt == "json":
        return json.dumps(table_json(table, meta, pages), indent=2)
    if fmt == "csv":
        return _render_csv(table, meta, pages)
    if fmt == "latex":
        return _render_latex(table, meta, pages)
    raise ValueError(f"unknown format {fmt}")


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _load_algebra(text: str) -> LieAlgebra:
    """A salamon string, or a path to a salamon / JSON algebra file."""
    candidate = text.strip()
    if candidate.startswith("("):
        return parse_salamon(candidate)
    if os.path.isfile(candidate):
        try:
            with open(candidate, encoding="utf-8") as fh:
                content = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise AlgebraFormatError(f"cannot read {candidate}: {exc}") from exc
        if content.startswith("{"):
            try:
                doc = json.loads(content)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise AlgebraFormatError(f"bad JSON in {candidate}: {exc}") from exc
            return algebra_from_json(doc)
        return parse_salamon(content)
    raise SalamonSyntaxError(f"input {candidate!r} is neither a '(...)' string nor a file", 1)


def _resolve_input(args: argparse.Namespace) -> LieAlgebra:
    if args.m0 is not None:
        return m0(args.m0)
    if args.input is None:
        raise SalamonSyntaxError("no input given (pass a salamon string, a file, or --m0 N)", 1)
    return _load_algebra(args.input)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fail(exc: Exception, prefix: str = "") -> int:
    """Print one error line for an exception and return its exit code."""
    code = _exit_code_for(exc)
    print(f"error: {prefix}{exc}", file=sys.stderr)
    return code


def _compute_one(load: Callable[[], LieAlgebra], args: argparse.Namespace, prefix: str = "") -> int:
    try:
        algebra = load()
        table = table_for(algebra)
    except Exception as exc:  # mapped to the exit-code contract
        return _fail(exc, prefix)
    meta = {"salamon": to_salamon(algebra), "id": None, "label": algebra.label}
    if args.batch and args.format == "json":
        print(json.dumps(table_json(table, meta, args.pages)))  # one line per algebra
    else:
        print(render_table(table, meta, args.format, args.pages))
    return EXIT_OK


def cmd_compute(args: argparse.Namespace) -> int:
    if not args.batch:
        return _compute_one(lambda: _resolve_input(args), args)
    if args.m0 is not None:
        print("error: --m0 does not apply with --batch", file=sys.stderr)
        return EXIT_PARSE
    source = args.input or "-"
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(AlgebraFormatError(f"cannot read batch file {source}: {exc}"))
    worst = EXIT_OK
    for line in text.splitlines():
        if line.strip():
            worst = max(worst, _compute_one(lambda: _load_algebra(line), args, f"{line.strip()}: "))
    return worst


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.census is not None:
        if args.check or args.dim is not None:
            print("error: --census does not apply with --check or --dim", file=sys.stderr)
            return EXIT_PARSE
        classes, distinct = catalog_mod.distinct_table_census(args.census)
        if args.format == "json":
            print(json.dumps({"dim": args.census, "classes": classes, "distinct_tables": distinct}))
        else:
            print(f"{classes} classes, {distinct} distinct tables")
        return EXIT_OK
    entries = catalog_mod.list_entries(args.dim)
    if not args.check:
        for e in entries:
            extra = f"  [{e.label}]" if e.label else ""
            if e.decomposition:
                extra += f"  (R^{e.decomposition[0]} (+) {e.decomposition[1]})"
            print(f"{e.id:10s} {e.salamon}{extra}")
        return EXIT_OK
    worst = EXIT_OK
    reports = []
    for e in entries:
        try:
            algebra = e.algebra()
            table = table_for(algebra)
            comp = complex_for(algebra)
            golden = catalog_mod.golden_check(e, table)
            edges = check_limit_edges(table, comp)
            lemma = check_top_degree_forms(comp)
            ok = golden.ok and edges.ok and lemma.ok
            if not ok:
                worst = max(worst, EXIT_INTERNAL)
            notes = []
            for mm in golden.suspect_mismatches:
                notes.append(f"suspect cell page {mm.page} [{mm.row}][{mm.col}]: "
                             f"printed {mm.stored}, engine {mm.computed}")
            for mm in golden.hard_mismatches:
                notes.append(f"MISMATCH page {mm.page} [{mm.row}][{mm.col}]: "
                             f"stored {mm.stored}, engine {mm.computed}")
            notes.extend(edges.violations)
            notes.extend(lemma.violations)
            reports.append({"id": e.id, "ok": ok, "r0": golden.r0_computed, "notes": notes})
        except Exception as exc:  # mapped to the exit-code contract
            worst = max(worst, _exit_code_for(exc))
            reports.append({"id": e.id, "ok": False, "r0": None, "notes": [str(exc)]})
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    else:
        for rep in reports:
            print(f"{'PASS' if rep['ok'] else 'FAIL'} {rep['id']}"
                  + "".join(f"\n      {n}" for n in rep["notes"]))
        print(f"{sum(r['ok'] for r in reports)}/{len(reports)} entries pass")
    return worst


def cmd_check(args: argparse.Namespace) -> int:
    if args.page and args.direct_sum is None:
        print("error: --page applies only with --direct-sum", file=sys.stderr)
        return EXIT_PARSE
    run_all = not (args.theorems or args.lemma or args.direct_sum is not None)
    reports = []
    try:
        algebra = _resolve_input(args)
        if args.theorems or run_all:
            table = table_for(algebra)
            reports.append(check_limit_edges(table, complex_for(algebra)))
        if args.lemma or run_all:
            reports.append(check_top_degree_forms(complex_for(algebra)))
        if args.direct_sum is not None:
            reports += check_abelian_extension(algebra, args.page or [LIMIT], s=args.direct_sum)
    except Exception as exc:  # mapped to the exit-code contract
        return _fail(exc)
    if args.format == "json":
        print(json.dumps([{"name": r.name, "ok": r.ok, "checks": r.checks,
                           "violations": list(r.violations)} for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.checks} checks)"
                  + "".join(f"\n      {v}" for v in r.violations))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _page(text: str) -> int | None:
    """A page index: 'limit' (also 'inf', 'oo') or an integer >= 0."""
    return LIMIT if text in ("limit", "inf", "oo") else _at_least(0)(text)


def _pages(text: str) -> str | tuple[int, ...]:
    """'all', 'limit', or a comma list of page indices >= 0 (sorted, deduplicated)."""
    return text if text in ("all", "limit") else tuple(sorted({_at_least(0)(p) for p in text.split(",")}))


def _catalog_dim(text: str) -> int:
    dims = sorted({e.dim for e in catalog_mod.list_entries()})
    dim = _at_least(1)(text)
    if dim not in dims:
        raise argparse.ArgumentTypeError(f"the catalog has dimensions {dims}, not {dim}")
    return dim


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="nilspec",
        description="Spectral sequences of nilpotent Lie algebras, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute and print page tables")
    source = p_compute.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", help="salamon string, or a file path")
    source.add_argument("--m0", type=_at_least(3), metavar="N",
                        help="use the filiform algebra of dimension N >= 3")
    p_compute.add_argument("--pages", type=_pages, default="all",
                           help="'all' (default: 0..r0), 'limit', or a comma list like 0,1,2")
    p_compute.add_argument("--format", choices=("text", "json", "csv", "latex"), default="text")
    p_compute.add_argument("--batch", action="store_true",
                           help="treat input (or stdin with '-') as one salamon string per line")
    p_compute.set_defaults(func=cmd_compute)

    p_catalog = sub.add_parser("catalog", help="browse or verify the built-in catalog")
    p_catalog.add_argument("--dim", type=_catalog_dim, default=None)
    p_catalog.add_argument("--check", action="store_true",
                           help="golden tables plus structural checkers over the selection")
    p_catalog.add_argument("--census", type=_catalog_dim, metavar="DIM",
                           help="print (classes, distinct limit tables) for a dimension")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.set_defaults(func=cmd_catalog)

    p_check = sub.add_parser("check", help="run structural checkers on one algebra")
    source = p_check.add_mutually_exclusive_group()
    source.add_argument("input", nargs="?", help="salamon string, or a file path")
    source.add_argument("--m0", type=_at_least(3), metavar="N")
    p_check.add_argument("--theorems", action="store_true",
                         help="limit-edge identities (degrees 0, 1, m-1, m)")
    p_check.add_argument("--lemma", action="store_true",
                         help="top-degree closed/exact characterisation")
    p_check.add_argument("--direct-sum", type=_at_least(1), metavar="S",
                         help="direct-sum identities for R^S (+) this algebra")
    p_check.add_argument("--page", type=_page, action="append",
                         help="page for --direct-sum: an integer or 'limit' (repeatable)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
