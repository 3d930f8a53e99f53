"""Command-line front end.

Subcommands:
  compute   spectral pages of one algebra (or a batch), as text/json/csv/latex
  catalog   list built-in algebras, run the golden checks, print the census
  check     run the structural checkers on one algebra

Exit codes are a contract: 0 success, 2 parse error, 3 validation error
(well-formed input that is not a nilpotent Lie algebra, or one above
MAX_DIM), 4 internal consistency failure.  An error's base class sets its
code: ``lie.ParseError`` 2, any other ``lie.LieError`` 3,
``InternalConsistencyError`` 4.  Commands raise, and ``main`` maps the error
to one ``error:`` line and its code; only a batch line and a catalog entry
are mapped where they fail, so that the run goes on.  The worst outcome
wins.  A reader that closes the pipe early ends the run quietly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from . import catalog as catalog_mod
from .lie import (AlgebraFormatError, LieAlgebra, LieError, ParseError, SalamonSyntaxError, algebra_from_json,
                  m0, parse_salamon, to_salamon)
from .spectral import (LIMIT, InternalConsistencyError, SpectralTable, check_abelian_extension, check_limit_edges,
                       check_top_degree_forms, complex_for, table_for)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

MAX_DIM = 20  # the table of m0(20) takes minutes and 350 MB (README, "Size cap")


class TooLargeError(LieError):
    """The algebra's dimension is above MAX_DIM; refused before validation."""


def _within_cap(m: int) -> int:
    if m > MAX_DIM:
        raise TooLargeError(f"dimension {m} is above the cap of {MAX_DIM}")
    return m


def _exit_code_for(exc: Exception) -> int:  # an exception of no category is re-raised
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, LieError):
        return EXIT_VALIDATION
    if isinstance(exc, InternalConsistencyError):
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


def _render_text(table: SpectralTable, algebra: LieAlgebra, pages: str) -> str:
    head = f"{algebra.label}: " if algebra.label else ""
    lines = [f"{head}{to_salamon(algebra)}",
             f"m = {table.m}, k = {table.k}, r0 = {table.r0}, betti = {list(table.betti)}",
             f"(degeneration bound k = {table.k})"]
    width = max(len(str(x)) for _, grid in _page_items(table, pages) for row in grid for x in row)
    for label, grid in _page_items(table, pages):
        title = "E_oo (limit)" if label == "limit" else f"E_{label}"
        if label != "limit" and int(label) == table.r0:
            title += " = E_oo"
        lines.append(title)
        for row in grid:
            lines.append("  " + " ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines)


def _render_latex(table: SpectralTable, algebra: LieAlgebra, pages: str) -> str:
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


def _render_csv(table: SpectralTable, algebra: LieAlgebra, pages: str) -> str:
    lines = ["page,p,q,total_degree,dim"]
    for label, grid in _page_items(table, pages):
        for row_idx, row in enumerate(grid):
            p = table.k - 1 - row_idx
            for deg, dim in enumerate(row):
                lines.append(f"{label},{p},{deg - p},{deg},{dim}")
    return "\n".join(lines)


def table_json(table: SpectralTable, algebra: LieAlgebra, pages: str | tuple[int, ...]) -> dict:
    return {
        "id": None,
        "salamon": to_salamon(algebra),
        "m": table.m,
        "k": table.k,
        "r0": table.r0,
        "betti": list(table.betti),
        "pages": {label: [list(row) for row in grid]
                  for label, grid in _page_items(table, pages) if label != "limit"},
        "limit": [list(row) for row in table.limit],
    }


def _render_json(table: SpectralTable, algebra: LieAlgebra, pages: str) -> str:
    return json.dumps(table_json(table, algebra, pages), indent=2)


RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv, "latex": _render_latex}


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _read(path: str, what: str) -> str:
    """The text of a file, or of stdin for "-", less a leading byte-order mark; unreadable, a parse error."""
    try:
        if path == "-":
            return sys.stdin.read().removeprefix("\ufeff")
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraFormatError(f"cannot read {what}: {exc}") from exc


def _load_algebra(text: str) -> LieAlgebra:
    """A salamon string, or a path to a salamon / JSON algebra file."""
    candidate = text.strip()
    if not candidate.startswith("("):
        if not os.path.isfile(candidate):
            raise SalamonSyntaxError(f"input {candidate!r} is neither a '(...)' string nor a file", 1)
        content = _read(candidate, candidate).strip()
        if content.startswith("{"):
            try:
                doc = json.loads(content)
            except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
                raise AlgebraFormatError(f"bad JSON in {candidate}: {exc}") from exc
            if isinstance(doc, dict) and type(doc.get("dim")) is int:
                _within_cap(doc["dim"])
            return algebra_from_json(doc)
        candidate = content
    if candidate.startswith("("):
        _within_cap(candidate.count(",") + 1)  # parse_salamon reads one entry per field
    return parse_salamon(candidate)


def _resolve_input(args: argparse.Namespace) -> LieAlgebra:
    if args.m0 is not None:
        return m0(_within_cap(args.m0))
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


def _print_table(algebra: LieAlgebra, args: argparse.Namespace) -> None:
    table = table_for(algebra)
    if args.batch and args.format == "json":
        print(json.dumps(table_json(table, algebra, args.pages)))  # one line per algebra
    else:
        print(RENDERERS[args.format](table, algebra, args.pages))


def cmd_compute(args: argparse.Namespace) -> int:
    if not args.batch:
        _print_table(_resolve_input(args), args)
        return EXIT_OK
    if args.m0 is not None:
        raise ParseError("--m0 does not apply with --batch")
    source = args.input or "-"
    text = _read(source, f"batch file {source}")
    worst = EXIT_OK
    for line in text.split("\n"):  # not splitlines, which also splits at U+2028, \x0c and the like
        if line.strip():
            try:
                _print_table(_load_algebra(line), args)
            except Exception as exc:  # a bad line fails alone
                worst = max(worst, _fail(exc, f"{line.strip()}: "))
    return worst


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.census is not None:
        if args.check or args.dim is not None:
            raise ParseError("--census does not apply with --check or --dim")
        classes, distinct = catalog_mod.distinct_table_census(args.census)
        if args.format == "json":
            print(json.dumps({"dim": args.census, "classes": classes, "distinct_tables": distinct}))
        else:
            print(f"{classes} classes, {distinct} distinct tables")
        return EXIT_OK
    entries = catalog_mod.list_entries(args.dim)
    if not args.check:
        if args.format == "json":
            print(json.dumps([{"id": e.id, "salamon": e.salamon, "label": e.label, "decomposition": e.decomposition}
                              for e in entries], indent=2))
            return EXIT_OK
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
            golden, suspects = catalog_mod.golden_check(e, table)
            checks = (golden, check_limit_edges(table, comp), check_top_degree_forms(comp))
            ok = all(r.ok for r in checks)
            worst = max(worst, EXIT_OK if ok else EXIT_INTERNAL)
            notes = [*suspects, *(v for r in checks for v in r.violations)]
            reports.append({"id": e.id, "ok": ok, "r0": table.r0, "notes": notes})
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
        raise ParseError("--page applies only with --direct-sum")
    run_all = not (args.theorems or args.lemma or args.direct_sum is not None)
    reports = []
    algebra = _resolve_input(args)
    _within_cap(algebra.m + (args.direct_sum or 0))
    if args.theorems or run_all:
        reports.append(check_limit_edges(table_for(algebra), complex_for(algebra)))
    if args.lemma or run_all:
        reports.append(check_top_degree_forms(complex_for(algebra)))
    if args.direct_sum is not None:
        reports += check_abelian_extension(algebra, args.page or [LIMIT], s=args.direct_sum)
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
    p_compute.add_argument("--format", choices=RENDERERS, default="text")
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
    code = EXIT_OK
    try:  # commands raise, and their errors are mapped here; parsing --dim and --census reads the catalog
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe fails the flush here, not at exit
    except BrokenPipeError:  # the reader has gone: send what is left to devnull, say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # after BrokenPipeError, which has no exit code and would be re-raised
        return _fail(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
