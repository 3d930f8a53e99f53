"""usage: nilspec compute [INPUT | --m0 N] [--pages all|limit|0,1,...] [--format text|json|csv|latex] [--batch]
       nilspec catalog [--dim D] [--check] [--census D] [--format text|json]
       nilspec check [INPUT | --m0 N] [--theorems] [--lemma] [--direct-sum S [--page R]...] [--format text|json]

INPUT is a salamon string such as "(0,0,12)" or a file; --batch reads one string a line from INPUT,
or from stdin for '-' or none.  An option may be shortened to a unique prefix and take its value
as --opt=value; '--' ends the options.  Exit codes: 0 success, 2 parse error, 3 validation error,
4 internal inconsistency; a failure prints one "error:" line.  README, "Command line", says more.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
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


def _resolve_input(args: SimpleNamespace) -> LieAlgebra:
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


def _print_table(algebra: LieAlgebra, args: SimpleNamespace) -> None:
    table = table_for(algebra)
    if args.batch and args.format == "json":
        print(json.dumps(table_json(table, algebra, args.pages)))  # one line per algebra
    else:
        print(RENDERERS[args.format](table, algebra, args.pages))


def cmd_compute(args: SimpleNamespace) -> int:
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


def cmd_catalog(args: SimpleNamespace) -> int:
    if args.census is not None:
        if args.check or args.dim is not None:
            raise ParseError("--census does not apply with --check or --dim")
        classes, distinct = catalog_mod.distinct_table_census(args.census)
        if args.format == "json":
            print(json.dumps({"dim": args.census, "classes": classes, "distinct_tables": distinct}))
        else:
            print(f"{classes} class{'es' * (classes != 1)}, {distinct} distinct table{'s' * (distinct != 1)}")
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


def cmd_check(args: SimpleNamespace) -> int:
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
# argument reading
# ---------------------------------------------------------------------------

class UsageError(ParseError):
    """A command line that ``COMMANDS`` does not accept."""


def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise UsageError(f"must be at least {low}, got {value}")
        return value
    return integer


def _one_of(*choices: str) -> Callable[[str], str]:
    def choice(text: str) -> str:
        if text not in choices:
            raise UsageError(f"invalid choice: {text!r} (choose from {', '.join(choices)})")
        return text
    return choice


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
        raise UsageError(f"the catalog has dimensions {dims}, not {dim}")
    return dim


FLAG = "flag"
HELP = ("-h", "--help")
# command -> (function, takes an INPUT, {option: its reader, or FLAG}, defaults other than None and False);
# --page collects a list, and every other option keeps its last value
COMMANDS = {
    "compute": (cmd_compute, True, {"--m0": _at_least(3), "--pages": _pages, "--format": _one_of(*RENDERERS),
                                    "--batch": FLAG}, {"pages": "all", "format": "text"}),
    "catalog": (cmd_catalog, False, {"--dim": _catalog_dim, "--check": FLAG, "--census": _catalog_dim,
                                     "--format": _one_of("text", "json")}, {"format": "text"}),
    "check": (cmd_check, True, {"--m0": _at_least(3), "--theorems": FLAG, "--lemma": FLAG, "--direct-sum": _at_least(1),
                                "--page": _page, "--format": _one_of("text", "json")}, {"format": "text"}),
}


def _option(token: str, names: tuple[str, ...]) -> tuple[str, str | None] | None:
    """(name, value after '=' or None) for a token naming one of ``names``, None for a positional token.
    A long option may be shortened to a unique prefix."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    found = [n for n in names if n == name] or [n for n in names if token[1] == "-" and n.startswith(name)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option {name!r} could match {', '.join(found)}")
    if found:
        return found[0], (value if eq else None)
    if token[1] != "h" and (" " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token)):
        return None  # a negative number, or a token with a space; argparse read -hX as -h
    raise UsageError(f"unrecognized argument {token!r}")


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace a command reads, or None for -h or --help; UsageError for a command
    line that COMMANDS does not accept.  Every token is read as argparse read it."""
    command = argv[0] if argv else None
    func, takes_input, options, defaults = COMMANDS.get(command) or (None, False, {}, {})
    args = {"command": command, "func": func, **({"input": None} if takes_input else {}),
            **{name[2:].replace("-", "_"): False if r is FLAG else None for name, r in options.items()}, **defaults}
    names, inputs, after_input, tokens = (*options, *HELP), [], False, iter(argv[1:] if func else argv)
    for token in tokens:
        if token == "--":  # taken, as by argparse, only where the INPUT may still take it
            if not takes_input or inputs and not after_input:
                raise UsageError("unrecognized argument '--'")
            inputs += tokens
            break
        found = _option(token, names)
        if after_input := found is None:
            inputs.append(token)
            continue
        name, value = found
        reader = options.get(name, FLAG)
        if reader is FLAG and value is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if name in HELP:
            return None
        if reader is not FLAG and value is None:
            value = next(tokens, "--")  # the end of the line reads as '--', which no option takes
            if value == "--" or _option(value, names):
                raise UsageError(f"argument {name}: expected one argument")
        try:
            value = True if reader is FLAG else reader(value)
        except UsageError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
        attr = name[2:].replace("-", "_")
        args[attr] = [*(args[attr] or ()), value] if name == "--page" else value
    if func is None:
        raise UsageError(f"expected a command: {', '.join(COMMANDS)}")
    if len(inputs) > takes_input:
        raise UsageError(f"unrecognized argument {inputs[takes_input]!r}")
    if inputs:
        if args["m0"] is not None:
            raise UsageError("argument --m0: not allowed with argument input")
        args["input"] = inputs[0]
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    code = EXIT_OK
    try:  # commands raise, and their errors are mapped here; reading --dim and --census reads the catalog
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(__doc__ or "usage: nilspec compute|catalog|check ...\n")  # python -OO drops __doc__
        else:
            code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe fails the flush here, not at exit
    except BrokenPipeError:  # the reader has gone: send what is left to devnull, say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # after BrokenPipeError, which has no exit code and would be re-raised
        return _fail(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
