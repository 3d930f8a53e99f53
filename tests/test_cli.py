"""Command-line contract: formats, exit codes, batch mode."""

import functools
import io
import json
import os
import subprocess
import sys

import pytest

from nilspec import catalog, cli, exterior, lie, linalg, spectral
from nilspec.cli import main
from nilspec.linalg import Subspace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_text_heisenberg(capsys):
    code, out, _ = run(capsys, "compute", "(0,0,12)", "--format", "text")
    assert code == 0
    assert "E_0" in out and "E_2 = E_oo" in out
    assert "1 2 1 0" in out and "0 0 2 1" in out
    assert "r0 = 2" in out


def test_compute_text_header_states_only_the_bound_k(capsys):
    """The header gives r0 and the degeneration bound k, and no bound
    ceil(m/2), which this algebra exceeds (r0 = 5 > 4)."""
    code, out, _ = run(capsys, "compute", "(0,0,12,-23,12+24,0,-16-23-25+26,-24+26+27+36)")
    assert code == 0
    assert out.splitlines()[1:3] == ["m = 8, k = 6, r0 = 5, betti = [1, 3, 5, 8, 10, 8, 5, 3, 1]",
                                     "(degeneration bound k = 6)"]


def test_compute_json_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "(0,0,12,13)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    t = spectral.table_for(lie.parse_salamon("(0,0,12,13)"))
    assert doc["m"] == 4 and doc["k"] == 3 and doc["r0"] == t.r0
    assert doc["betti"] == list(t.betti)
    assert doc["salamon"] == "(0,0,12,13)"
    for r, grid in doc["pages"].items():
        assert tuple(tuple(row) for row in grid) == t.grid(int(r))
    assert tuple(tuple(row) for row in doc["limit"]) == t.limit
    # a rational constant keeps its text; the tables are those of (0,0,12,13)
    code, rational, _ = run(capsys, "compute", "(0,0,1/2*12,13)", "--format", "json")
    assert code == 0 and rational.replace('"(0,0,1/2*12,13)"', '"(0,0,12,13)"', 1) == out


def test_compute_csv_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "(0,0,12)", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "page,p,q,total_degree,dim"
    t = spectral.table_for(lie.parse_salamon("(0,0,12)"))
    cells = {}
    for line in lines[1:]:
        page, p, q, deg, dim = line.split(",")
        cells[(page, int(p), int(deg))] = int(dim)
    for r in (0, 1, 2):
        for p in (0, 1):
            for deg in range(4):
                assert cells[(str(r), p, deg)] == t.entry(r, p, deg - p)
    for p in (0, 1):
        for deg in range(4):
            assert cells[("limit", p, deg)] == t.entry(None, p, deg - p)


def test_compute_latex_matches_stored_golden(capsys):
    entry = catalog.get_entry("dim4-2")
    code, out, _ = run(capsys, "compute", entry.salamon, "--format", "latex")
    assert code == 0
    blocks = []
    current = []
    for line in out.splitlines():
        if line.startswith("% "):
            current = []
            blocks.append(current)
        elif line and not line.startswith("\\begin") and not line.startswith("\\end") \
                and line != "\\hline":
            current.append([int(x) for x in line.replace("\\\\", "").split("&")])
    for r, grid in sorted(entry.golden_pages.items()):
        assert blocks[r] == [list(row) for row in grid]
    assert blocks[-1] == [list(row) for row in entry.golden_limit]


def test_compute_m0_limit(capsys):
    code, out, _ = run(capsys, "compute", "--m0", "10", "--pages", "limit")
    assert code == 0
    # m even: a single degree-2 class survives at the bottom row
    t = spectral.table_for(lie.m0(10))
    assert t.entry(None, 0, 2) == 1
    bottom = out.strip().splitlines()[-1].split()
    assert bottom[2] == "1"


def test_compute_pages_selection(capsys):
    code, out, _ = run(capsys, "compute", "(0,0,12)", "--pages", "0,2")
    assert code == 0
    assert "E_0" in out and "E_2" in out and "E_1" not in out


def test_compute_json_honours_pages(capsys, monkeypatch):
    t = spectral.table_for(lie.parse_salamon("(0,0,12,13)"))
    assert sorted(t.pages) == [0, 1, 2]
    for pages, keys in (("limit", []), ("0", ["0"]), ("0,3", ["0", "3"]), ("all", ["0", "1", "2"])):
        code, out, _ = run(capsys, "compute", "(0,0,12,13)", "--format", "json", "--pages", pages)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["pages"]) == keys, pages
        for r, grid in doc["pages"].items():
            assert tuple(tuple(row) for row in grid) == t.grid(int(r))
        assert tuple(tuple(row) for row in doc["limit"]) == t.limit
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0,0,12,13)\n"))
    code, out, _ = run(capsys, "compute", "--batch", "--format", "json", "--pages", "limit")
    assert code == 0 and json.loads(out)["pages"] == {}


def test_compute_from_json_file(tmp_path, capsys):
    doc = lie.algebra_to_json(lie.parse_salamon("(0,0,12)"))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0 and "r0 = 2" in out


def test_compute_from_salamon_file(tmp_path, capsys):
    path = tmp_path / "algebra.txt"
    path.write_text("(0,0,12)\n")
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0 and "r0 = 2" in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "compute", "(0,0,12")
    assert code == 2 and "syntax" in err


def test_exit_code_validation_error(capsys):
    code, _, err = run(capsys, "compute", "(23,-13,12)")
    assert code == 3 and "nilpotent" in err


def test_exit_code_jacobi(capsys):
    code, _, err = run(capsys, "compute", "(0,0,12,13,24,34+25)")
    assert code == 3 and "Jacobi" in err


def test_exit_code_missing_input(capsys):
    code, _, err = run(capsys, "compute")
    assert code == 2


def test_every_error_class_of_the_package_has_an_exit_code():
    # an error's base class sets its code, so cli lists no classes; every
    # module of the package is walked, linalg too, which defines none
    classes = {value for module in (lie, linalg, exterior, spectral, catalog, cli) for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == module.__name__}
    assert {lie.LieError, lie.ParseError, cli.TooLargeError, catalog.CatalogFormatError} <= classes
    for cls in classes:
        assert cli._exit_code_for(cls.__new__(cls)) in (2, 3, 4), cls


def test_an_error_of_no_category_propagates(tmp_path, capsys, monkeypatch):
    # only the errors of the three bases have an exit code; any other exception
    # is a bug and keeps its traceback, whether main, a batch line or a catalog
    # entry meets it
    def broken(algebra):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "table_for", broken)
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,12)\n")
    for argv in (["compute", "(0,0,12)"], ["compute", "--batch", str(path)], ["check", "(0,0,12)"],
                 ["catalog", "--check"]):
        with pytest.raises(ZeroDivisionError):
            main(argv)
        assert capsys.readouterr() == ("", ""), argv


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_closed_the_pipe_ends_the_run_quietly(unbuffered):
    # the read end is closed before the run starts, so the first write to stdout
    # or its final flush fails with EPIPE
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    for argv in (["catalog"], ["compute", "--m0", "12", "--format", "csv"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "nilspec.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b""), argv


def test_unreadable_files_and_bad_json_documents_name_the_fault(tmp_path, capsys):
    bad, doc, missing = tmp_path / "bad.txt", tmp_path / "doc.json", tmp_path / "missing.txt"
    bad.write_bytes(b"(0,0,\xff12)\n")
    cases = [  # (argv, JSON document or None, start of the error line)
        (["compute", str(bad)], None, f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff"),
        (["compute", "--batch", str(missing)], None, f"cannot read batch file {missing}: "),
        (["compute", "--batch", str(bad)], None, f"cannot read batch file {bad}: 'utf-8' codec can't decode"),
        (["compute", str(doc)], _json_doc(brackets=[{"i": 1, "j": 4, "k": 3, "c": 1}]),
         "index out of range in c[1,4]^3 for dimension 3\n"),
        (["compute", str(doc)], _json_doc(brackets=[{"i": 1, "j": 1, "k": 3, "c": 1}]),
         "bracket [e_1, e_1] is identically zero\n"),
        (["compute", str(doc)], _json_doc(dim=0), "malformed algebra document: dim must be at least 1\n"),
        (["compute", str(doc)], _json_doc(label=12), "label must be a string\n"),
    ]
    for argv, content, message in cases:
        if content is not None:
            doc.write_text(content)
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith(f"error: {message}"), (argv, err)


def test_filtration_mismatch_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    # a primal series that drops to zero at once contradicts the dual
    # filtration of every non-abelian algebra; abelian ones still agree with it
    levels = lie._levels
    monkeypatch.setattr(lie, "_levels", lambda m, constants: ((v, 0) for v, _ in levels(m, constants)))
    lie.validate_algebra.cache_clear()  # a memoised filtration would hide the patched series
    code, out, err = run(capsys, "compute", "(0,0,12)")
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: dual filtration disagrees with the primal descending series"]
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,12)\n(0,0,0)\n")
    code, out, err = run(capsys, "compute", "--batch", str(path), "--format", "json")
    assert code == 4
    assert [json.loads(line)["m"] for line in out.splitlines()] == [3]
    assert err.splitlines() == ["error: (0,0,12): dual filtration disagrees with the primal descending series"]
    code, out, _ = run(capsys, "catalog", "--dim", "3", "--check")
    assert code == 4
    assert out.splitlines() == ["FAIL dim3-h3", "      dual filtration disagrees with the primal descending series",
                                "0/1 entries pass"]


def test_mismatch_on_an_eliminated_level_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    # (0,0,0,12,12) eliminates n^1 and n^2; a span that keeps only the pivots
    # of the true one has the right dimension, but n^1 = span(e_4) is not
    # annihilated by e^4 - e^5 in V_1.  (0,0,12) reads every level off the
    # constants, never spans, and still passes.
    span = lie._span
    monkeypatch.setattr(lie, "_span", lambda rows, m: Subspace.coordinate(span(rows, m).pivots, m))
    lie.validate_algebra.cache_clear()  # a memoised filtration would hide the patched span
    message = "V_1 does not annihilate the primal ideal n^1"
    code, out, err = run(capsys, "compute", "(0,0,0,12,12)")
    assert (code, out, err) == (4, "", f"error: {message}\n")
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,0,12,12)\n(0,0,12)\n")
    code, out, err = run(capsys, "compute", "--batch", str(path), "--format", "json")
    assert code == 4
    assert [json.loads(line)["m"] for line in out.splitlines()] == [3]
    assert err.splitlines() == [f"error: (0,0,0,12,12): {message}"]


def test_size_cap_refuses_before_validation_and_build(tmp_path, capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("validation or the complex build ran")

    monkeypatch.setattr(lie, "validate_algebra", must_not_run)
    monkeypatch.setattr(spectral, "build_complex", must_not_run)
    big = "(" + ",".join(["0"] * 40) + ")"
    (tmp_path / "big.txt").write_text(big + "\n")
    (tmp_path / "big.json").write_text(json.dumps({"dim": 40, "brackets": []}))
    refused = "dimension 40 is above the cap of 20"
    for argv, prefix in [(["compute", "--m0", "40"], ""), (["compute", big], ""),
                         (["check", "--m0", "40"], ""), (["check", big, "--lemma"], ""),
                         (["compute", str(tmp_path / "big.txt")], ""),
                         (["compute", str(tmp_path / "big.json")], ""),
                         (["compute", "--batch", str(tmp_path / "big.txt")], f"{big}: ")]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {prefix}{refused}\n"), argv


def test_size_cap_on_direct_sums_and_batches(tmp_path, capsys, monkeypatch):
    assert cli._within_cap(cli.MAX_DIM) == cli.MAX_DIM
    monkeypatch.setattr(cli, "check_abelian_extension", lambda *args, **kwargs: 1 / 0)
    code, out, err = run(capsys, "check", "(0,0,12)", "--direct-sum", str(cli.MAX_DIM - 2))
    assert (code, out, err) == (3, "", f"error: dimension {cli.MAX_DIM + 1} is above the cap of 20\n")
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,12)\n(" + ",".join(["0"] * 21) + ")\n(0,0,0)\n")
    code, out, err = run(capsys, "compute", "--batch", str(path), "--format", "json")
    assert code == 3
    assert [json.loads(line)["m"] for line in out.splitlines()] == [3, 3]
    assert err.splitlines() == ["error: (" + ",".join(["0"] * 21) + "): dimension 21 is above the cap of 20"]


def _json_doc(**changes):
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
    doc.update(changes)
    return json.dumps(doc)


LONG = "2" * 5000  # a run of digits longer than the interpreter's limit on int() of a string
NINES = "9" * 4300  # within that limit, but twice it is one digit longer


@pytest.mark.parametrize("argv, content, tables", [
    (["catalog", "--census", "7"], None, 0),
    (["compute", "--m0", "2"], None, 0),
    (["check", "(0,0,12)", "--direct-sum", "0"], None, 0),
    (["check", "(0,0,12)", "--direct-sum", "1", "--page", "foo"], None, 0),
    (["compute", "(0,0,12)", "--pages", "-1"], None, 0),
    (["compute", "{dir}"], None, 0),
    (["compute", "--batch", "{file}", "--format", "json"], "(0,0,12)\n{dir}\n(0,0,0,0)\n", 2),
    (["compute", "{file}"], _json_doc(dim=True, brackets=[]), 0),
    (["compute", "{file}"], _json_doc(dim=3.7), 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": 1, "j": 2, "k": 3, "c": "0.5"}]), 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": True, "j": 2, "k": 3, "c": "1"}]), 0),
    (["compute", "{file}"], '{"dim": ' + "[" * 100000 + "]" * 100000 + "}", 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": 1, "j": 2, "k": 3, "c": "1/0"}]), 0),
    (["compute", "(0,0,1/0*12)"], None, 0),
    (["catalog", "--dim", "7", "--check"], None, 0),
    (["catalog", "--dim", "0"], None, 0),
    (["catalog", "--dim", "-3", "--check", "--format", "json"], None, 0),
    (["compute", "(0,0,12)", "--m0", "4"], None, 0),
    (["check", "(0,0,12)", "--page", "0"], None, 0),
    (["compute", "--batch", "--m0", "5"], None, 0),
    (["catalog", "--census", "6", "--check"], None, 0),
    (["catalog", "--census", "6", "--dim", "5"], None, 0),
    (["compute", f"(0,0,{LONG}*12)"], None, 0),
    (["compute", f"(0,0,1/{LONG}*12)"], None, 0),
    (["compute", "--batch", "{file}", "--format", "json"], f"(0,0,12)\n(0,0,1/{LONG}*12)\n(0,0,0,0)\n", 2),
    (["compute", "{file}"], '{"dim": ' + LONG + ', "brackets": []}', 0),
    (["compute", "{file}"], '{"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": ' + LONG + '}]}', 0),
    (["compute", f"(0,0,{NINES}*12+{NINES}*12)"], None, 0),
    (["compute", "--batch", "{file}", "--format", "json"], f"(0,0,12)\n(0,0,{NINES}*12+{NINES}*12)\n(0,0,0,0)\n", 2),
    (["compute", "(0,0,1\u00b2)"], None, 0),
    (["compute", "(0,0,\u00b2*12)"], None, 0),
    (["compute", "(0,0,\u0661\u0662)"], None, 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": 1, "j": 2, "k": 3, "c": "\u0661\u0662"}]), 0),
    (["compute", "--batch", "{file}", "--format", "json"], "(0,0,12)\n(0,0,1\u00b2)\n(0,0,0,0)\n", 2),
    (["compute", "{file}"], _json_doc(brackets=[1]), 0),
    (["compute", "{file}"], _json_doc(brackets={"i": 1}), 0),
    (["compute", "{file}"], _json_doc(brackets="12"), 0),
    (["compute", "{file}"], _json_doc(brackets=None), 0),
    (["compute", "{file}"], '{"brackets": []}', 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": 1, "j": 4, "k": 3, "c": 1}]), 0),
    (["compute", "{file}"], _json_doc(brackets=[{"i": 1, "j": 1, "k": 3, "c": 1}]), 0),
    (["compute", "{file}"], _json_doc(dim=0), 0),
    (["compute", "{file}"], _json_doc(label=12), 0),
], ids=["census-7", "m0-2", "direct-sum-0", "page-foo", "pages-minus-1", "directory",
        "batch-directory-line", "json-dim-bool", "json-dim-float", "json-decimal-c",
        "json-bool-index", "json-too-deep", "json-zero-denominator", "salamon-zero-denominator",
        "catalog-dim-7", "catalog-dim-0", "catalog-dim-minus-3", "input-and-m0", "page-without-direct-sum",
        "batch-and-m0", "census-and-check", "census-and-dim", "salamon-long-coefficient",
        "salamon-long-denominator", "batch-long-line", "json-long-dim", "json-long-c",
        "salamon-long-sum", "batch-long-sum", "salamon-superscript-digit", "salamon-superscript-coefficient",
        "salamon-arabic-indic-digits", "json-arabic-indic-c", "batch-superscript-line",
        "json-bracket-not-object", "json-brackets-object", "json-brackets-string", "json-brackets-null",
        "json-no-dim", "json-index-out-of-range", "json-equal-indices", "json-dim-0", "json-label-not-string"])
def test_bad_input_exits_2_with_one_error_line(argv, content, tables, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0,0,12)\n"))  # read only by a stdin batch

    def fill(text):
        return text.replace("{dir}", str(tmp_path)).replace("{file}", str(tmp_path / "input.txt"))

    if content is not None:
        (tmp_path / "input.txt").write_text(fill(content))
    code = main([fill(arg) for arg in argv])  # a bad command line too returns its code: SystemExit fails the test
    captured = capsys.readouterr()
    assert code == 2
    assert sum("error:" in line for line in captured.err.splitlines()) == 1, captured.err
    assert "Traceback" not in captured.err
    assert [json.loads(line)["m"] for line in captured.out.splitlines()] == [3, 4][:tables]


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_keeps_order_and_worst_exit(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,12)\n(bad\n(0,0,0,0)\n")
    code = main(["compute", "--batch", str(path), "--pages", "limit", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    lines = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [doc["m"] for doc in lines] == [3, 4]
    assert "syntax" in captured.err


def test_batch_keeps_only_the_current_lines_complex(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text("(0,0,12)\n(0,0,12,13)\n(0,0,0,12,13)\n")
    code = main(["compute", "--batch", str(path), "--format", "json"])
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 3
    assert spectral.complex_for.cache_info().currsize <= 1


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_batch_lines_end_only_at_newline(sep, tmp_path, capsys, monkeypatch):
    # str.splitlines would split at each of these; here they stay inside their line,
    # and CRLF line ends lose their \r with the other surrounding whitespace
    text = f"(0,0,12{sep})\r\n(0,0,12){sep}(0,0,0)\r\n(0,0,0,0)\r\n"
    path = tmp_path / "batch.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))  # read without newline translation
    for source in (str(path), "-"):
        code, out, err = run(capsys, "compute", "--batch", source, "--format", "json")
        assert code == 2
        assert [json.loads(line)["m"] for line in out.splitlines()] == [3, 4]
        assert err.split("\n") == [f"error: (0,0,12){sep}(0,0,0): syntax error at position 8: "
                                   "expected '+' or '-' between terms", ""]


def test_batch_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0,0,12)\n"))
    code = main(["compute", "--batch", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["m"] == 3


def test_batch_from_stdin_that_does_not_decode_exits_2():
    # strict stdin decoding fails inside sys.stdin.read(): one error line, no table
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "nilspec.cli", "compute", "--batch", "-"],
                          input=b"(0,0,12)\n\xff\n", capture_output=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: cannot read batch file -: 'utf-8' codec can't decode byte 0xff")
    assert proc.stderr.count(b"\n") == 1


def test_byte_order_mark_at_the_start_of_an_input_is_dropped(tmp_path, capsys, monkeypatch):
    """A UTF-8 byte-order mark before a Salamon file, a JSON file or a batch
    file, read from a path or from stdin, leaves the output byte-identical to
    the same input without one."""
    batch = "(0,0,12)\n(0,0,0,12,12)\n"
    for name, text, argv in [("algebra.txt", "(0,0,1/2*12,13)\n", ["compute"]),
                             ("algebra.json", _json_doc(label="h3"), ["compute", "--format", "json"]),
                             ("batch.txt", batch, ["compute", "--format", "csv", "--batch"])]:
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run(capsys, *argv, str(plain))
        assert want[0] == 0 and want[1] and not want[2], name
        assert run(capsys, *argv, str(marked)) == want, name
    monkeypatch.setattr(sys, "stdin", io.StringIO(batch))
    want = run(capsys, "compute", "--batch", "-")
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + batch))
    assert want[0] == 0 and run(capsys, "compute", "--batch", "-") == want


def test_byte_order_mark_elsewhere_is_the_error_it_was(tmp_path, capsys, monkeypatch):
    """Only one mark, at the very start, is dropped: after whitespace, inside
    an entry, as a second mark or at the start of a later batch line it is
    still text the grammar does not know, the same error at the same position."""
    bom = "\ufeff"
    cases = [(" " + bom + "(0,0,12)", [], "syntax error at position 1: expected '('"),
             (bom + bom + "(0,0,12)", [], "syntax error at position 1: expected '('"),
             ("(0,0," + bom + "12)", [], "syntax error at position 6: expected an index pair or coefficient"),
             ("(0,0,12)\n" + bom + "(0,0,12)\n", ["--batch"],
              f"{bom}(0,0,12): syntax error at position 1: input '\\ufeff(0,0,12)' is neither a '(...)' string "
              "nor a file")]
    path = tmp_path / "input.txt"
    for text, flags, message in cases:
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "compute", *flags, str(path))
        assert (code, err) == (2, f"error: {message}\n"), text
    monkeypatch.setattr(sys, "stdin", io.StringIO(bom + bom + "(0,0,12)\n"))
    code, out, err = run(capsys, "compute", "--batch", "-")
    assert (code, out) == (2, "") and err.startswith(f"error: {bom}(0,0,12): syntax error at position 1: "), err


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "3")
    assert code == 0
    assert out.count("dim3-h3") == 1


def test_catalog_listing_prints_the_decomposition(capsys):
    assert run(capsys, "catalog", "--dim", "4") == \
        (0, "dim4-1     (0,0,0,12)  (R^1 (+) dim3-h3)\ndim4-2     (0,0,12,13)\n", "")


def test_catalog_listing_as_json(capsys):
    assert run(capsys, "catalog", "--dim", "4", "--format", "json") == (0, """[
  {
    "id": "dim4-1",
    "salamon": "(0,0,0,12)",
    "label": null,
    "decomposition": [
      1,
      "dim3-h3"
    ]
  },
  {
    "id": "dim4-2",
    "salamon": "(0,0,12,13)",
    "label": null,
    "decomposition": null
  }
]
""", "")
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 44


def test_catalog_census(capsys):
    # a count of 1 is in the singular; the JSON form keeps its keys
    for dim, text, classes, distinct in [(3, "1 class, 1 distinct table", 1, 1),
                                         (4, "2 classes, 2 distinct tables", 2, 2),
                                         (5, "8 classes, 6 distinct tables", 8, 6),
                                         (6, "33 classes, 15 distinct tables", 33, 15)]:
        assert run(capsys, "catalog", "--census", str(dim)) == (0, text + "\n", ""), dim
        code, out, _ = run(capsys, "catalog", "--census", str(dim), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"dim": dim, "classes": classes, "distinct_tables": distinct}


def test_catalog_check_dim5(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "5", "--check")
    assert code == 0
    assert out.count("PASS") == 8
    assert "8/8 entries pass" in out


def _patched_catalog(monkeypatch, entry_id, **changes):
    """The catalog with one entry's golden data replaced."""
    entries = tuple(e._replace(**changes) if e.id == entry_id else e for e in catalog.list_entries())
    monkeypatch.setattr(catalog, "_all_entries", lambda: entries)
    return catalog.get_entry(entry_id)


def test_catalog_check_reports_one_wrong_limit_cell_once(capsys, monkeypatch):
    e = catalog.get_entry("dim5-3")
    limit = [list(row) for row in e.golden_limit]
    limit[2][3] += 1
    pages = dict(e.golden_pages)
    pages[e.golden_limit_page] = tuple(map(tuple, limit))
    patched = _patched_catalog(monkeypatch, "dim5-3", golden_pages=pages)
    report, _ = catalog.golden_check(patched, spectral.table_for(patched.algebra()))
    note = f"MISMATCH page {e.golden_limit_page} [2][3]: stored {limit[2][3]}, engine {limit[2][3] - 1}"
    assert report.violations == (note,)
    code, out, _ = run(capsys, "catalog", "--dim", "5", "--check")
    assert code == 4
    assert out.count("MISMATCH") == 1
    assert f"      {note}" in out.splitlines()
    assert "FAIL dim5-3" in out and out.endswith("7/8 entries pass\n")


def test_catalog_check_notes_r0_above_the_printed_limit_page(capsys, monkeypatch):
    _patched_catalog(monkeypatch, "dim3-h3", golden_limit_page=1)  # the engine's r0 is 2
    code, out, _ = run(capsys, "catalog", "--dim", "3", "--check")
    assert code == 4
    assert out.splitlines() == ["FAIL dim3-h3", "      r0 = 2 is above the printed limit page 1",
                                "0/1 entries pass"]


def test_catalog_check_fails_an_entry_whose_stored_page_has_another_shape(capsys, monkeypatch):
    e = catalog.get_entry("dim3-h3")
    _patched_catalog(monkeypatch, "dim3-h3", golden_pages={**e.golden_pages, 0: e.golden_pages[0][:-1]})
    note = "dim3-h3: stored page 0 has shape 1x4, engine 2x4"
    code, out, _ = run(capsys, "catalog", "--check")
    assert code == 4
    lines = out.splitlines()
    assert lines[:2] == ["FAIL dim3-h3", f"      {note}"]
    assert [line for line in lines if not line.startswith(" ")][1:-1] == \
        [f"PASS {other.id}" for other in catalog.list_entries()[1:]]  # the other entries still run
    assert lines[-1] == "43/44 entries pass"
    code, out, _ = run(capsys, "catalog", "--dim", "3", "--check", "--format", "json")
    assert code == 4
    assert json.loads(out) == [{"id": "dim3-h3", "ok": False, "r0": None, "notes": [note]}]


def test_malformed_golden_file_exits_4_with_one_error_line(capsys, monkeypatch):
    # --dim and --census read the catalog while the arguments are parsed
    commands = [["catalog"], ["catalog", "--check"], ["catalog", "--dim", "5"], ["catalog", "--census", "5"]]
    read_file = catalog._all_entries
    path = os.path.join(os.path.dirname(catalog.__file__), "golden_tables.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    row = lines.index("page 0 2 4", lines.index("entry dim3-h3")) + 1  # dim3-h3's page 0, first row
    short = lines[:row] + [lines[row].rsplit(" ", 1)[0]] + lines[row + 1:]
    monkeypatch.setattr(catalog, "_all_entries", lambda: tuple(catalog._parse_golden("\n".join(short))))
    for argv in commands:
        for fmt in ("text", "json"):
            assert run(capsys, *argv, "--format", fmt) == (4, "", "error: dim3-h3: page 0 row width\n"), argv
    # the file itself, read afresh, cut short: a page cut short in the middle reads the
    # next directive as a row; the file may also end inside a page or lose a limit line.
    # A page may also have no rows, a width other than dim + 1, or another row count.
    parse = catalog._parse_golden
    last_page = lines.index("page 2 2 7", lines.index("entry dim6-33"))
    limit = lines.index("limit 2", lines.index("entry dim3-h3"))
    decompose = lines.index("decompose 1 dim3-h3", lines.index("entry dim4-1"))
    cuts = [  # (lines of the file, the error line or its start)
        (lines[:row] + lines[row + 1:], "error: golden_tables.txt: invalid literal for int() with base 10: 'page'\n"),
        (lines[:last_page + 2], "error: dim6-33: page 2 cut short by the end of the file\n"),
        (lines[:limit] + lines[limit + 1:], "error: entry missing 'limit': {'id': 'dim3-h3', "),
        (lines[:row - 1] + ["page 0 0 4"] + lines[row + 2:], "error: dim3-h3: page 0 has no rows\n"),
        (lines[:row - 1] + ["page 0 2 3", "1 2 1", "0 1 2"] + lines[row + 2:],
         "error: dim3-h3: page 0 has 3 columns, not dim + 1 = 4\n"),
        (lines[:row + 2] + ["page 1 3 4", "0 0 0 0"] + lines[row + 3:],
         "error: dim3-h3: page 1 has 3 rows, the limit page 2\n"),
        (["limit 2"] + lines, "error: directive before first entry: limit 2\n"),
        (lines[:limit] + ["colour blue"] + lines[limit:], "error: unknown directive: colour blue\n"),
        (lines[:limit] + ["limit 7"] + lines[limit + 1:], "error: dim3-h3: limit page not stored\n"),
        # a record that repeats or points past the stored pages would pass silently otherwise,
        # and a negative page would end catalog --check in a KeyError
        (lines[:limit] + ["suspect 7 0 0"] + lines[limit:],
         "error: dim3-h3: suspect cell 7 0 0 is outside the stored pages\n"),
        (lines[:limit] + ["page 2 2 4", "1 2 0 0", "0 0 2 1"] + lines[limit:], "error: dim3-h3: a second page 2\n"),
        (lines[:limit] + ["page -1 2 4", "1 2 0 0", "0 0 2 1"] + lines[limit:], "error: dim3-h3: a negative page -1\n"),
        (lines + lines[lines.index("entry dim3-h3"):limit + 1], "error: entry dim3-h3 appears twice\n"),
        (lines[:limit] + ["salamon (0,0,13)"] + lines[limit:], "error: dim3-h3: a second salamon line\n"),
        # a repeated suspect line would be folded into one, and a decomposition
        # the catalog cannot hold would be listed as it stands
        (lines[:limit] + ["suspect 2 0 0", "suspect 2 0 0"] + lines[limit:],
         "error: dim3-h3: a second suspect cell 2 0 0\n"),
        (lines[:limit] + ["decompose 1 dim9-zz"] + lines[limit:], "error: dim3-h3: decompose base dim9-zz names no entry\n"),
        (lines[:decompose] + ["decompose 2 dim3-h3"] + lines[decompose + 1:],
         "error: dim4-1: R^2 (+) dim3-h3 has dimension 5, not 4\n"),
        # R^0 (+) dim3-h3 and R^-1 (+) dim4-1 have the right dimension, and
        # R^1 (+) dim3-h3 on dim3-h3 would name the entry as its own summand
        (lines[:limit] + ["decompose 0 dim3-h3"] + lines[limit:], "error: dim3-h3: decompose 0 dim3-h3 has s < 1\n"),
        (lines[:limit] + ["decompose -1 dim4-1"] + lines[limit:], "error: dim3-h3: decompose -1 dim4-1 has s < 1\n"),
        (lines[:limit] + ["decompose 1 dim3-h3"] + lines[limit:],
         "error: dim3-h3: decompose 1 dim3-h3 names itself\n"),
    ]
    for cut, message in cuts:
        monkeypatch.setattr(catalog, "_parse_golden", lambda text: parse("\n".join(cut)))
        monkeypatch.setattr(catalog, "_all_entries", functools.lru_cache(maxsize=1)(read_file.__wrapped__))
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert (code, out, err.count("\n")) == (4, "", 1) and err.startswith(message), (argv, err[:80])


def test_catalog_check_json(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "4", "--check", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2 and all(r["ok"] for r in reports)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_theorems(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)", "--theorems")
    assert code == 0
    assert "PASS" in out


def test_check_direct_sum_pages(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)", "--direct-sum", "1",
                       "--page", "0", "--page", "limit")
    assert code == 0
    assert out.count("PASS") == 2


def test_check_lemma_abelian(capsys):
    code, out, _ = run(capsys, "check", "(0,0,0,0)", "--lemma")
    assert code == 0 and "PASS" in out


def test_check_lemma_compares_the_exact_forms_also_in_dimension_one(capsys, monkeypatch):
    # m = 1: the exact 0-forms are the zero subspace, and a complex whose V_1 is zero,
    # so that every 0-form counts as divisible, fails
    assert run(capsys, "check", "(0)", "--lemma") == (0, "PASS top-degree-forms (2 checks)\n", "")
    build = spectral.build_complex

    def without_v1(algebra):
        c = build(algebra)
        c.v_dims = (0, 0)
        return c
    monkeypatch.setattr(spectral, "build_complex", without_v1)
    spectral.complex_for.cache_clear()
    try:
        code, out, _ = run(capsys, "check", "(0)", "--lemma")
    finally:
        spectral.complex_for.cache_clear()  # the mutated complex leaves the memo
    assert code != 0 and out.splitlines()[0] == "FAIL top-degree-forms (2 checks)"
    assert "exact (m-1)-forms have dim 0, divisible subspace dim 1" in out
    monkeypatch.undo()
    assert run(capsys, "check", "(0)", "--lemma") == (0, "PASS top-degree-forms (2 checks)\n", "")


def test_check_default_runs_both(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)")
    assert code == 0 and out.count("PASS") == 2


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["ok"] for r in reports)


def test_repeated_main_calls_match_fresh_processes(capsys):
    # no option value, such as the list --page collects, may carry over between calls
    calls = [["check", "(0,0,12)", "--direct-sum", "1", "--page", "0", "--page", "1"],
             ["check", "(0,0,12)", "--direct-sum", "1", "--page", "limit"],
             ["catalog", "--check"]]
    for argv in calls + calls:
        result = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "nilspec.cli", *argv], capture_output=True, text=True)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_start_up_imports_no_introspection_modules():
    # dataclasses imports inspect, and so does importlib.resources on Python
    # 3.12+; together they took longer than the package itself.  argparse,
    # with the gettext and locale its first message imports, took longer than
    # the table of a small algebra.  site may preload some of them, so only
    # new imports count
    for call in ("catalog.list_entries()", "cli.main(['catalog', '--check'])", "cli.main(['compute', '(0,0,12)'])"):
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "from nilspec import catalog, cli\n"
                  f"{call}\n"
                  "print(' '.join(sorted(set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert "nilspec.catalog" in loaded
        assert not loaded & {"dataclasses", "inspect", "importlib.resources", "argparse", "gettext", "locale"}, \
            (call, sorted(loaded))


def test_integral_input_imports_neither_fractions_nor_decimal():
    # a constant is a Fraction only where the input has a '/'; only new imports count
    for argv in (["catalog", "--check"], ["compute", "--m0", "10"]):
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "from nilspec import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(code, sorted({'fractions', 'decimal'} & (set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "0 []", argv


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "nilspec.cli", "compute", "(0,0,12)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "E_2 = E_oo" in proc.stdout
