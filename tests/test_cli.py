"""Command-line contract: formats, exit codes, batch mode."""

import io
import json
import subprocess
import sys

import pytest

from nilspec import catalog, lie, spectral
from nilspec.cli import build_parser, main
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


def test_filtration_mismatch_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    # a primal series that never descends contradicts the dual filtration of
    # every non-abelian algebra; abelian ones still agree with it
    monkeypatch.setattr(lie, "primal_series", lambda m, constants: [Subspace.full(m)])
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


def _json_doc(**changes):
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
    doc.update(changes)
    return json.dumps(doc)


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
], ids=["census-7", "m0-2", "direct-sum-0", "page-foo", "pages-minus-1", "directory",
        "batch-directory-line", "json-dim-bool", "json-dim-float", "json-decimal-c",
        "json-bool-index", "json-too-deep", "json-zero-denominator", "salamon-zero-denominator",
        "catalog-dim-7", "catalog-dim-0", "catalog-dim-minus-3", "input-and-m0", "page-without-direct-sum",
        "batch-and-m0", "census-and-check", "census-and-dim"])
def test_bad_input_exits_2_with_one_error_line(argv, content, tables, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0,0,12)\n"))  # read only by a stdin batch

    def fill(text):
        return text.replace("{dir}", str(tmp_path)).replace("{file}", str(tmp_path / "input.txt"))

    if content is not None:
        (tmp_path / "input.txt").write_text(fill(content))
    try:
        code = main([fill(arg) for arg in argv])
    except SystemExit as exc:  # argparse rejects bad options itself
        code = exc.code
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


def test_batch_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("(0,0,12)\n"))
    code = main(["compute", "--batch", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["m"] == 3


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "3")
    assert code == 0
    assert out.count("dim3-h3") == 1


def test_catalog_census(capsys):
    code, out, _ = run(capsys, "catalog", "--census", "6")
    assert code == 0
    assert "33 classes, 15 distinct tables" in out
    code, out, _ = run(capsys, "catalog", "--census", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dim": 6, "classes": 33, "distinct_tables": 15}


def test_catalog_check_dim5(capsys):
    code, out, _ = run(capsys, "catalog", "--dim", "5", "--check")
    assert code == 0
    assert out.count("PASS") == 8
    assert "8/8 entries pass" in out


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


def test_check_default_runs_both(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)")
    assert code == 0 and out.count("PASS") == 2


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "(0,0,12)", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["ok"] for r in reports)


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main reuses one parser: no option value may carry over between calls
    assert build_parser() is build_parser()
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
    # 3.12+; together they took longer than the package itself.  site may
    # preload some of them, so only new imports count
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import nilspec.cli\n"
              "from nilspec import catalog\n"
              "catalog.list_entries()\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "nilspec.catalog" in loaded
    assert not loaded & {"dataclasses", "inspect", "importlib.resources"}, sorted(loaded)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "nilspec.cli", "compute", "(0,0,12)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "E_2 = E_oo" in proc.stdout
