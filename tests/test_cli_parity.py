"""``cli.parse_args`` against the argparse parser it replaced
(``reference.build_parser``).

The corpus is every command line written in README, the CI workflow,
tests/test_cli.py and bench/passes.py, read from those files, plus seeded
generated ones: option prefixes, '=' values, repeated --page, missing,
non-integer and negative values, '-', '--', two inputs, an input with --m0,
unknown and ambiguous options.  Each must be accepted by both parsers with
equal attributes, or rejected by both; a rejection by ``cli.main`` exits 2
with one ``error:`` line.  A command line that argparse answers with its
help is left out.  Runs under pytest, and as a plain script where pytest is
not installed:

    PYTHONPATH=src python tests/test_cli_parity.py
"""

import ast
import contextlib
import io
import os
import random
import re
import shlex

from nilspec import cli
from reference import build_parser

SEED = 20261020
COUNT = 2400
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("compute", "catalog", "check")
PLACEHOLDER = "(0,0,12)"  # for an argv element that the source computes


def _literal_argv(node: ast.AST, constants: dict) -> list[str] | None:
    """A list or tuple of strings whose first is a command; a computed element becomes PLACEHOLDER."""
    if not isinstance(node, (ast.List, ast.Tuple)) or not node.elts:
        return None
    argv = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            argv.append(elt.value)
        elif isinstance(elt, ast.Starred):
            argv += constants.get(getattr(elt.value, "id", None), ())
        else:
            argv.append(PLACEHOLDER)
    return argv if argv and argv[0] in COMMANDS else None


def python_argvs(source: str) -> list[list[str]]:
    """Every literal argv of a Python source, and of each ``run(capsys, ...)`` call."""
    tree = ast.parse(source)
    constants = {target.id: [getattr(e, "value", PLACEHOLDER) for e in node.value.elts]  # module-level tuples
                 for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                 for target in node.targets if isinstance(target, ast.Name)}
    argvs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run" and len(node.args) > 1:
            node = ast.List(elts=node.args[1:])
        argv = _literal_argv(node, constants)
        if argv is not None:
            argvs.append(argv)
    return argvs


def shell_argvs(text: str) -> list[list[str]]:
    """Every ``nilspec`` command line of a shell or Markdown text, quoted argvs such as
    "compute --m0 12" and Python argv lists, each up to its first redirection or pipe."""
    argvs = []
    for line in text.splitlines():
        if "$(" in line:  # drop the closing ')', or only the '$(' when the substitution closes on a later line
            start = line.index("$(")
            unclosed = line.count("(", start) > line.count(")", start)
            line = line[:start] + line[start + 2:] if unclosed else line[:line.rindex(")")]
        quoted = re.findall(r'"((?:compute|catalog|check)\b[^"]*)"', line)
        for words in re.findall(r"\bnilspec(?:\.cli)? +(.*)", line) + quoted:
            argv = []
            for word in shlex.split(words, comments=True):
                if re.match(r"\d?[<>]|[|&;`]", word):
                    break
                argv.append(word.rstrip("`"))
                if word.endswith("`"):  # the end of inline code in Markdown
                    break
            if argv and argv[0] in COMMANDS:
                argvs.append(argv)
        for match in re.findall(r'\[\s*"(?:compute|catalog|check)".*?\]', line):
            argvs.append(_literal_argv(ast.parse(match, mode="eval").body, {}))
    return argvs


def written_argvs() -> dict[str, list[list[str]]]:
    def read(path):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            return fh.read()
    return {"README.md": shell_argvs(read("README.md")),
            ".github/workflows/ci.yml": shell_argvs(read(".github/workflows/ci.yml")),
            "tests/test_cli.py": python_argvs(read("tests/test_cli.py")),
            "bench/passes.py": python_argvs(read("bench/passes.py"))}


# the options of every command, with the kind of value each takes; and options no command has
OPTIONS = {"--m0": "int", "--pages": "pages", "--format": "format", "--batch": None, "--dim": "int",
           "--check": None, "--census": "int", "--theorems": None, "--lemma": None, "--direct-sum": "int",
           "--page": "page"}
UNKNOWN = ["--foo", "--m1", "--checks", "--pages2", "---m0", "-m0", "-x", "-5x", "-1e3", "-", "-d"]
VALUES = {
    "int": ["0", "1", "2", "3", "4", "5", "6", "7", "-1", "-3", "+3", " 4", "4 ", "1_0", "٣", "x", "", "1.5",
            "99999999999999999999", "3" * 5000, "--"],
    "pages": ["all", "limit", "0", "0,1", "2,0,0", "0,x", "-1", "", ",", "1,-1", "ALL", "--"],
    "format": ["text", "json", "csv", "latex", "xml", "", "JSON", "--"],
    "page": ["0", "1", "2", "limit", "inf", "oo", "-1", "x", "", "--"],
}
WORDS = ["(0,0,12)", "(0,0,0,0)", "(0,0,12,13)", "-", "-5", "-1.5", "-.5", "-5\n", "-١", "-x y", "--m 5",
         "x", "", " ", "--", "-- x", "(0,0,12", "-h5"]


def generated_argv(rng: random.Random) -> list[str]:
    if rng.random() < 0.03:  # the command itself missing, misspelt, or after something else
        return rng.choice([[], ["comp"], ["-5", "compute"], ["--", "compute"], ["--m0", "5", "compute"], [""]])
    argv = [rng.choice(COMMANDS)]
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            argv.append(rng.choice(WORDS))
            continue
        name = rng.choice(UNKNOWN) if kind < 0.2 else "--page" if kind < 0.35 else rng.choice(list(OPTIONS))
        if rng.random() < 0.3 and name.startswith("--") and len(name) > 3:  # a prefix, unique or not
            name = name[:rng.randint(3, len(name) - 1)]
        value = rng.choice(VALUES[OPTIONS.get(name) or rng.choice(list(VALUES))])
        form = rng.random()
        if form < 0.2:
            argv.append(f"{name}={value}")
        elif form < 0.3 and OPTIONS.get(name):  # the value left out
            argv.append(name)
        else:
            argv += [name] if OPTIONS.get(name, "") is None else [name, value]
    return argv


def corpus() -> list[list[str]]:
    rng = random.Random(SEED)
    return [argv for argvs in written_argvs().values() for argv in argvs] + [generated_argv(rng)
                                                                             for _ in range(COUNT)]


def argparse_outcome(parser, argv: list[str]):
    """argparse's attributes for an argv, or "reject", or "help"."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else "reject"


def reader_outcome(argv: list[str]):
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return "reject"
    return "help" if args is None else vars(args)


def dropped_separator(argv: list[str]) -> bool:
    """Whether ``cli`` rejects an option value '--' given as '--opt=--'.  argparse
    before 3.13 drops that '--' and stores [] as the value (or [[]] for --page),
    which the commands cannot read; 3.13 reads '--' as the value, as ``cli`` does."""
    try:
        cli.parse_args(argv)
    except cli.UsageError as exc:
        return (str(exc).startswith("argument --") and "'--'" in str(exc)
                and any(token.startswith("--") and token.endswith("=--") for token in argv))
    return False


def compare_corpus() -> dict[str, int]:
    """How many argvs of the corpus both parsers accept, both reject, argparse answers
    with its help, or only argparse accepts with a dropped '--'; fails on any other."""
    sources = written_argvs()
    for path, least in (("README.md", 14), (".github/workflows/ci.yml", 20), ("tests/test_cli.py", 80),
                        ("bench/passes.py", 3)):
        assert len(sources[path]) >= least, (path, sources[path])
    parser = build_parser()
    outcomes = {"accept": 0, "reject": 0, "help": 0, "dropped separator": 0}
    for argv in corpus():
        want, got = argparse_outcome(parser, argv), reader_outcome(argv)
        if want == "help":
            outcomes["help"] += 1
            continue
        if want != got:
            assert got == "reject" and dropped_separator(argv), (argv, want, got)
            outcomes["dropped separator"] += 1
        else:
            outcomes["reject" if got == "reject" else "accept"] += 1
        if got == "reject":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            lines = err.getvalue().splitlines()
            assert (code, out.getvalue(), len(lines)) == (2, "", 1) and lines[0].startswith("error: "), (argv, lines)
    assert min(outcomes["accept"], outcomes["reject"]) > COUNT // 5, outcomes
    return outcomes


def test_shell_argvs_reads_command_substitutions():
    """A substitution closed on its own line loses its ')'; one closed on a later
    line, even with a '(' ')' pair inside, loses only its '$(' and keeps its
    command; neither raises."""
    text = """x=$(nilspec compute --m0 5 --pages limit)
out=$(PYTHONPATH=src python3 -c '
print(1)')
y=$(python3 -m nilspec.cli check "(0,0,12)" --page 0 |
  tail -n 1)"""
    assert shell_argvs(text) == [["compute", "--m0", "5", "--pages", "limit"], ["check", "(0,0,12)", "--page", "0"]]


def test_reader_accepts_and_rejects_what_argparse_did():
    compare_corpus()


if __name__ == "__main__":
    print("ok", compare_corpus())
