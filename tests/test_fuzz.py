"""Seeded exit-code fuzz of ``nilspec compute``.

Every input, alone or as a batch line, must exit 0, 2 or 3, raise nothing,
and print exactly one ``error:`` line when it fails.  The inputs are built
from the Salamon alphabet, non-ASCII digits and junk.  Runs under pytest,
and as a plain script where pytest is not installed:

    PYTHONPATH=src python tests/test_fuzz.py
"""

import contextlib
import io
import os
import random
import tempfile

from nilspec.cli import main

SEED = 20261018
COUNT = 5000
OTHER_DIGITS = "²١٢۳०１"  # superscript two, Arabic-Indic, Extended, Devanagari, fullwidth
JUNK = "x#e\t;é "
# no ',' inside an entry: more entries could make a valid algebra of dimension
# 8-20, whose table takes far longer than the whole fuzz
ALPHABET = "0123456789+-*/.() " + OTHER_DIGITS + JUNK


def _term(rng: random.Random, j: int, first: bool) -> str:
    """A term of de^j; its indices mostly lie below j, so that many inputs
    are nilpotent and reach the Jacobi check or the table."""
    if rng.random() < 0.9:
        sign = rng.choice(["", "", "-"] if first else ["+", "-", " + ", " - "])
        coeff = rng.choice(["", "", "", "", "2*", "3*", "1/2*", "12"])
        low = "".join(str(rng.randint(1, j - 1)) for _ in range(2)) if j > 2 else "12"
        pair = low if rng.random() < 0.8 else str(rng.randint(0, 99))
    else:
        sign = rng.choice(["", "+", "++", "-+", "*"])
        coeff = rng.choice(["3/0*", "2/", "*", "²*", "1/٢*", "1²*", ""])
        pair = "".join(rng.choice("12345678" + OTHER_DIGITS) for _ in range(2))
    return sign + coeff + pair


def _entry(rng: random.Random, j: int) -> str:
    kind = rng.random()
    if kind < 0.45:
        return rng.choice(["0"] * 8 + [" 0 ", "00", "0x"])
    if kind < 0.97:
        return "".join(_term(rng, j, not t) for t in range(rng.randint(1, 3)))
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 5)))


def fuzz_input(rng: random.Random) -> str:
    """One input: mostly a bracketed list of 1-7 entries, sometimes 21-23
    (above the size cap), sometimes junk, sometimes with one character
    dropped or replaced."""
    if rng.random() < 0.05:
        return "".join(rng.choice(ALPHABET + ",") for _ in range(rng.randint(0, 12)))
    m = rng.randint(1, 7) if rng.random() < 0.97 else rng.randint(21, 23)
    text = "(" + ",".join(_entry(rng, j) for j in range(1, m + 1)) + ")"
    if rng.random() < 0.1:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(["", rng.choice(ALPHABET)]) + text[at + 1:]
    return text


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an input that looks like an option is a parse error, returned as any other
            raise AssertionError(f"main raised SystemExit({exc.code}) for {argv}") from exc
    return code, out.getvalue(), err.getvalue()


def test_compute_exit_codes_on_seeded_inputs():
    rng = random.Random(SEED)
    texts = [fuzz_input(rng) for _ in range(COUNT)]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # an input that is not '(...)' is looked up as a file: find none
        try:
            codes = []
            for text in texts:
                code, out, err = _run(["compute", text])
                assert code in (0, 2, 3), (text, code)
                if code:
                    assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, (text, err)
                else:
                    assert err == "", (text, err)
                codes.append(code)
            with open("batch.txt", "w", encoding="utf-8") as fh:
                fh.write("\n".join(texts) + "\n")
            code, out, err = _run(["compute", "--batch", "batch.txt", "--format", "json"])
        finally:
            os.chdir(cwd)
    lines = [c for t, c in zip(texts, codes) if t.strip()]  # a batch skips blank lines
    assert code == max(lines)
    assert len(out.splitlines()) == lines.count(0)
    assert len(err.splitlines()) == len(lines) - lines.count(0)
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert 0 in codes and 2 in codes and 3 in codes  # every outcome is exercised


if __name__ == "__main__":
    test_compute_exit_codes_on_seeded_inputs()
    print("ok")
