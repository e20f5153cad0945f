"""Hostile input: mutated germ documents through the parser and ``check``.

Documents of n <= 2 at cap <= 6 get their keys renamed, their values
replaced and their expressions spliced with junk.  The parser may only
accept a document or raise ``ParseError``, and ``whitney check`` may only
exit with a documented verdict code (0 pass, 1 fail, 2 malformed or range
error, 3 inconclusive); text the parser refuses exits 2, never 4.  The
expression parser on its own gets exponents up to 10^9, chained, and must
answer each in a bounded time.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from whitney import cli
from whitney.errors import ParseError, WhitneyError
from whitney.germdoc import DEFAULT_CAP, parse_germ_document
from whitney.ring import SOURCE, TruncatedPoly, parse_expression

BASES = (
    "n = 1\ncap = 6\nvars = t\np1 = 5/2*t^3\nq1 = t^2\nr = t^5\n",
    "n = 1\ncap = 5\np1 = 3/2*x1\nq1 = x1^2\nr = x1^3\norder = 2\n",
    "n = 2\ncap = 6\nvars = t, lam\np1 = 5/2*t^3 + 3/2*lam*t\np2 = t^3\n"
    "q1 = t^2\nq2 = lam\nr = t^5 + lam*t^3\n",
    "n = 2\ncap = 5\nu = 1/2*x2^2\nv = x1*x2\ncomplete = true\n",
    "n = 1\ncap = 4\nisotropic = true\np1 = x1\nq1 = x1^2\n",
)
KEYS = ("n", "cap", "vars", "params", "order", "complete", "isotropic", "p1",
        "p2", "q1", "q2", "r", "u", "v", "e", "P1", "x1", "p3", "")
JUNK = st.text(alphabet="0123456789xtlamnpqruv+-*/^()=#,._ \t\u00a0\u00b2\u00e9\u0661",
               max_size=8)


def _integer(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# the size fields keep n <= 2 and cap <= 6 (or the default cap when dropped)
# so that every check stays cheap; text in them is still hostile, and no
# other line may become one of them
SIZES = {"n": st.one_of(st.integers(-1, 2).map(str),
                        JUNK.filter(lambda s: not _integer(s))),
         "cap": st.one_of(st.integers(-1, 6).map(str),
                          JUNK.filter(lambda s: not _integer(s)))}
NAMES = st.one_of(st.sampled_from([k for k in KEYS if k not in SIZES]),
                  JUNK.filter(lambda s: s.strip() not in SIZES))
RAW = JUNK.filter(lambda s: s.split("=", 1)[0].split("#", 1)[0].strip() not in SIZES
                  or "=" not in s.split("#", 1)[0])


@st.composite
def documents(draw):
    lines = [line.split(" = ", 1) for line in draw(st.sampled_from(BASES)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key, value = lines[i] if len(lines[i]) == 2 else (lines[i][0], "")
        what = draw(st.sampled_from(("key", "value", "splice", "drop", "dup", "raw")))
        if what == "key" and key not in SIZES:
            lines[i] = [draw(NAMES), value]
        elif what in ("key", "value"):
            lines[i] = [key, draw(SIZES.get(key, JUNK))]
        elif what == "splice" and key not in SIZES:
            at = draw(st.integers(0, len(value)))
            cut = draw(st.integers(0, 3))
            lines[i] = [key, value[:at] + draw(JUNK) + value[at + cut:]]
        elif what == "drop" and len(lines) > 1:
            del lines[i]
        elif what == "dup":
            lines.insert(i, list(lines[i]))
        elif what == "raw":
            lines.insert(i, [draw(RAW)])
    return "".join(" = ".join(line) + "\n" for line in lines)


@given(documents())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parser_accepts_or_raises_parse_error(text):
    try:
        doc = parse_germ_document(text)
    except ParseError:
        return
    assert 1 <= doc.n <= 2 and 2 <= doc.cap <= DEFAULT_CAP


@given(documents(), st.integers(-1, 6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_check_exits_with_a_documented_code(text, order):
    try:
        parse_germ_document(text).to_integral_map()
        malformed = False
    except ParseError:
        malformed = True
    except WhitneyError:
        malformed = False               # well-formed, but no integral map
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "hostile.germ")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", path, "--order", str(order)])
    assert code in (0, 1, 2, 3), err.getvalue()
    if malformed:
        assert code == 2, err.getvalue()


EXPONENTS = st.one_of(st.integers(0, 12), st.integers(0, 10 ** 9))
ATOMS = st.one_of(st.integers(0, 99).map(str),
                  st.tuples(st.integers(0, 99), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
                  st.sampled_from(("x1", "x2", "x3")))


def _powered(base):
    return st.tuples(base, st.lists(EXPONENTS, min_size=1, max_size=3)).map(
        lambda t: t[0] + "".join(f"^{k}" for k in t[1]))


EXPRESSIONS = st.recursive(
    st.one_of(ATOMS, _powered(ATOMS)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from((" + ", " - ", "*")), inner).map("".join),
        inner.map("-{}".format),
        _powered(inner.map("({})".format))),
    max_leaves=8)


@given(EXPRESSIONS)
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_parse_expression_gives_a_poly_or_parse_error(text):
    # the power budget refuses every coefficient that no literal could spell,
    # so no example runs past the deadline (2 s)
    try:
        poly = parse_expression(text, ("x1", "x2", "x3"), 6, (SOURCE,) * 3)
    except ParseError:
        return
    assert isinstance(poly, TruncatedPoly)
