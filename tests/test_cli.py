"""Germ documents and the command-line front end."""

import json
import time

import pytest

from whitney import cli, stability
from whitney.cli import EXIT_INTERNAL, main
from whitney.deformations import DeformAmbient
from whitney.errors import ParseError
from whitney.germdoc import doc_to_text, integral_map_doc, parse_germ_document
from whitney.integral_maps import owu_normal_form
from whitney.linalg import Echelon, row_from_fractions

FIVE_SPACE = """\
# five-space front of the deformed cusp
n = 2
cap = 10
vars = t, lam
p1 = 5/2*t^3 + 3/2*lam*t
p2 = t^3
q1 = t^2
q2 = lam
r = t^5 + lam*t^3
"""

CUSP = """\
n = 1
cap = 10
vars = t
p1 = 5/2*t^3
q1 = t^2
r = t^5
"""

UV21 = """\
n = 2
u = 1/2*x2^2
v = x1*x2
complete = true
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- document parsing ---------------------------------------------------------------------


def test_parse_full_document():
    doc = parse_germ_document(FIVE_SPACE)
    assert doc.kind == "full"
    f = doc.to_integral_map()
    assert f.n == 2 and f.cap == 10
    assert f.source.names == ("t", "lam")


def test_parse_uv_document():
    doc = parse_germ_document(UV21)
    assert doc.kind == "uv"
    f = doc.to_integral_map()
    assert f.p_component(0).render(f.source.names) == "1/3*x2^3"


def test_document_round_trip():
    f = owu_normal_form(2, 1, cap=8)
    text = doc_to_text(integral_map_doc(f))
    back = parse_germ_document(text).to_integral_map()
    assert back == f


def test_document_errors():
    with pytest.raises(ParseError):
        parse_germ_document("cap = 4\np1 = x1")          # missing n
    with pytest.raises(ParseError):
        parse_germ_document("n = 1\np1 = t\nq1 = t")     # missing r
    with pytest.raises(ParseError):
        parse_germ_document("n = 1\nn = 2\nu = x1\nv = x1")  # duplicate key
    with pytest.raises(ParseError):
        # unknown variables surface when the expressions are parsed
        parse_germ_document("n = 1\nu = bogusvar\nv = x1").to_integral_map()


def test_huge_n_is_refused_before_labels_are_built(tmp_path, capsys):
    # the key count is compared with n first, and the error names only a
    # few missing labels, so a five-line document with n = 1000000 fails fast
    text = "n = 1000000\ncap = 4\np1 = x1\nq1 = x1^2\nr = x1^3\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_germ_document(text)
    assert time.perf_counter() - start < 0.5
    assert len(str(err.value)) < 200 and "first missing: p2, p3, p4)" in str(err.value)
    path = write(tmp_path, "huge.germ", text)
    assert main(["check", path]) == 2
    assert len(capsys.readouterr().err) < 300
    with pytest.raises(ParseError, match="isotropic form"):
        parse_germ_document("n = 1000000\nisotropic = true\np1 = x1\nq1 = x1^2\n")


# -- CLI ------------------------------------------------------------------------------------


def test_normal_form_command(capsys):
    assert main(["normal-form", "--n", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "p1 = 1/3*x2^3" in out
    assert "r = 1/3*x1*x2^3" in out


def test_normal_form_range_exit_code(capsys):
    assert main(["normal-form", "--n", "1", "--k", "1"]) == 2


def test_check_legendre_five_space(tmp_path, capsys):
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    assert main(["check", path, "--mode", "legendre", "--order", "4"]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_check_contact_cusp_fails(tmp_path, capsys):
    path = write(tmp_path, "cusp.germ", CUSP)
    assert main(["check", path, "--mode", "contact", "--order", "4",
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    assert payload["dims"]["deficiency"] == 1
    assert payload["witnesses"]


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser serves every call: a --mode given to one call does not
    # leak into the next, and every output matches a freshly built parser's
    path = write(tmp_path, "cusp.germ", CUSP)
    calls = (["check", path, "--mode", "a2r", "--order", "3"],
             ["check", path, "--order", "3"],
             ["classify", path, "--order", "3", "--json"],
             ["check", path, "--order", "3", "--json"])
    shared = []
    for argv in calls:
        shared.append((main(argv), capsys.readouterr()))
    assert "mode: a2r" in shared[0][1].out
    assert "mode: contact" in shared[1][1].out
    assert json.loads(shared[3][1].out)["mode"] == "contact"
    fresh = []
    for argv in calls:
        args = cli.build_parser().parse_args(argv)
        fresh.append((args.func(args), capsys.readouterr()))
    assert shared == fresh


def test_check_malformed_exit(tmp_path, capsys):
    path = write(tmp_path, "bad.germ", "n = 1\np1 = t\nq1 = t\nr = t\nvars = t\n")
    assert main(["check", path]) == 2


def test_check_rejects_parameterized_germ(tmp_path):
    path = write(tmp_path, "F.germ",
                 "n = 1\ncap = 8\nvars = t\nparams = lam\n"
                 "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    assert main(["check", path, "--order", "2"]) == 2


def test_check_cap_too_small_is_inconclusive(tmp_path):
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    # truncation too small to run the requested order
    assert main(["check", path, "--mode", "contact", "--order", "10"]) == 3


def test_check_negative_order_is_range_error(tmp_path, capsys):
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    for mode in ("contact", "legendre", "a2r", "classify"):
        assert main(["check", path, "--mode", mode, "--order", "-1"]) == 2
        assert capsys.readouterr().err == "error: jet order must be >= 0, got -1\n"
    path = write(tmp_path, "neg.germ", FIVE_SPACE + "order = -1\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: jet order must be >= 0, got -1\n"


def test_check_guard_failure_is_inconclusive(tmp_path, capsys, monkeypatch):
    # a generator outside the membership system means the cap was too small,
    # which is an inconclusive result, not a failed verdict
    monkeypatch.setattr(stability, "annihilates", lambda constraints, rows: False)
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    assert main(["check", path, "--mode", "contact", "--order", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: generator escaped the jet slice")


def test_deep_nesting_is_malformed(tmp_path, capsys):
    nested = "(" * 3000 + "1/2*x2^2" + ")" * 3000
    deep = UV21.replace("u = 1/2*x2^2", "u = " + nested)
    path = write(tmp_path, "deep.germ", deep)
    assert main(["check", path, "--order", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("expression nested too deeply\n")


def test_coefficient_too_long_to_print_is_malformed(tmp_path, capsys):
    # the completed r holds 3^15000 / 5, past the digits str() prints: a
    # refusal of the input (exit 2), not an internal error
    for u in ("3^5000*x1^2", "3^10000*x1^2"):
        path = write(tmp_path, "long.germ",
                     f"n = 1\nu = {u}\nv = 3^5000*x1^3\ncomplete = true\n")
        assert main(["complete", path]) == 2, u
        assert capsys.readouterr().err == "error: a coefficient has too many digits to print\n"

def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_contact_stability", broken)
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    code = main(["check", path, "--mode", "contact", "--order", "3"])
    assert code == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_internal_value_error_is_internal_error(tmp_path, capsys, monkeypatch):
    # a ValueError is a bug unless the code raised it as a user error
    def broken(constraints, rows):
        raise ValueError("column 7 outside ambient of dim 5")

    monkeypatch.setattr(stability, "annihilates", broken)
    path = write(tmp_path, "five.germ", FIVE_SPACE)
    assert main(["check", path, "--mode", "contact", "--order", "3"]) == EXIT_INTERNAL
    assert (capsys.readouterr().err
            == "internal error: ValueError: column 7 outside ambient of dim 5\n")


def test_user_value_errors_are_malformed(tmp_path, capsys):
    F = write(tmp_path, "F.germ",
              "n = 1\ncap = 10\nvars = t\nparams = lam\n"
              "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    cases = (
        (["check", write(tmp_path, "cap.germ", CUSP.replace("cap = 10", "cap = abc"))],
         "error: cap must be an integer, got 'abc'\n"),
        (["check", write(tmp_path, "order.germ", CUSP + "order = x\n")],
         "error: order must be an integer, got 'x'\n"),
        (["normal-form", "--n", "1", "--k", "1"],
         "error: normal-form needs n >= 1 and 0 <= k <= n/2, got n = 1, k = 1\n"),
        (["front", F, "--param-grid", "lam=a:1:3"],
         "error: bad --param-grid entry 'lam=a:1:3': start and stop must be "
         "numbers, count an integer\n"),
    )
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == message


def test_unreadable_input_and_unwritable_output_are_malformed(tmp_path, capsys):
    binary = tmp_path / "binary.germ"
    binary.write_bytes(b"n = 1\n\xff\xfe\n")
    paths = (str(tmp_path / "missing.germ"), str(binary),
             # int() refuses superscript digits and over-long literals
             write(tmp_path, "sup.germ", CUSP.replace("t^2", "t^\u00b2")),
             write(tmp_path, "long.germ", CUSP.replace("t^5", "1" * 5000 + "*t^5")))
    for path in paths:
        assert main(["check", path, "--order", "2"]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, path
    out = str(tmp_path / "missing" / "out.germ")
    assert main(["normal-form", "--n", "2", "--k", "1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_classify_commands(tmp_path, capsys):
    path = write(tmp_path, "uv.germ", UV21)
    assert main(["classify", path, "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "type 1" in out
    cusp = write(tmp_path, "cusp.germ", CUSP)
    assert main(["classify", cusp, "--order", "4"]) == 1


def test_complete_command(tmp_path, capsys):
    path = write(tmp_path, "uv.germ", UV21)
    assert main(["complete", path]) == 0
    assert "r = 1/3*x1*x2^3" in capsys.readouterr().out


def test_project_lift_round_trip(tmp_path, capsys):
    cusp = write(tmp_path, "cusp.germ", CUSP)
    iso_path = str(tmp_path / "iso.germ")
    assert main(["project", cusp, "--out", iso_path]) == 0
    iso_text = open(iso_path).read()
    assert "e = t^5" in iso_text
    assert main(["lift", iso_path]) == 0
    out = capsys.readouterr().out
    assert "r = t^5" in out


def test_extend_command(tmp_path, capsys):
    F = write(tmp_path, "F.germ",
              "n = 1\ncap = 10\nvars = t\nparams = lam\n"
              "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    G = write(tmp_path, "G.germ",
              "n = 1\ncap = 10\nvars = t\nparams = mu\n"
              "u = t^2 + mu*t^4\nv = 5/2*t^3\ncomplete = true\n")
    assert main(["extend", F, G]) == 0
    out = capsys.readouterr().out
    assert "params = lam, mu" in out


def test_front_csv(tmp_path, capsys):
    cusp = write(tmp_path, "cusp.germ", CUSP)
    assert main(["front", cusp, "--samples", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q1,r"
    assert len(lines) == 6
    # the cusp point set: q = t^2, r = t^5 at t = -1 gives (1, -1)
    assert lines[1] == "1,-1"


def test_front_param_grid(tmp_path, capsys):
    F = write(tmp_path, "F.germ",
              "n = 1\ncap = 10\nvars = t\nparams = lam\n"
              "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    assert main(["front", F, "--samples", "3", "--param-grid", "lam=-1:1:3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q1,r,lam"
    assert len(lines) == 1 + 3 * 3


def test_front_rejects_non_finite_ranges(tmp_path, capsys):
    cusp = write(tmp_path, "cusp.germ", CUSP)
    for value in ("nan", "inf", "-inf"):
        assert main(["front", cusp, "--samples", "3", f"--range={value}"]) == 2
        assert capsys.readouterr().err == "error: --range must be finite\n"
    # finite arguments whose samples are not: the power t^5 overflows at
    # t = 1e200 and 1e154; lam*t^3 rounds to inf at lam = 1e308, t = 2; the
    # grid step of lam=-1e308:1e308:2 is inf, so its first value is nan
    F = write(tmp_path, "F.germ",
              "n = 1\ncap = 10\nvars = t\nparams = lam\n"
              "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    for argv in ([cusp, "--range", "1e200"], [cusp, "--range", "1e154"],
                 [F, "--range", "2", "--param-grid", "lam=1e308:1e308:1"],
                 [F, "--param-grid", "lam=-1e308:1e308:2"]):
        assert main(["front"] + argv + ["--samples", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: front sample at ") and "not finite" in err
    for grid in ("lam=nan:1:3", "lam=-1:inf:3", "lam=-inf:1:1"):
        assert main(["front", F, "--samples", "3", "--param-grid", grid]) == 2
        assert (capsys.readouterr().err
                == "error: --param-grid start and stop must be finite\n")


def test_front_refuses_oversized_output(tmp_path, capsys):
    # the row count is computed from the arguments and refused before any
    # sample or grid list is built; the oversized output is never made
    F = write(tmp_path, "F.germ",
              "n = 1\ncap = 10\nvars = t\nparams = lam\n"
              "u = t^2\nv = 5/2*t^3 + 3/2*lam*t\ncomplete = true\n")
    cases = ((["--samples", "3", "--param-grid", "lam=0:1:100000000000"],
              3 * 100000000000),
             (["--samples", str(cli.FRONT_MAX_ROWS + 1)], cli.FRONT_MAX_ROWS + 1),
             (["--samples", "1001", "--param-grid", "lam=0:1:1000"], 1001000))
    for extra, count in cases:
        assert main(["front", F] + extra) == 2
        assert capsys.readouterr().err == (
            f"error: front would write {count} rows, more than "
            f"{cli.FRONT_MAX_ROWS}; lower --samples or the grid counts\n")


def test_cap_below_two_is_malformed(tmp_path, capsys):
    five = write(tmp_path, "five.germ", FIVE_SPACE)
    uv = write(tmp_path, "uv.germ", UV21)
    runs = (["check", five, "--order", "2"], ["check", five, "--mode", "a2r"],
            ["classify", five], ["project", five], ["lift", five],
            ["complete", uv], ["extend", five, five], ["front", five],
            ["normal-form", "--n", "2", "--k", "1"])
    for argv in runs:
        for cap in ("1", "0", "-3"):
            assert main(argv + ["--cap", cap]) == 2, (argv, cap)
            assert capsys.readouterr().err == "error: cap must be at least 2\n"
    # the document rule is the same one
    with pytest.raises(ParseError, match="cap must be at least 2"):
        parse_germ_document(FIVE_SPACE.replace("cap = 10", "cap = 1"))
    assert main(["normal-form", "--n", "2", "--k", "1", "--cap", "2"]) == 0


def test_front_rejects_large_n(tmp_path):
    doc = doc_to_text(integral_map_doc(owu_normal_form(3, 0, cap=6)))
    path = write(tmp_path, "f30.germ", doc)
    assert main(["front", path]) == 2


# Default reports, pinned byte for byte: a change that keeps the verdicts must
# leave them unchanged.  The cusp report is a fail verdict with its witness;
# the a2r reports pin the fiber quotient dims, once generated by 1 and the
# p-components and once not.
FIVE_SPACE_LEGENDRE_3 = """\
{
  "cap": 10,
  "caveats": [
    "jet slice is the projection of the membership system solved at the working order; an outer approximation of the genuine jet image, pinned when two consecutive working orders agree"
  ],
  "dims": {
    "combined_span": 35,
    "deficiency": 0,
    "deformation_slice": 35,
    "hamiltonian_span": 25,
    "pushforward_span": 16
  },
  "generator_bounds": {
    "hamiltonian_degree": 5,
    "slice_working_order": 5,
    "source_field_degree": 3
  },
  "germ": "user[n=2]",
  "mode": "legendre",
  "order": 3,
  "sub_verdicts": {
    "hamiltonians": "affine in p (lowerable through the fibration)",
    "slice_stabilized": "yes"
  },
  "verdict": "pass",
  "witnesses": []
}
"""
CUSP_CONTACT_4 = """\
{
  "cap": 10,
  "caveats": [
    "jet slice is the projection of the membership system solved at the working order; an outer approximation of the genuine jet image, pinned when two consecutive working orders agree"
  ],
  "dims": {
    "combined_span": 10,
    "deficiency": 1,
    "deformation_slice": 11,
    "hamiltonian_span": 9,
    "pushforward_span": 4
  },
  "generator_bounds": {
    "hamiltonian_degree": 6,
    "slice_working_order": 5,
    "source_field_degree": 4
  },
  "germ": "user[n=1]",
  "mode": "contact",
  "order": 4,
  "sub_verdicts": {
    "slice_stabilized": "yes"
  },
  "verdict": "fail",
  "witnesses": [
    "DeformationField(phi1 = 3*t; xi1 = 0; s = 2*t^3)"
  ]
}
"""
FIVE_SPACE_A2R_3 = """\
{
  "cap": 10,
  "caveats": [
    "umbrella gate decided by the contact check at the same order"
  ],
  "dims": {
    "algebra_slice": 14,
    "denominator": 11,
    "fiber_quotient": 3
  },
  "generator_bounds": {},
  "germ": "user[n=2]",
  "mode": "a2r",
  "order": 3,
  "sub_verdicts": {
    "generated_by_1_and_p": "pass",
    "umbrella_gate": "pass"
  },
  "verdict": "pass",
  "witnesses": []
}
"""
# fiber quotient of dim 3, not generated by 1 and the p-components
UV_NOT_GENERATED = """\
n = 2
cap = 7
u = x2^3
v = x2^2
complete = true
"""
UV_NOT_GENERATED_A2R_3 = """\
{
  "cap": 7,
  "caveats": [
    "umbrella gate decided by the contact check at the same order"
  ],
  "dims": {
    "algebra_slice": 11,
    "denominator": 8,
    "fiber_quotient": 3
  },
  "generator_bounds": {},
  "germ": "completed[n=2]",
  "mode": "a2r",
  "order": 3,
  "sub_verdicts": {
    "generated_by_1_and_p": "fail",
    "umbrella_gate": "fail"
  },
  "verdict": "fail",
  "witnesses": []
}
"""

# lifted cusps p = (k/a)*t^(k-a), q = t^a, r = t^k failing with several
# independent cokernel witnesses
CUSP_2_9 = """\
n = 1
cap = 10
vars = t
p1 = 9/2*t^7
q1 = t^2
r = t^9
"""
CUSP_2_9_CONTACT_5 = """\
{
  "cap": 10,
  "caveats": [
    "jet slice is the projection of the membership system solved at the working order; an outer approximation of the genuine jet image, pinned when two consecutive working orders agree"
  ],
  "dims": {
    "combined_span": 10,
    "deficiency": 3,
    "deformation_slice": 13,
    "hamiltonian_span": 7,
    "pushforward_span": 5
  },
  "generator_bounds": {
    "hamiltonian_degree": 7,
    "slice_working_order": 6,
    "source_field_degree": 5
  },
  "germ": "user[n=1]",
  "mode": "contact",
  "order": 5,
  "sub_verdicts": {
    "slice_stabilized": "yes"
  },
  "verdict": "fail",
  "witnesses": [
    "DeformationField(phi1 = 5*t^3; xi1 = 0; s = 2*t^5)",
    "DeformationField(phi1 = t^5; xi1 = 0; s = 0)",
    "DeformationField(phi1 = 3*t; xi1 = 0; s = 2*t^3)"
  ]
}
"""
CUSP_3_10 = """\
n = 1
cap = 12
vars = t
p1 = 10/3*t^7
q1 = t^3
r = t^10
"""
CUSP_3_10_CONTACT_8 = """\
{
  "cap": 12,
  "caveats": [
    "jet slice is the projection of the membership system solved at the working order; an outer approximation of the genuine jet image, pinned when two consecutive working orders agree"
  ],
  "dims": {
    "combined_span": 13,
    "deficiency": 6,
    "deformation_slice": 19,
    "hamiltonian_span": 9,
    "pushforward_span": 7
  },
  "generator_bounds": {
    "hamiltonian_degree": 10,
    "slice_working_order": 9,
    "source_field_degree": 8
  },
  "germ": "user[n=1]",
  "mode": "contact",
  "order": 8,
  "sub_verdicts": {
    "slice_stabilized": "yes"
  },
  "verdict": "fail",
  "witnesses": [
    "DeformationField(phi1 = 0; xi1 = 12*t; s = 5*t^8)",
    "DeformationField(phi1 = t^8; xi1 = 0; s = 0)",
    "DeformationField(phi1 = 7*t^4; xi1 = 0; s = 3*t^7)",
    "DeformationField(phi1 = 5*t^2; xi1 = 0; s = 3*t^5)",
    "DeformationField(phi1 = 10*t^5; xi1 = -9*t; s = 0)",
    "DeformationField(phi1 = 4*t; xi1 = 0; s = 3*t^4)"
  ]
}
"""
# contact stable but not Legendre stable (conclusive order 7)
UV_SPLIT = """\
n = 2
cap = 10
u = 1/6*x2^3 + x1*x2
v = x2^2
complete = true
"""
UV_SPLIT_LEGENDRE_7 = """\
{
  "cap": 10,
  "caveats": [
    "jet slice is the projection of the membership system solved at the working order; an outer approximation of the genuine jet image, pinned when two consecutive working orders agree"
  ],
  "dims": {
    "combined_span": 116,
    "deficiency": 1,
    "deformation_slice": 117,
    "hamiltonian_span": 89,
    "pushforward_span": 64
  },
  "generator_bounds": {
    "hamiltonian_degree": 9,
    "slice_working_order": 9,
    "source_field_degree": 7
  },
  "germ": "completed[n=2]",
  "mode": "legendre",
  "order": 7,
  "sub_verdicts": {
    "hamiltonians": "affine in p (lowerable through the fibration)",
    "slice_stabilized": "yes"
  },
  "verdict": "fail",
  "witnesses": [
    "DeformationField(phi1 = -4*x2^2; phi2 = 8*x2; xi1 = 0; xi2 = 0; s = 4*x1*x2^2 + x2^4)"
  ]
}
"""


def test_reports_byte_identical(tmp_path, capsys):
    pinned = ((FIVE_SPACE, ["--mode", "legendre", "--order", "3"], 0,
               FIVE_SPACE_LEGENDRE_3),
              (CUSP, ["--mode", "contact", "--order", "4"], 1, CUSP_CONTACT_4),
              (FIVE_SPACE, ["--mode", "a2r", "--order", "3"], 0,
               FIVE_SPACE_A2R_3),
              (UV_NOT_GENERATED, ["--mode", "a2r", "--order", "3"], 1,
               UV_NOT_GENERATED_A2R_3),
              (CUSP_2_9, ["--mode", "contact", "--order", "5"], 1,
               CUSP_2_9_CONTACT_5),
              (CUSP_3_10, ["--mode", "contact", "--order", "8"], 1,
               CUSP_3_10_CONTACT_8),
              (UV_SPLIT, ["--mode", "legendre", "--order", "7"], 1,
               UV_SPLIT_LEGENDRE_7))
    for text, args, code, report in pinned:
        path = write(tmp_path, "germ.germ", text)
        for _ in range(2):
            assert main(["check", path, *args, "--json"]) == code
            assert capsys.readouterr().out == report


# deficiency 3 at order 5; its witnesses were once chosen by a reduction that
# is not a normal form and spanned one dimension modulo the combined span
UV_DEPENDENT_WITNESSES = """\
n = 2
cap = 10
vars = x1, x2
u = 1/2*x2^2 + x1^3*x2 - x1^4*x2
v = x2^2 + x1^2*x2 + x1^3*x2^2 + x1^2*x2^3
complete = true
"""


def test_witnesses_independent_modulo_combined_span(tmp_path, capsys):
    path = write(tmp_path, "germ.germ", UV_DEPENDENT_WITNESSES)
    assert main(["check", path, "--mode", "contact", "--order", "5",
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    deficiency = report["dims"]["deficiency"]
    assert deficiency == 3 and len(report["witnesses"]) == 3
    order = 5
    f = parse_germ_document(UV_DEPENDENT_WITNESSES).to_integral_map()
    ambient = DeformAmbient(f, order)
    labels = ["phi1", "phi2", "xi1", "xi2", "s"]
    span = Echelon()
    for row in (stability._tf_rows(f, order, ambient)
                + stability._wf_rows(f, order, ambient, legendre=False)):
        span.insert(row)
    assert span.rank == report["dims"]["combined_span"]
    for text in report["witnesses"]:
        assert text.startswith("DeformationField(") and text.endswith(")")
        entries = {}
        for part in text[len("DeformationField("):-1].split("; "):
            label, expr = part.split(" = ")
            poly = f.source.parse(expr, order)
            for mono, coeff in poly.terms.items():
                entries[ambient.column(labels.index(label), mono)] = coeff
        span.insert(row_from_fractions(entries))
    assert span.rank == report["dims"]["combined_span"] + deficiency
