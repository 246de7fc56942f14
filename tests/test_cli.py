"""Command-line front-end tests: file formats, subcommands, exit codes;
and the names each module declares."""

import csv
import importlib
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from numpy.testing import assert_allclose

from zolosqrt.cli import main, read_matrix, write_matrix
from zolosqrt.corpus import gen_moler
from zolosqrt.zolofuncs import ZoloParams, kappa_of

TRICKY = np.array([
    [1e-308 + 0.0j, complex(-0.0, 2.0 ** -1074)],
    [-1.7976931348623157e308 + 0.3j, 0.1 + 1j / 3.0],
])


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ file IO

def test_csv_identity_roundtrip(tmp_path):
    p = str(tmp_path / "eye.csv")
    write_matrix(np.eye(2), p, "csv")
    assert np.array_equal(read_matrix(p, "csv"), np.eye(2))


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv"])
def test_roundtrip_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(12)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p = str(tmp_path / "m.dat")
    write_matrix(M, p, fmt)
    assert np.array_equal(read_matrix(p, fmt), M)


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv"])
def test_roundtrip_extreme_values(tmp_path, fmt):
    p = str(tmp_path / "tricky.dat")
    write_matrix(TRICKY, p, fmt)
    back = read_matrix(p, fmt)
    assert np.array_equal(back, TRICKY)
    # signed zero survives the round-trip as well
    assert math.copysign(1.0, back[0, 1].real) == -1.0


def test_mm_header_and_real_variant(tmp_path):
    text = ("%%MatrixMarket matrix array complex general\n"
            "2 2\n1.0 0.0\n0.0 0.0\n0.0 0.0\n1.0 0.0\n")
    p = _write(tmp_path / "c.mtx", text)
    assert np.array_equal(read_matrix(p), np.eye(2))
    text = ("%%MatrixMarket matrix array real general\n"
            "% column-major order\n"
            "2 2\n1.0\n3.0\n2.0\n4.0\n")
    p = _write(tmp_path / "r.mtx", text)
    assert np.array_equal(read_matrix(p), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_mm_rejects_bad_header(tmp_path):
    p = _write(tmp_path / "bad.mtx", "%%MatrixMarket matrix coordinate real general\n1 1\n1\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix(p)


def test_mm_rejects_nonsquare(tmp_path):
    p = _write(tmp_path / "rect.mtx",
               "%%MatrixMarket matrix array complex general\n2 3\n" + "0 0\n" * 6)
    with pytest.raises(ValueError, match="not square"):
        read_matrix(p)


def test_mm_rejects_wrong_entry_count(tmp_path):
    p = _write(tmp_path / "short.mtx",
               "%%MatrixMarket matrix array complex general\n2 2\n1 0\n2 0\n3 0\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        read_matrix(p)


def test_mm_parse_error_carries_line_number(tmp_path):
    text = ("%%MatrixMarket matrix array complex general\n"
            "2 2\n1.0 0.0\nfoo 0.0\n0.0 0.0\n1.0 0.0\n")
    p = _write(tmp_path / "bad.mtx", text)
    with pytest.raises(ValueError, match=r":4:"):
        read_matrix(p)


def _same_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def test_mm_write_keeps_the_given_name(tmp_path):
    write_matrix(np.eye(2), str(tmp_path / "x.dat"))
    assert (tmp_path / "x.dat").is_file()
    assert not (tmp_path / "x.dat.mtx").exists()


def test_mm_write_symmetric_input_as_complex_general(tmp_path):
    p = str(tmp_path / "s.mtx")
    write_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]), p)
    with open(p, encoding="utf-8") as fh:
        assert fh.readline() == "%%MatrixMarket matrix array complex general\n"


def test_mm_roundtrip_keeps_signs_and_extremes(tmp_path):
    rng = np.random.default_rng(64)
    M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    for part in (M.real, M.imag):
        for value in special:
            part.flat[rng.choice(M.size, 7, replace=False)] = value
    p = str(tmp_path / "m.mtx")
    write_matrix(M, p)
    back = read_matrix(p)
    assert _same_bits(back, M)
    assert np.signbit(back.real).sum() > 0 and np.signbit(back.imag).sum() > 0


def test_mm_written_file_reads_with_scipy(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    p = str(tmp_path / "m.mtx")
    write_matrix(M, p)
    assert np.array_equal(scipy.io.mmread(p), M)


def test_mm_reads_scipy_real_general_file(tmp_path):
    A = np.random.default_rng(8).standard_normal((64, 64))
    p = str(tmp_path / "a.mtx")
    scipy.io.mmwrite(p, A, symmetry="general")
    assert "\n%" in (tmp_path / "a.mtx").read_text(encoding="utf-8")  # its % line
    assert np.array_equal(read_matrix(p), scipy.io.mmread(p).astype(complex))


def test_mm_comment_and_blank_lines_between_entries(tmp_path):
    text = ("%%MatrixMarket matrix array real general\n% size next\n2 2\n"
            "1.0\n% mid\n\n3.0\n  % indented\n2.0\n\n4.0\n")
    p = _write(tmp_path / "c.mtx", text)
    assert np.array_equal(read_matrix(p), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_mm_token_scan_reads_the_same_bits(tmp_path):
    # A '%' line after the size line sends the body through the token scan;
    # without it the same entries are read by one loadtxt call.
    tokens = ["-0", "-0.0", "5E-324", "4.9406564584124654E-324", "+.5e-3", "7.",
              "1.7976931348623157E308", "-1.7976931348623157e+308", "1E-1",
              "0.1", "3.333333333333333E-1", "2.2250738585072014e-308",
              "1e-400", "-1e-400", "123456789012345678901234567890", "2"]
    head = "%%MatrixMarket matrix array complex general\n4 4\n"
    body = [f"{tokens[k]} {tokens[-1 - k]}\n" for k in range(16)]
    fast = read_matrix(_write(tmp_path / "a.mtx", head + "".join(body)))
    scan = read_matrix(_write(tmp_path / "b.mtx", head + "% x\n" + "".join(body)))
    want = np.array([complex(float(tokens[k]), float(tokens[-1 - k]))
                     for k in range(16)]).reshape(4, 4).T
    assert _same_bits(fast, want) and _same_bits(scan, want)


def test_mm_bad_token_after_comment_names_file_line(tmp_path):
    text = ("%%MatrixMarket matrix array real general\n% size next\n2 2\n"
            "1.0\n% mid\n\nfoo\n2.0\n3.0\n")
    p = _write(tmp_path / "bad.mtx", text)
    with pytest.raises(ValueError, match=r"bad\.mtx:7: cannot parse number 'foo'"):
        read_matrix(p)


def test_mm_empty_and_missing_bodies_warn_nothing(tmp_path):
    head = "%%MatrixMarket matrix array complex general\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_matrix(_write(tmp_path / "z.mtx", head + "0 0\n")).shape == (0, 0)
        with pytest.raises(ValueError, match="expected 4 entries, found 0"):
            read_matrix(_write(tmp_path / "n.mtx", head + "2 2\n\n"))


def test_mm_reads_what_float_reads(tmp_path):
    p = _write(tmp_path / "u.mtx",
               "%%MatrixMarket matrix array real general\n1 1\n1_0\n")
    assert np.array_equal(read_matrix(p), np.array([[10.0]]))


_MIRROR = {"symmetric": lambda z: z, "hermitian": np.conj, "skew-symmetric": np.negative}


def _from_lower(lower, symmetry):
    # fill the upper triangle entry by entry from the lower one
    M = np.array(lower)
    n = M.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = _MIRROR[symmetry](M[j, i])
    return M


@pytest.mark.parametrize("dtype, symmetry", [
    (float, "symmetric"), (float, "skew-symmetric"), (complex, "symmetric"),
    (complex, "hermitian"), (complex, "skew-symmetric")])
def test_mm_reads_mmwrite_symmetric_forms_bit_for_bit(tmp_path, dtype, symmetry):
    rng = np.random.default_rng(19)
    n = 7
    L = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        L.imag = rng.standard_normal((n, n))
    for part in (L.real, L.imag) if dtype is complex else (L,):
        part[1:5, 0] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
        part[6, 2:4] = [-0.0, 0.0]
    if symmetry != "symmetric":  # a zero or real diagonal
        np.fill_diagonal(L, 0.0 if symmetry == "skew-symmetric" else np.diag(L).real)
    M = _from_lower(np.tril(L), symmetry)
    p = str(tmp_path / "s.mtx")
    scipy.io.mmwrite(p, M, symmetry=symmetry)
    field = "complex" if dtype is complex else "real"
    with open(p, encoding="utf-8") as fh:
        assert fh.readline() == f"%%MatrixMarket matrix array {field} {symmetry}\n"
    back = read_matrix(p)
    assert _same_bits(back, M.astype(complex))


def test_mm_short_symmetric_body_names_the_triangle_count(tmp_path):
    p = _write(tmp_path / "s.mtx",
               "%%MatrixMarket matrix array real symmetric\n2 2\n4\n1\n")
    with pytest.raises(ValueError, match="expected 3 entries, found 2"):
        read_matrix(p)


@pytest.mark.parametrize("header", ["matrix coordinate real symmetric",
                                    "matrix array real hermitian",
                                    "matrix array pattern general"])
def test_mm_header_error_names_every_accepted_form(tmp_path, header):
    p = _write(tmp_path / "bad.mtx", f"%%MatrixMarket {header}\n1 1\n1\n")
    with pytest.raises(ValueError, match="header") as err:
        read_matrix(p)
    for form in ("real general", "real symmetric", "real skew-symmetric",
                 "complex general", "complex symmetric", "complex skew-symmetric",
                 "complex hermitian"):
        assert form in str(err.value)


def test_csv_rejects_nonsquare(tmp_path):
    p = _write(tmp_path / "rect.csv", "1,0;2,0;3,0\n4,0;5,0;6,0\n")
    with pytest.raises(ValueError, match="not square"):
        read_matrix(p, "csv")


def test_csv_parse_error_carries_line_number(tmp_path):
    p = _write(tmp_path / "bad.csv", "1,0;0,0\n0,x;1,0\n")
    with pytest.raises(ValueError, match=r":2:"):
        read_matrix(p, "csv")


def test_csv_rejects_complex_literal_syntax(tmp_path):
    p = _write(tmp_path / "j.csv", "1j,0;0,0\n0,0;1,0\n")
    with pytest.raises(ValueError, match="paired re,im"):
        read_matrix(p, "csv")


def test_csv_rejects_unpaired_cell(tmp_path):
    p = _write(tmp_path / "p.csv", "1;0\n0;1\n")
    with pytest.raises(ValueError, match="'re,im'"):
        read_matrix(p, "csv")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        read_matrix(str(tmp_path / "x.dat"), "json")
    with pytest.raises(ValueError, match="format"):
        write_matrix(np.eye(2), str(tmp_path / "x.dat"), "json")


def test_empty_file_rejected(tmp_path):
    p = _write(tmp_path / "empty.csv", "")
    with pytest.raises(ValueError, match="empty"):
        read_matrix(p, "csv")


# -------------------------------------------------------------- sqrtm front

def _stdout_field(capsys, name):
    for line in capsys.readouterr().out.splitlines():
        if line.startswith(name + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"field {name} not printed")


def test_cmd_sqrtm_identity(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    dst = str(tmp_path / "x.mtx")
    write_matrix(np.eye(3), src)
    assert main(["sqrtm", src, "-o", dst]) == 0
    assert int(_stdout_field(capsys, "iterations")) <= 1
    assert_allclose(read_matrix(dst), np.eye(3), atol=1e-14)


def test_cmd_sqrtm_rotation(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    dst = str(tmp_path / "x.mtx")
    write_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]), src)
    assert main(["sqrtm", src, "-o", dst]) == 0
    assert float(_stdout_field(capsys, "residual")) <= 1e-13
    want = math.sqrt(2.0) / 2.0 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert np.max(np.abs(read_matrix(dst) - want)) <= 1e-13


def test_cmd_sqrtm_reads_an_mmwrite_symmetric_file(tmp_path, capsys):
    src = str(tmp_path / "s.mtx")
    scipy.io.mmwrite(src, np.array([[4.0, 1.0], [1.0, 9.0]]))
    assert main(["sqrtm", src, "-o", str(tmp_path / "y.mtx")]) == 0
    X = read_matrix(str(tmp_path / "y.mtx"))
    assert_allclose(X @ X, [[4.0, 1.0], [1.0, 9.0]], rtol=1e-13)


def test_cmd_sqrtm_singular_input(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    write_matrix(np.zeros((2, 2)), src)
    assert main(["sqrtm", src, "-o", str(tmp_path / "x.mtx")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cmd_sqrtm_denman_beavers_accepts_moler(tmp_path, capsys):
    # a good root at the floor of this ill-conditioned input is a success
    src = str(tmp_path / "m.mtx")
    write_matrix(gen_moler(16).matrix, src)
    assert main(["sqrtm", src, "-o", str(tmp_path / "x.mtx"),
                 "--method", "denman_beavers"]) == 0
    assert _stdout_field(capsys, "reason") == "criterion_satisfied"


def test_cmd_sqrtm_solves_near_cut_input(tmp_path, capsys):
    # eigenvalues -1 +- 1e-6 i: a slow start is no reason to give up
    src = _write(tmp_path / "c.mtx", "%%MatrixMarket matrix array real general\n"
                 "2 2\n-1\n-1e-6\n1e-6\n-1\n")
    assert main(["sqrtm", src, "-o", str(tmp_path / "x.mtx")]) == 0
    assert _stdout_field(capsys, "reason") == "criterion_satisfied"


def test_cmd_sqrtm_overwrite_refused(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    dst = str(tmp_path / "x.mtx")
    write_matrix(np.eye(2), src)
    write_matrix(np.eye(2), dst)
    assert main(["sqrtm", src, "-o", dst]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["sqrtm", src, "-o", dst, "--force"]) == 0


def test_cmd_sqrtm_inverse_output(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    dst = str(tmp_path / "x.mtx")
    write_matrix(np.diag([4.0, 9.0]), src)
    assert main(["sqrtm", src, "-o", dst, "--inverse"]) == 0
    X = read_matrix(dst)
    Xinv = read_matrix(str(tmp_path / "x.inv.mtx"))
    assert_allclose(X, np.diag([2.0, 3.0]), atol=1e-13)
    assert_allclose(X @ Xinv, np.eye(2), atol=1e-13)


def test_cmd_sqrtm_invalid_type_pair(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    write_matrix(np.eye(2), src)
    code = main(["sqrtm", src, "-o", str(tmp_path / "x.mtx"),
                 "--m", "2", "--ell", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cmd_sqrtm_missing_file(tmp_path, capsys):
    code = main(["sqrtm", str(tmp_path / "nope.mtx"),
                 "-o", str(tmp_path / "x.mtx")])
    assert code == 1


@pytest.mark.parametrize("size", ["inf inf", "nan nan", "1.5 1.5", "-1 -1"])
def test_cmd_sqrtm_rejects_bad_size_line(tmp_path, capsys, size):
    src = _write(tmp_path / "a.mtx",
                 f"%%MatrixMarket matrix array complex general\n{size}\n1 0\n")
    assert main(["sqrtm", src, "-o", str(tmp_path / "x.mtx")]) == 1
    err = capsys.readouterr().err
    assert f"{src}:2: size line" in err and "Traceback" not in err
    assert not (tmp_path / "x.mtx").exists()



@pytest.mark.parametrize("alpha", ["1e-300", "10", "inf"])
def test_cmd_sqrtm_rejects_alpha_out_of_range(tmp_path, capsys, alpha):
    src = str(tmp_path / "a.mtx")
    write_matrix(np.diag([1e-4, 1.0]), src)
    code = main(["sqrtm", src, "-o", str(tmp_path / "x.mtx"), "--alpha", alpha])
    assert code == 1
    err = capsys.readouterr().err
    assert "alpha" in err and "Traceback" not in err
    assert not (tmp_path / "x.mtx").exists()


def test_cmd_sqrtm_has_no_form_option(tmp_path, capsys):
    src = str(tmp_path / "a.mtx")
    write_matrix(np.diag([1e-4, 1.0]), src)
    assert main(["sqrtm", src, "-o", str(tmp_path / "x.mtx"), "--form", "alt"]) == 1
    err = capsys.readouterr().err
    assert "--form" in err and "Traceback" not in err
    assert not (tmp_path / "x.mtx").exists()


@pytest.mark.parametrize("method", ["pade", "denman_beavers"])
def test_cmd_sqrtm_rejects_alpha_for_comparators(tmp_path, capsys, method):
    # --alpha overrides the minimax method's alpha; the comparators iterate at 1
    src = str(tmp_path / "a.mtx")
    write_matrix(np.diag([1e-4, 1.0]), src)
    code = main(["sqrtm", src, "-o", str(tmp_path / "x.mtx"),
                 "--method", method, "--alpha", "0.5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "alpha_override" in err and "Traceback" not in err
    assert not (tmp_path / "x.mtx").exists()

# ------------------------------------------------------------------- coeffs

def _coeff_table(capsys):
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "index", "value"]
    table = {}
    for kind, idx, val in rows[1:]:
        table.setdefault(kind, []).append(float(val))
    return table


def test_cmd_coeffs_newton(capsys):
    assert main(["coeffs", "--m", "1", "--ell", "0", "--alpha", "0.29"]) == 0
    t = _coeff_table(capsys)
    assert t["shift"][0] == pytest.approx(0.29, rel=1e-12)
    assert t["scale"][0] * t["residue"][0] == pytest.approx(
        2.0 * math.sqrt(0.29), rel=1e-12)


def test_cmd_coeffs_pade_limit(capsys):
    assert main(["coeffs", "--m", "1", "--ell", "1"]) == 0
    t = _coeff_table(capsys)
    assert t["shift"][0] == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert t["c"][1] == pytest.approx(3.0, rel=1e-13)


def test_cmd_coeffs_17_digit_roundtrip(capsys):
    from zolosqrt.zolofuncs import ZoloParams, build_partial_fraction

    assert main(["coeffs", "--m", "3", "--ell", "2", "--alpha", "0.07"]) == 0
    t = _coeff_table(capsys)
    pf = build_partial_fraction(ZoloParams(3, 2, 0.07))
    assert t["shift"] == list(pf.shifts)  # 17 digits round-trip exactly
    assert t["residue"] == list(pf.residues)


def test_cmd_coeffs_invalid_pair(capsys):
    assert main(["coeffs", "--m", "2", "--ell", "0", "--alpha", "0.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, code", [("1e-300", 1), ("1e-200", 1), ("1e-150", 0)])
def test_cmd_coeffs_rejects_alpha_with_subnormal_square(capsys, alpha, code):
    # below the floor the Jacobi nodes (alpha sn/cn)^2 underflow to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["coeffs", "--m", "8", "--ell", "8", "--alpha", alpha]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out
    if code:
        assert "alpha" in captured.err


# ------------------------------------------------------------------ contour

def _contour_rows(capsys):
    err_then_out = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(err_then_out.out)))
    assert rows[0] == ["log10_abs_z", "arg_z", "kappa"]
    return [(float(a), float(b), float(c)) for a, b, c in rows[1:]]


def test_cmd_contour_grid_shape(capsys):
    assert main(["contour", "--m", "2", "--ell", "1", "--alpha", "0.1",
                 "--grid", "5x8"]) == 0
    rows = _contour_rows(capsys)
    assert len(rows) == 40
    assert all(np.isfinite(k) and k > 0 for _, _, k in rows)


def test_cmd_contour_half_annulus_iteration_counts(capsys):
    # right half-plane probes of the widest benchmark type need at most
    # two iterations even at alpha = 1e-5
    assert main(["contour", "--m", "8", "--ell", "8", "--alpha", "1e-5",
                 "--grid", "30x40"]) == 0
    rows = _contour_rows(capsys)
    right = [k for _, th, k in rows if abs(th) <= math.pi / 2]
    assert right and all(math.ceil(k) <= 2 for k in right)


def test_cmd_contour_writes_file(tmp_path, capsys):
    out = str(tmp_path / "grid.csv")
    assert main(["contour", "--m", "1", "--ell", "0", "--alpha", "0.5",
                 "--grid", "3x4", "-o", out]) == 0
    text = Path(out).read_text(encoding="utf-8")
    assert text.startswith("log10_abs_z,arg_z,kappa\n")
    assert len(text.strip().split("\n")) == 13


def test_cmd_contour_validation(capsys):
    assert main(["contour", "--m", "1", "--ell", "0", "--alpha", "1.5",
                 "--grid", "3x3"]) == 1
    capsys.readouterr()
    assert main(["contour", "--m", "1", "--ell", "0", "--alpha", "0.5",
                 "--grid", "9"]) == 1
    assert "grid" in capsys.readouterr().err
    for grid in ("3x", "ax3", "3x4.5"):
        assert main(["contour", "--m", "1", "--ell", "0", "--alpha", "0.5",
                     "--grid", grid]) == 1
        assert "grid must be 'NRxNTHETA'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["zolotarev", "pade"])
@pytest.mark.parametrize("m, ell, named", [("3", "0", "ell=0"), ("0", "-1", "m=0")])
def test_cmd_contour_rejects_invalid_type(capsys, mode, m, ell, named):
    # no type (3, 0) or (0, -1) exists, as for coeffs
    assert main(["contour", "--m", m, "--ell", ell, "--alpha", "0.5",
                 "--grid", "3x3", "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("alpha, code", [("1e-300", 1), ("1e-155", 1), ("1e-150", 0)])
def test_cmd_contour_rejects_alpha_with_subnormal_square(capsys, alpha, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["contour", "--m", "8", "--ell", "8", "--alpha", alpha,
                     "--grid", "3x3"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "alpha" in err


@pytest.mark.parametrize("alpha", ["2e-154", "5e-154", "8e-154"])
def test_cmd_contour_near_alpha_floor_has_no_overflow(monkeypatch, capsys, alpha):
    # the outer ring hands carlson_rf arguments of modulus about alpha^-2,
    # past the point where its stopping radius overflowed; their R_F must
    # match scipy's wherever scipy defines it (off the negative real axis)
    from scipy.special import elliprf
    from zolosqrt import elliptic

    carlson_rf = elliptic.carlson_rf
    seen = []

    def recording(*args):
        seen.append(np.broadcast_arrays(*args))
        return carlson_rf(*args)

    monkeypatch.setattr(elliptic, "carlson_rf", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["contour", "--m", "8", "--ell", "8", "--alpha", alpha,
                     "--grid", "3x3"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    x, y, z = (np.concatenate([np.ravel(call[i]) for call in seen]) for i in range(3))
    got, want = carlson_rf(x, y, z), elliprf(x, y, z)
    assert np.all(np.isfinite(got))
    huge = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))) > 2.0 ** 1000
    defined = np.isfinite(want)
    assert np.any(huge & defined)
    assert_allclose(got[defined], want[defined], rtol=1e-13)



@pytest.mark.parametrize("m, ell, alpha, grid, mode, count", [
    (2, 1, 0.1, "37x53", "zolotarev", 148),
    (1, 0, 0.5, "50x50", "pade", 300),
    (4, 4, 0.9, "64x90", "zolotarev", 128),
])
def test_cmd_contour_outside_count_matches_kappa_of(capsys, m, ell, alpha,
                                                    grid, mode, count):
    assert main(["contour", "--m", str(m), "--ell", str(ell),
                 "--alpha", str(alpha), "--grid", grid, "--mode", mode]) == 0
    err = capsys.readouterr().err
    assert err == f"{count} grid points outside the estimate's validity region\n"
    # the grid of cmd_contour, node by node through kappa_of
    n_r, n_theta = map(int, grid.split("x"))
    log_r = np.linspace(2.0 * math.log10(alpha), 0.0, n_r)
    theta = -math.pi + (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    z = 10.0 ** log_r[:, None] * np.exp(1j * theta[None, :])
    if mode == "pade":
        z, phi_alpha = z / alpha, 1.0
    else:
        phi_alpha = alpha
    p = ZoloParams(m, ell, alpha)
    flagged = 0
    for zj in z.ravel().tolist():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                kappa_of(zj, phi_alpha, p)
            except ValueError:
                caught.append(None)
        flagged += bool(caught)
    assert flagged == count

# -------------------------------------------------------------------- bench

def _bench_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "case"
    return rows[1:]


def test_cmd_bench_full_table(capsys):
    assert main(["bench"]) == 0
    first = capsys.readouterr().out
    assert len(_bench_rows(first)) == 35  # 5 cases x 7 methods
    assert main(["bench"]) == 0
    assert capsys.readouterr().out == first  # deterministic, byte for byte


def test_cmd_bench_method_filter(capsys):
    assert main(["bench", "--methods", "Z-(8,8)", "DB"]) == 0
    rows = _bench_rows(capsys.readouterr().out)
    assert len(rows) == 10
    assert {r[1] for r in rows} == {"Z-(8,8)", "DB"}


def test_cmd_bench_unknown_method(capsys):
    assert main(["bench", "--methods", "Q-(3,3)"]) == 1
    assert "unknown method label" in capsys.readouterr().err


def test_cmd_bench_directory(tmp_path, capsys):
    write_matrix(np.eye(2), str(tmp_path / "idty.mtx"))
    write_matrix(np.diag([1.0, 4.0]), str(tmp_path / "diag.csv"), "csv")
    (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
    assert main(["bench", str(tmp_path), "--methods", "Z-(1,0)", "DB"]) == 0
    rows = _bench_rows(capsys.readouterr().out)
    assert [(r[0], r[1]) for r in rows] == [
        ("diag", "Z-(1,0)"), ("diag", "DB"),
        ("idty", "Z-(1,0)"), ("idty", "DB")]


def test_cmd_bench_empty_directory(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 1
    assert "no .mtx or .csv" in capsys.readouterr().err


# -------------------------------------------------------------------- usage

def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["sqrtm"]) == 1
    err = capsys.readouterr().err
    assert "usage: zolosqrt sqrtm" in err
    assert "zolosqrt sqrtm: error:" in err
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    # --help is no usage error: argparse's exit 0 stays 0
    for argv, usage in ((["--help"], "usage: zolosqrt"),
                        (["sqrtm", "--help"], "usage: zolosqrt sqrtm")):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(usage)


# ------------------------------------------------------------------ package

@pytest.mark.parametrize("module", ["elliptic", "linalg", "zolofuncs", "sqrtm",
                                    "corpus", "cli"])
def test_module_all_names_resolve(module):
    # each module's __all__ is the only declaration of its public names
    mod = importlib.import_module(f"zolosqrt.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), name
