"""Command-line front end: matrix I/O, square roots, coefficient tables,
kappa contour grids, and benchmark runs.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure
(non-convergence or a singular matrix). Matrix files round-trip bit-exactly.
They are Matrix Market array files (written as "complex general" by
scipy.io.mmwrite; read also as real, symmetric, skew-symmetric or hermitian,
by numpy.loadtxt) or CSV grids with ';' between cells and ',' between the
real and imaginary parts of each cell.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np
import scipy.io

from .corpus import (
    TestCase,
    bench_cases,
    bench_methods,
    emit_csv,
    run_suite,
    select_methods,
)
from .linalg import SingularMatrixError, dense
from .sqrtm import _METHODS, IterationAbortError, IterationOptions, sqrtm_drive
from .zolofuncs import (
    ZoloParams,
    _kappa_guard,
    _kappa_values,
    build_partial_fraction,
    pade_partial_fraction,
    phi_of,
)

__all__ = [
    "main",
    "read_matrix",
    "write_matrix",
    "cmd_sqrtm",
    "cmd_coeffs",
    "cmd_contour",
    "cmd_bench",
]


def _parse_float(token: str, path: str, lineno: int) -> float:
    token = token.strip()
    if "j" in token or "J" in token:
        raise ValueError(
            f"{path}:{lineno}: complex cell syntax is not accepted; "
            "use paired re,im columns"
        )
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: cannot parse number {token!r}") from None


def _require_square(rows: list[list[complex]], path: str):
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(
                f"{path}: matrix is not square ({n} rows, "
                f"row {i + 1} has {len(row)} columns)"
            )


def _read_csv_matrix(path: str) -> np.ndarray:
    rows: list[list[complex]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = []
            for cell in line.split(";"):
                parts = cell.split(",")
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}:{lineno}: cell {cell!r} is not 're,im'"
                    )
                re = _parse_float(parts[0], path, lineno)
                im = _parse_float(parts[1], path, lineno)
                row.append(complex(re, im))
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    _require_square(rows, path)
    return np.array(rows, dtype=complex)


def _read_mm_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty matrix file")
        header = first.strip().lower().split()
        forms = [f"{f} {s}" for f in ("real", "complex") for s in
                 ("general", "symmetric", "skew-symmetric")] + ["complex hermitian"]
        if (len(header) != 5 or header[:3] != ["%%matrixmarket", "matrix", "array"]
                or " ".join(header[3:]) not in forms):
            raise ValueError(
                f"{path}:1: expected header '%%MatrixMarket matrix array' and one "
                f"of {', '.join(forms)}; got {first.strip()!r}"
            )
        width = 2 if header[3] == "complex" else 1
        symmetry = header[4]
        for lineno, line in enumerate(fh, start=2):
            if line.strip() and not line.lstrip().startswith("%"):
                break
        else:
            raise ValueError(f"{path}: missing size line")
        dims = [_parse_float(d, path, lineno) for d in line.split()]
        # is_integer() is False for inf and nan; '1e1' still reads as 10.
        if len(dims) != 2 or not all(d >= 0 and d.is_integer() for d in dims):
            raise ValueError(f"{path}:{lineno}: size line must be 'rows cols', "
                             f"two integers >= 0; got {line.strip()!r}")
        n, ncols = map(int, dims)
        if n != ncols:
            raise ValueError(f"{path}: matrix is not square ({n}x{ncols})")
        skew = symmetry == "skew-symmetric"
        count = n * n if symmetry == "general" else n * (n + 1) // 2 - skew * n
        # loadtxt reads a subset of what float() reads, to the same bits. It
        # fails on '%' lines and warns on an empty body; the scan takes both.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                vals = np.loadtxt(fh, comments=None, dtype=float, ndmin=2)
        except ValueError:
            vals = None
    if vals is None or vals.shape != (count, width):
        vals = _scan_mm_entries(path, lineno, count, width)
    # view(complex) keeps a -0.0 real part, re + 1j*im would not
    entries = (vals.view(complex) if width == 2 else vals)[:, 0]
    if symmetry == "general":
        return entries.reshape(n, n).T  # column-major
    # the lower triangle by columns, mirrored first so the diagonal keeps its bits
    cols, rows = np.triu_indices(n, int(skew))
    M = np.zeros((n, n), dtype=entries.dtype)
    mirror = entries.conj() if symmetry == "hermitian" else entries
    M[cols, rows] = -mirror if skew else mirror
    M[rows, cols] = entries
    return M


def _scan_mm_entries(path: str, start: int, count: int, width: int) -> np.ndarray:
    """Parse the entries after line ``start`` token by token, naming the file
    line in errors; reads what float() reads but loadtxt does not ('1_0')."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()[start:]
    entries = [(i, ln.strip()) for i, ln in enumerate(lines, start=start + 1)
               if ln.strip() and not ln.lstrip().startswith("%")]
    if len(entries) != count:
        raise ValueError(f"{path}: expected {count} entries, found {len(entries)}")
    vals = []
    for lineno, text in entries:
        parts = text.split()
        if len(parts) != width:
            want = "'re im'" if width == 2 else "one value"
            raise ValueError(f"{path}:{lineno}: expected {want}, got {text!r}")
        vals += [_parse_float(part, path, lineno) for part in parts]
    return np.array(vals, dtype=float).reshape(count, width)


def read_matrix(path: str, format: str = "matrixmarket") -> np.ndarray:
    """Read a square complex matrix from a Matrix Market array file or a
    're,im;re,im' CSV grid. Parse errors carry the offending line number."""
    if format == "matrixmarket":
        return dense(_read_mm_matrix(path))
    if format == "csv":
        return dense(_read_csv_matrix(path))
    raise ValueError(f"unknown matrix format {format!r}")


def write_matrix(M: np.ndarray, path: str, format: str = "matrixmarket") -> None:
    """Write M so that read_matrix returns it bit-exactly. Matrix Market
    files are written by scipy.io.mmwrite as "array complex general", in
    scipy's shortest round-trip spelling (such as '1E-1'); CSV cells by repr."""
    M = dense(M)
    if format == "matrixmarket":
        with open(path, "wb") as fh:  # given a name, mmwrite would add '.mtx'
            scipy.io.mmwrite(fh, M, symmetry="general")
    elif format == "csv":
        rows = zip(M.real.tolist(), M.imag.tolist())
        text = "\n".join(";".join(f"{re!r},{im!r}" for re, im in zip(*row))
                         for row in rows) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        raise ValueError(f"unknown matrix format {format!r}")


def _check_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise FileExistsError(
            f"refusing to overwrite {path} (pass --force to allow)"
        )


def _inverse_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.inv{ext}" if ext else f"{path}.inv"


def cmd_sqrtm(cfg) -> int:
    A = read_matrix(cfg.input, cfg.format)
    opts = IterationOptions(
        method=cfg.method, m=cfg.m, ell=cfg.ell,
        alpha_override=cfg.alpha, max_iter=cfg.max_iter,
    )
    _check_overwrite(cfg.output, cfg.force)
    inv_path = _inverse_path(cfg.output)
    if cfg.inverse:
        _check_overwrite(inv_path, cfg.force)
    X, Xinv, report = sqrtm_drive(A, opts)
    write_matrix(X, cfg.output, cfg.format)
    if cfg.inverse:
        write_matrix(Xinv, inv_path, cfg.format)
    print(f"iterations: {report.iterations}")
    print(f"polish_steps: {report.polish_steps}")
    print(f"residual: {report.residual:.6e}")
    print(f"alpha: {report.alpha:.6e}")
    print(f"reason: {report.reason}")
    return 0 if report.reason == "criterion_satisfied" else 2


def cmd_coeffs(cfg) -> int:
    if cfg.alpha is None or cfg.alpha >= 1.0:
        pf = pade_partial_fraction(cfg.m, cfg.ell)
    else:
        pf = build_partial_fraction(ZoloParams(cfg.m, cfg.ell, cfg.alpha))
    lines = ["kind,index,value", f"scale,0,{pf.scale:.17g}"]
    lines += [f"residue,{j + 1},{a:.17g}" for j, a in enumerate(pf.residues)]
    lines += [f"shift,{j + 1},{c:.17g}" for j, c in enumerate(pf.shifts)]
    lines += [f"c,{j + 1},{c:.17g}" for j, c in enumerate(pf.all_c)]
    print("\n".join(lines))
    return 0


def _parse_grid(text: str):
    try:
        n_r, n_theta = map(int, text.lower().split("x"))
    except ValueError:
        raise ValueError(f"grid must be 'NRxNTHETA', got {text!r}") from None
    if n_r < 1 or n_theta < 1:
        raise ValueError("grid dimensions must be positive")
    return n_r, n_theta


def cmd_contour(cfg) -> int:
    p = ZoloParams(cfg.m, cfg.ell, cfg.alpha)
    alpha, order = p.alpha, p.order
    n_r, n_theta = _parse_grid(cfg.grid)
    log_r = np.linspace(2.0 * math.log10(alpha), 0.0, n_r)
    theta = -math.pi + (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    z = 10.0 ** log_r[:, None] * np.exp(1j * theta[None, :])
    if cfg.mode == "pade":  # the alpha = 1 map, on z scaled by 1/alpha
        z, alpha = z / alpha, 1.0
    abs_phi = np.abs(phi_of(z, alpha))
    kappa = _kappa_values(abs_phi, order, 1e-16)
    outside = int(np.count_nonzero(~(_kappa_guard(abs_phi, alpha, order) < 1.0)))
    if outside:
        print(f"{outside} grid points outside the estimate's validity region",
              file=sys.stderr)
    lines = ["log10_abs_z,arg_z,kappa"]
    mid = [f",{t!r}," for t in theta.tolist()]
    for r, row in zip(map(repr, log_r.tolist()), kappa.tolist()):
        lines += map("".join, zip([r] * n_theta, mid, map(repr, row)))
    _emit_text("\n".join(lines) + "\n", cfg.output, cfg.force)
    return 0


def _emit_text(text: str, path: str | None, force: bool) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _check_overwrite(path, force)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_directory_cases(directory: str) -> list[TestCase]:
    cases = []
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        ext = ext.lower()
        if ext not in (".mtx", ".csv"):
            continue
        fmt = "matrixmarket" if ext == ".mtx" else "csv"
        A = read_matrix(os.path.join(directory, name), fmt)
        cases.append(TestCase(stem, A))
    if not cases:
        raise ValueError(f"no .mtx or .csv matrix files found in {directory}")
    return cases


def cmd_bench(cfg) -> int:
    cases = _load_directory_cases(cfg.directory) if cfg.directory else bench_cases()
    methods = bench_methods()
    if cfg.methods:
        methods = select_methods(methods, cfg.methods)
    rows = run_suite(cases, methods)
    _emit_text(emit_csv(rows), cfg.output, cfg.force)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zolosqrt",
        description="Matrix square roots by rational minimax "
                    "iterations, with comparators and analysis tools.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sq = sub.add_parser("sqrtm", help="compute A^(1/2) (and optionally A^(-1/2))")
    sq.add_argument("input", help="input matrix file")
    sq.add_argument("-o", "--output", required=True, help="output matrix file")
    sq.add_argument("--format", choices=("matrixmarket", "csv"),
                    default="matrixmarket")
    defaults = IterationOptions()
    sq.add_argument("--method", choices=_METHODS, default=defaults.method)
    sq.add_argument("--m", type=int, default=defaults.m)
    sq.add_argument("--ell", type=int, default=defaults.ell)
    sq.add_argument("--alpha", type=float, default=None,
                    help="override the interval parameter (minimax method only)")
    sq.add_argument("--max-iter", type=int, default=defaults.max_iter)
    sq.add_argument("--inverse", action="store_true",
                    help="also write the inverse square root")
    sq.add_argument("--force", action="store_true",
                    help="overwrite existing output files")

    co = sub.add_parser("coeffs", help="print partial-fraction coefficients")
    co.add_argument("--m", type=int, required=True)
    co.add_argument("--ell", type=int, required=True)
    co.add_argument("--alpha", type=float, default=None,
                    help="absent or >= 1 selects the Pade limit")

    ct = sub.add_parser("contour", help="emit a kappa grid over the slit annulus")
    ct.add_argument("--m", type=int, required=True)
    ct.add_argument("--ell", type=int, required=True)
    ct.add_argument("--alpha", type=float, required=True)
    ct.add_argument("--grid", default="400x400", help="NRxNTHETA (default 400x400)")
    ct.add_argument("--mode", choices=("zolotarev", "pade"), default="zolotarev")
    ct.add_argument("-o", "--output", default=None, help="default: stdout")
    ct.add_argument("--force", action="store_true")

    be = sub.add_parser("bench", help="run the benchmark suite")
    be.add_argument("directory", nargs="?", default=None,
                    help="directory of .mtx/.csv matrices (default: built-in corpus)")
    be.add_argument("--methods", nargs="+", default=None,
                    metavar="LABEL", help="e.g. Z-(8,8) P-(1,0) DB")
    be.add_argument("-o", "--output", default=None, help="default: stdout")
    be.add_argument("--force", action="store_true")
    return parser


_DISPATCH = {
    "sqrtm": cmd_sqrtm,
    "coeffs": cmd_coeffs,
    "contour": cmd_contour,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return _DISPATCH[cfg.subcommand](cfg)
    except (SingularMatrixError, IterationAbortError) as exc:
        print(f"zolosqrt: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"zolosqrt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
