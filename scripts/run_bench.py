#!/usr/bin/env python3
"""Benchmark sweep over the built-in matrix corpus.

Runs every method on every generated case, prints an aligned table of
iteration counts, relative residuals, relative errors (where a
reference root exists) and wall-clock times, and optionally saves the
machine-readable CSV. ``--sizes`` regenerates the corpus at other
dimensions to watch the counts and residual floors scale.
"""

import argparse
import sys
import time

from zolosqrt.corpus import (
    SuiteRow,
    bench_methods,
    compute_metrics,
    emit_csv,
    gen_chebvand,
    gen_moler,
    gen_rank_one,
    gen_spd_logspectrum,
    method_label,
    select_methods,
)
from zolosqrt.linalg import SingularMatrixError
from zolosqrt.sqrtm import IterationAbortError, sqrtm_drive


def corpus_at(n):
    return [
        gen_rank_one(n),
        gen_moler(n),
        gen_chebvand(n),
        gen_spd_logspectrum(n, 1e-2, seed=1),
        gen_spd_logspectrum(n, 1e-5, seed=2),
    ]


def sweep(cases, methods):
    rows, seconds = [], []
    for tc in cases:
        for opts in methods:
            label = method_label(opts)
            t0 = time.perf_counter()
            try:
                X, _, report = sqrtm_drive(tc.matrix, opts)
                rows.append(SuiteRow(tc.name, label,
                                     compute_metrics(tc, X, report)))
            except (SingularMatrixError, IterationAbortError) as exc:
                rows.append(SuiteRow(tc.name, label, None, str(exc)))
            seconds.append(time.perf_counter() - t0)
    return rows, seconds


def print_table(rows, seconds, n):
    print(f"\ncorpus at n = {n}")
    print(f"{'case':<14} {'method':<8} {'iters':>5} {'residual':>9} "
          f"{'rel err':>9} {'seconds':>8}")
    for row, sec in zip(rows, seconds):
        m = row.metrics
        if m is None:
            print(f"{row.case:<14} {row.method:<8} {'failed: ' + row.error}")
            continue
        err = " " * 9 if m.rel_error is None else f"{m.rel_error:9.2e}"
        print(f"{row.case:<14} {row.method:<8} {m.iterations:>5} "
              f"{m.rel_residual:9.2e} {err} {sec:8.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[16],
                    help="matrix dimensions to generate (default: 16)")
    ap.add_argument("--methods", nargs="+", metavar="LABEL",
                    help="restrict to these method labels, e.g. Z-(8,8) DB")
    ap.add_argument("-o", "--output",
                    help="write the CSV table here (last size only)")
    args = ap.parse_args(argv)

    methods = bench_methods()
    if args.methods:
        try:
            methods = select_methods(methods, args.methods)
        except ValueError as exc:
            ap.error(str(exc))

    for n in args.sizes:
        rows, seconds = sweep(corpus_at(n), methods)
        print_table(rows, seconds, n)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_csv(rows))
        print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
