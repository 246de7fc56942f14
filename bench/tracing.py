"""Span tracing by rebinding the program's names where they are looked up.

Nothing in the program changes. Each target names a module attribute (or
an entry of a module-level dict) that the program calls through; while
the tracer is installed, that name is bound to a wrapper that records a
span around the call. Spans nest on one thread, so a span's self time is
its duration minus the durations of the spans opened directly inside it.
Spans are folded into per-name totals as they close; nothing is kept
per call.

A target whose name no longer exists is skipped and listed in
``Tracer.absent``; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


def _complex_factor(a: np.ndarray) -> int:
    """Real flops per flop of the formula: a complex multiply-add is four
    real multiplies and four real adds, against one each for real data."""
    return 4 if np.iscomplexobj(a) else 1


def _lu_flops(args, out) -> float:
    return 2.0 / 3.0 * out.n ** 3 * _complex_factor(out.lu)


def _solve_flops(args, out) -> float:
    cols = out.shape[1] if out.ndim == 2 else 1
    return 2.0 * args[0].n ** 2 * cols * _complex_factor(out)


def _matmul_flops(args, out) -> float:
    a, b = args[0], args[1]
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1] * _complex_factor(out)


def _file_bytes(position: int):
    def count(args, out) -> float:
        return float(os.path.getsize(args[position]))
    return count


def _points(args, out) -> float:
    return float(np.size(args[0]))


@dataclass(frozen=True)
class Target:
    """Rebind ``module.attr`` (or ``module.attr[key]``) as span ``span``.
    ``work`` computes a count from (args, result): flops, bytes or points."""

    module: str
    attr: str
    span: str
    key: str | None = None
    work: Callable | None = None


# Spans named elliptic.* mark every open span above them as having
# reached the elliptic layer; zolofuncs.coeff_builds counts those.
TARGETS = (
    Target("zolosqrt.sqrtm", "sqrtm_drive", "sqrtm.sqrtm_drive"),
    Target("zolosqrt.cli", "sqrtm_drive", "sqrtm.sqrtm_drive"),
    Target("zolosqrt.sqrtm", "prepare_problem", "sqrtm.prepare_problem"),
    Target("zolosqrt.sqrtm", "zolo_step", "sqrtm.step"),
    Target("zolosqrt.sqrtm", "pade_step", "sqrtm.step"),
    Target("zolosqrt.sqrtm", "db_step", "sqrtm.step"),
    Target("zolosqrt.sqrtm", "termination_check", "sqrtm.termination_check"),
    Target("zolosqrt.sqrtm", "lu_factor", "linalg.lu_factor", work=_lu_flops),
    Target("zolosqrt.linalg", "lu_factor", "linalg.lu_factor", work=_lu_flops),
    Target("zolosqrt.linalg", "solve", "linalg.solve", work=_solve_flops),
    Target("zolosqrt.sqrtm", "matmul", "linalg.matmul", work=_matmul_flops),
    Target("zolosqrt.sqrtm", "inverse", "linalg.inverse"),
    Target("zolosqrt.sqrtm", "norm", "linalg.norm"),
    Target("zolosqrt.sqrtm", "extreme_eigen_moduli", "linalg.extreme_eigen_moduli"),
    Target("zolosqrt.sqrtm", "_form_for", "zolofuncs.coeffs"),
    Target("zolosqrt.sqrtm", "pade_partial_fraction", "zolofuncs.coeffs"),
    Target("zolosqrt.sqrtm", "advance_alpha", "zolofuncs.advance_alpha"),
    Target("zolosqrt.cli", "phi_of", "zolofuncs.phi_of"),
    Target("zolosqrt.cli", "_kappa_values", "zolofuncs.kappa"),
    Target("zolosqrt.zolofuncs", "jacobi_scd", "elliptic.jacobi_scd"),
    Target("zolosqrt.zolofuncs", "agm_K", "elliptic.agm_K"),
    Target("zolosqrt.zolofuncs", "inv_sn", "elliptic.inv_sn", work=_points),
    Target("zolosqrt.cli", "read_matrix", "cli.read_matrix", work=_file_bytes(0)),
    Target("zolosqrt.cli", "write_matrix", "cli.write_matrix", work=_file_bytes(1)),
    Target("zolosqrt.cli", "_DISPATCH", "cli.cmd_sqrtm", key="sqrtm"),
    Target("zolosqrt.cli", "_DISPATCH", "cli.cmd_contour", key="contour"),
)


class SpanStats:
    """Totals over the closed spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "reached", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.reached = 0  # spans with an elliptic.* span inside them
        self.work = 0.0


class Tracer:
    """Installs the span wrappers of ``targets`` and totals their spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [child seconds, reached elliptic]
        self._saved: list[tuple] = []

    def _wrap(self, target: Target, fn):
        stats = self.stats.setdefault(target.span, SpanStats())
        stack = self._stack
        elliptic = target.span.startswith("elliptic.")
        work = target.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, False]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] = stack[-1][1] or frame[1] or elliptic
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
                stats.reached += frame[1]
            if work is not None:
                stats.work += work(args, out)
            return out

        return traced

    def install(self) -> None:
        """Bind every target to a span-recording wrapper."""
        self.absent = []
        for t in self.targets:
            owner = importlib.import_module(t.module)
            if t.key is None:
                holder, name, original = owner, t.attr, getattr(owner, t.attr, None)
            else:
                holder, name = getattr(owner, t.attr, {}), t.key
                original = holder.get(name)
            if original is None:
                self.absent.append(f"{t.module}.{t.attr}" + (f"[{t.key}]" if t.key else ""))
                continue
            self._saved.append((holder, name, t.key is not None, original))
            _bind(holder, name, t.key is not None, self._wrap(t, original))

    def uninstall(self) -> None:
        """Restore every rebound name, last bound first."""
        while self._saved:
            _bind(*self._saved.pop())

    def get(self, span: str) -> SpanStats:
        return self.stats.get(span, SpanStats())


def _bind(holder, name: str, is_key: bool, value) -> None:
    if is_key:
        holder[name] = value
    else:
        setattr(holder, name, value)
