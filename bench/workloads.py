"""The four workloads. Each is closed-loop with one client: the next op
is issued only after the previous one has returned.

A workload makes its inputs from the seed (``next_round``, outside the
clock), runs one op (``execute``, the timed call) and checks what the
program returned against references computed apart from it (``check``,
outside the clock). Ops come in rounds, and a run attempts whole rounds,
so the share of failed ops is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.io._fast_matrix_market

# Matrix Market reads and writes on one thread, like the BLAS: by default
# scipy parses with every core, which made peak memory vary from run to run.
scipy.io._fast_matrix_market.PARALLELISM = 1

import checks
import inputs
from zolosqrt import cli, sqrtm

# The five methods of the sweep, by the labels the per-method metrics use.
METHODS = {
    "z8-8-alt": sqrtm.IterationOptions(),
    "z8-8-full": sqrtm.IterationOptions(form="full"),
    "z1-0": sqrtm.IterationOptions(m=1, ell=0),
    "p8-8": sqrtm.IterationOptions(method="pade"),
    "db": sqrtm.IterationOptions(method="denman_beavers"),
}
# 4^332 ~ 1e200: far enough out that the spectrum estimate overflows (or
# underflows) today, while 4^249 ~ 1e150 still solves.
SCALE_EXPONENT = 332
# The scaled ops of many-32 use one fixed matrix, the same for every seed,
# so that they fail in every run and the failed share is seed-independent.
SCALED_BASE_SEED = 0x5CA1ED


@dataclass
class Outcome:
    """What the check made of one op. ``failed`` means the program
    reported a failure; ``correct`` speaks of the ops that did not fail.
    ``stats`` holds per-op counts and times keyed by per-layer metric name."""

    failed: bool = False
    correct: bool = True
    errors: tuple[float, ...] = ()
    stats: dict = field(default_factory=dict)
    detail: str = ""


def _solved(p: inputs.Problem, solved, stats: dict) -> Outcome:
    """Outcome of one sqrtm_drive result (X, Xinv, report) for p."""
    X, Xinv, report = solved
    stats["sqrtm.iterations"] = stats.get("sqrtm.iterations", 0) + report.iterations
    if report.reason != "criterion_satisfied":
        return Outcome(failed=True, stats=stats, detail=f"reason {report.reason}")
    verdict = checks.check_root(p, X, Xinv)
    if not verdict.ok:
        return Outcome(correct=False, stats=stats, detail=verdict.detail)
    return Outcome(errors=(verdict.error,), stats=stats)


class Sweep:
    """sweep-256: each op solves one SPD and one nonnormal n = 256 matrix
    with all five methods through sqrtm_drive."""

    name = "sweep-256"
    n = 256

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 256])

    def setup(self) -> None:
        pass

    def next_round(self) -> list:
        # Extreme pairs on the real axis: the fallback alpha would add an
        # iteration to about one nonnormal matrix in eight, enough to move
        # the median of ~20 ops by several percent from seed to seed. The
        # fallback is measured on many-32, whose extreme pairs are complex.
        return [(inputs.spd(self.rng, self.n, 1e-8),
                 inputs.nonnormal(self.rng, self.n, 1e-4, real_extremes=True))]

    def execute(self, op):
        out = []
        for p in op:
            for label, opts in METHODS.items():
                t0 = time.perf_counter()
                solved = sqrtm.sqrtm_drive(p.A, opts)
                out.append((p, label, time.perf_counter() - t0, solved))
        return out

    def check(self, op, result) -> Outcome:
        stats: dict = {}
        errors: list[float] = []
        for p, label, seconds, solved in result:
            stats[f"sqrtm.solve_s.{label}"] = stats.get(f"sqrtm.solve_s.{label}", 0.0) + seconds
            stats[f"sqrtm.iterations.{label}"] = (stats.get(f"sqrtm.iterations.{label}", 0)
                                                  + solved[2].iterations)
            one = _solved(p, solved, stats)
            if one.failed or not one.correct:
                one.detail = f"{label} on {p.kind}: {one.detail}"
                return one
            errors.extend(one.errors)
        return Outcome(errors=tuple(errors), stats=stats)


class Many:
    """many-32: each op is one default Z-(8,8) alt solve of a fresh n = 32
    matrix. A round is seven fresh matrices, alternating SPD and nonnormal,
    each with its own spread from [1e-8, 1e-2], then one fixed matrix
    scaled by 4^(+-332), which fails today."""

    name = "many-32"
    n = 32

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 32])
        base = inputs.spd(np.random.default_rng(SCALED_BASE_SEED), self.n, 1e-5)
        self.scaled = (base.scaled(SCALE_EXPONENT), base.scaled(-SCALE_EXPONENT))
        self.rounds = 0

    def setup(self) -> None:
        pass

    def next_round(self) -> list:
        ops = []
        for i in range(7):
            spread = 10.0 ** self.rng.uniform(-8.0, -2.0)
            make = inputs.spd if i % 2 == 0 else inputs.nonnormal
            ops.append(make(self.rng, self.n, spread))
        ops.append(self.scaled[self.rounds % 2])
        self.rounds += 1
        return ops

    def execute(self, op):
        return sqrtm.sqrtm_drive(op.A)

    def check(self, op, result) -> Outcome:
        return _solved(op, result, {})


class Cli:
    """cli-512: each op runs `zolosqrt sqrtm A.mtx -o X.mtx --inverse` in
    process on one seeded SPD n = 512 matrix written by scipy.io.mmwrite."""

    name = "cli-512"
    n = 512

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 512])
        self.input = workdir / "A.mtx"
        self.output = workdir / "X.mtx"
        self.inverse = workdir / "X.inv.mtx"

    def setup(self) -> None:
        self.problem = inputs.spd(self.rng, self.n, 1e-8)
        self.input.unlink(missing_ok=True)
        scipy.io.mmwrite(self.input, self.problem.A, symmetry="general")

    def next_round(self) -> list:
        # Outputs are removed rather than overwritten: on ext4, truncating
        # an existing file forces its blocks to be allocated and written
        # back on close, which made the op ~45% slower and far noisier.
        self.output.unlink(missing_ok=True)
        self.inverse.unlink(missing_ok=True)
        return [self.problem]

    def execute(self, op):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(["sqrtm", str(self.input), "-o", str(self.output), "--inverse"])
        return code, text.getvalue()

    def check(self, op, result) -> Outcome:
        code, text = result
        found = re.search(r"^iterations: (\d+)$", text, re.M)
        stats = {"sqrtm.iterations": int(found.group(1))} if found else {}
        if code != 0 or "reason: criterion_satisfied" not in text:
            return Outcome(failed=True, stats=stats, detail=f"exit {code}: {text.strip()}")
        verdict = checks.check_root_files(op, self.output, self.inverse)
        if not verdict.ok:
            return Outcome(correct=False, stats=stats, detail=verdict.detail)
        return Outcome(errors=(verdict.error,), stats=stats)


class Contour:
    """contour-400: each op runs `zolosqrt contour --m 8 --ell 8 --alpha
    1e-5 --grid 400x400 -o k.csv` in process; the seed picks the nodes
    whose kappa is recomputed with scipy."""

    name = "contour-400"
    m, ell, alpha, n_r, n_theta = 8, 8, 1e-5, 400, 400
    sampled = 4096

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 400])
        self.output = workdir / "k.csv"

    def setup(self) -> None:
        pass

    def next_round(self) -> list:
        self.output.unlink(missing_ok=True)  # see Cli.next_round
        return [self.rng.choice(self.n_r * self.n_theta, self.sampled, replace=False)]

    def execute(self, op):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["contour", "--m", str(self.m), "--ell", str(self.ell),
                             "--alpha", repr(self.alpha),
                             "--grid", f"{self.n_r}x{self.n_theta}", "-o", str(self.output)])

    def check(self, op, result) -> Outcome:
        if result != 0:
            return Outcome(failed=True, detail=f"exit {result}")
        verdict = checks.check_kappa_csv(self.output.read_text(encoding="utf-8"), self.alpha,
                                         self.m + self.ell + 1, self.n_r, self.n_theta, op)
        if not verdict.ok:
            return Outcome(correct=False, detail=verdict.detail)
        return Outcome(errors=(verdict.error,))


WORKLOADS = {w.name: w for w in (Sweep, Many, Cli, Contour)}
