#!/usr/bin/env python3
"""zolosqrt benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout without installing the package.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A fuller record, with the machine it ran on, goes to
.bench_out/results/<workload>-seed<N>-trace<T>.json.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads OpenBLAS: at two threads on a
# two-core machine the op times doubled and scattered (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZOLO_THREADS", None)

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is repeated and its median reported, so one cold start does not
# decide the figure.
SETUP_REPEATS = 3
FALLBACK_WARNING = "falling back to alpha"
# Per-layer metrics that the workloads count per op, rather than spans.
OP_STAT_PREFIXES = ("sqrtm.iterations", "sqrtm.solve_s.", "sqrtm.alpha_fallbacks")


def import_program() -> None:
    """Import zolosqrt from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import zolosqrt.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import zolosqrt from {SRC}: {exc}")
    found = Path(zolosqrt.cli.__file__).resolve().parent.parent
    if found != SRC:
        raise SystemExit(f"bench: imported zolosqrt from {found}, not from {SRC}")


@dataclass
class Run:
    """One op as it ran: its result (or the exception it raised), its wall
    time, whether spans were recorded, and fallback-alpha warnings seen."""

    result: object
    seconds: float
    traced: bool = False
    fallbacks: int = 0


def run_op(wl, op, traced: bool = False) -> Run:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = wl.execute(op)
        except Exception as exc:  # the program failed; the op counts as failed
            result = exc
        seconds = time.perf_counter() - t0
    return Run(result, seconds, traced,
               sum(FALLBACK_WARNING in str(w.message) for w in caught))


def outcome_of(wl, op, run: Run):
    from workloads import Outcome

    if isinstance(run.result, Exception):
        out = Outcome(failed=True, detail=f"{type(run.result).__name__}: {run.result}")
    else:
        out = wl.check(op, run.result)
    out.stats["sqrtm.alpha_fallbacks"] = run.fallbacks
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up ``setup_repeats`` times, then run whole rounds for ``seconds``.

    With ``trace``, rounds alternate between traced and untraced, so the
    tracing overhead is measured within the run.
    """
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    setups: list[float] = []
    records: list[tuple[Run, object]] = []
    problems: list[str] = []
    try:
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            wl = cls(seed, workdir)
            wl.setup()
            warm = [(op, run_op(wl, op)) for op in wl.next_round()]
            setups.append(time.perf_counter() - t0)
            problems += [o.detail for o in (outcome_of(wl, op, r) for op, r in warm)
                         if not o.correct]
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 0
            batch = wl.next_round()
            # Each round starts from the same collector state. Freezing what
            # survives keeps later collections from rescanning the records.
            gc.collect()
            gc.freeze()
            if traced:
                tracer.install()
            try:
                runs = [run_op(wl, op, traced) for op in batch]
            finally:
                tracer.uninstall()
            for op, r in zip(batch, runs):
                records.append((r, outcome_of(wl, op, r)))
                r.result = None  # checked; keep the timings, not the matrices
            rounds += 1
            # A traced run ends on an untraced round, so both halves exist.
            if time.perf_counter() >= deadline and not (trace and rounds % 2):
                break
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "records": records, "tracer": tracer,
            "problems": problems + [o.detail for _, o in records if not o.correct]}


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(m: dict, import_s: float) -> dict:
    records = m["records"]
    ok = [r.seconds for r, o in records if not o.failed]
    # An op is as accurate as its worst output. (A median over the outputs
    # themselves would sit between the SPD and nonnormal solves of sweep-256.)
    errors = [max(o.errors) for _, o in records if not o.failed and o.errors]
    return {
        "setup_s": import_s + _median(m["setups"]),
        "ops_per_s": len(ok) / sum(r.seconds for r, _ in records),
        "op_s_p50": _median(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_digits_p50": _median([-math.log10(max(e, 2.0 ** -53)) for e in errors]),
    }


def per_layer(m: dict, names) -> dict:
    """Per traced op, except gflops (a rate) and trace.overhead_s."""
    records = m["records"]
    traced = [(r, o) for r, o in records if r.traced]
    n = max(len(traced), 1)
    op_totals = collections.Counter()
    for _, o in traced:
        op_totals.update(o.stats)
    tracer = m["tracer"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (_median([r.seconds for r, o in traced if not o.failed])
                         - _median([r.seconds for r, o in records
                                    if not r.traced and not o.failed]))
        elif name.startswith(OP_STAT_PREFIXES):
            out[name] = op_totals[name] / n
        elif name == "zolofuncs.coeff_builds":
            out[name] = (tracer.get("zolofuncs.coeffs").reached
                         + tracer.get("zolofuncs.advance_alpha").reached) / n
        else:
            span, field = name.rsplit(".", 1)
            st = tracer.get(span)
            values = {"calls": st.calls / n, "s": st.total_s / n, "self_s": st.self_s / n,
                      "bytes": st.work / n, "points": st.work / n,
                      "gflops": st.work / st.total_s / 1e9 if st.total_s else 0.0}
            out[name] = values[field]
    return out


def tail_percentile(times: list[float]):
    """The highest of p99, p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(times, n=100)[pct - 1]
    return None


def _openblas() -> dict:
    """Version, build config and thread count of each OpenBLAS loaded."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               f"{pkg.__name__}.libs", "*openblas*")
        for path in glob.glob(pattern):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if config is not None and threads is not None:
                        config.restype = ctypes.c_char_p
                        found[pkg.__name__] = {"config": config().decode(),
                                               "threads": int(threads())}
    found["numpy_build"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return found


def _filesystem(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                point, fstype = line.split()[1:3]
                if str(path).startswith(point) and len(point) > len(best):
                    best, kind = point, fstype
    except OSError:
        pass
    return kind


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scratch_dir": str((OUT / "work").relative_to(ROOT)),
        "scratch_fs": _filesystem(OUT),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(m, [x["name"] for x in listed])
    else:
        listed = spec["end_to_end"]
        values = end_to_end(m, import_s)
    records = m["records"]
    failed = [o for _, o in records if o.failed]
    result = {
        "correct": not m["problems"],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in listed},
    }
    ok_times = [r.seconds for r, o in records if not o.failed]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "result": result,
        "succeeded_ops": len(ok_times), "op_s_tail": tail_percentile(ok_times),
        "op_seconds": [r.seconds for r, _ in records],
        "setup_prepare_s": m["setups"], "import_s": import_s,
        "failures": collections.Counter(o.detail for o in failed).most_common(5),
        "incorrect": m["problems"][:5], "absent_trace_targets": m["tracer"].absent,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for detail in m["problems"][:5]:
        print(f"bench: incorrect output: {detail}", file=sys.stderr)
    if m["tracer"].absent:
        print(f"bench: trace targets absent: {', '.join(m['tracer'].absent)}", file=sys.stderr)
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload} seed {args.seed}: {len(records)} ops attempted, {len(failed)} failed, "
          f"{len(ok_times)} timed; tail {record['op_s_tail']}; record in {path.relative_to(ROOT)}")
    for name, v in result["metrics"].items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
