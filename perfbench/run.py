#!/usr/bin/env python3
"""Benchmark of hdgbounds: wall time to a certified interval.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload square_plain_p2 --seed 0 --seconds 30 --trace 0

Each operation produces certified intervals and is checked: every interval
must contain the problem's exact output, and on the canonical inputs the
bounds must match the reference values below.  The run repeats operations,
one at a time, until --seconds have passed.

Output: a table of the metrics, an ``env`` line (machine and library
versions), and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones; their times are scaled to a reference machine speed
measured next to every operation (see calibrate.py), and the raw wall times
are printed beside them.  With --trace 1 untraced and traced operations
alternate, the metrics are the per-layer ones computed from spans (see
tracing.py), in raw wall time, and the spans are written to .bench_out/.

Exit status: 0 when every operation was correct, 1 when any failed, 2 when
the arguments or the checkout are wrong (no result is printed then).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One operation per entry.  "pipeline": build a criss-cross mesh, then one
# run_pipeline call.  "adaptive": one cli.run call to the target gap.
# ref: (s_minus, s_plus) on the canonical seed, plus (iterations, final_nel)
# for the adaptive run.
WORKLOADS = {
    "square_plain_p2": dict(
        kind="pipeline", problem="example1_s1", level=5, p=2, optimize=False,
        ref=(0.40528473456663355, 0.4052847345720951)),
    "band_optimize_p2": dict(
        kind="pipeline", problem="example1_s2", level=4, p=2, optimize=True,
        ref=(2.4674011002181175, 2.4674011003163683)),
    "lshape_adaptive_p1": dict(
        kind="adaptive", problem="example2_s1", p=1, strategy="bulk:0.5",
        refiner="bisect", target=3e-6, max_iter=80,
        ref=(2.140744070624e-01, 2.140770860625e-01, 25, 1760)),
}
# bounds on the canonical inputs must match ref to this relative tolerance
REF_RTOL = 1e-11
# set-up is repeated this many times per untraced run; setup_s is the median
SETUP_REPEATS = 9
# end-to-end metrics that are wall times, scaled by the calibration
SCALED = ("interval_s", "time_to_gap_s", "setup_s")

# (name, unit) of the end-to-end metrics, in the order printed
END_TO_END = (("interval_s", "s"), ("time_to_gap_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("half_gap", "output"),
              ("final_nel", "count"))
TRACE_OVERHEAD = ("bench.trace_overhead_s", "s")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> int:
    """Cap the BLAS/OpenMP thread pools at nproc; must run before numpy is
    imported.  Returns the cap."""
    n = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(n, cur)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def blas_threads(default: int) -> int:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return default


def environment(blas_cap: int) -> dict:
    import numpy as np
    import scipy
    return {"nproc": _nproc(), "blas_threads": blas_threads(blas_cap),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Set-up: import, problem lookup, initial mesh
# ---------------------------------------------------------------------------

LAYERS = ("mesh", "femcore", "workspace", "hdg", "reconstruct", "bounds",
          "adapt", "problems", "cli")


def import_library() -> dict:
    """Import hdgbounds afresh from ./src; returns its modules by name."""
    for name in [n for n in sys.modules
                 if n == "hdgbounds" or n.startswith("hdgbounds.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hdgbounds")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"hdgbounds imported from {pkg.__file__}, not ./src")
    return {name: importlib.import_module(f"hdgbounds.{name}") for name in LAYERS}


def crisscross(mesh_mod, level: int, seed: int):
    """Criss-cross mesh of the unit square at ``level``.  For seed != 0 every
    interior vertex moves in y by a seeded uniform amount of at most 0.2 of
    the grid pitch; x and the boundary stay fixed."""
    import numpy as np
    base = mesh_mod.unit_square_crisscross(level)
    v = base.vertices.copy()
    if seed != 0:
        pitch = 0.5 ** (level + 1)
        interior = np.all((v > 0.0) & (v < 1.0), axis=1)
        rng = np.random.default_rng(seed)
        v[interior, 1] += rng.uniform(-0.2 * pitch, 0.2 * pitch,
                                      int(interior.sum()))
    return mesh_mod.Mesh(v, base.elements, base.boundary_tag_dict())


class Context:
    """Library modules, problem and mesh builder of one workload."""

    def __init__(self, workload: str, seed: int):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.modules = import_library()
        self.prob = self.modules["problems"].builtin(self.w["problem"])
        # the L-shape has no interior vertices, so only the criss-cross
        # workloads depend on the seed
        self.canonical = seed == 0 or self.w["kind"] == "adaptive"

    def build_mesh(self):
        if self.w["kind"] == "pipeline":
            return crisscross(self.modules["mesh"], self.w["level"], self.seed)
        return self.prob.initial_mesh()


def setup(workload: str, seed: int) -> tuple[Context, float]:
    t0 = time.perf_counter()
    ctx = Context(workload, seed)
    ctx.build_mesh()
    return ctx, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _containment_errors(ctx: Context, s_minus: float, s_plus: float,
                        slack: float = 0.0) -> list[str]:
    s = ctx.prob.exact_s
    if s_minus - slack <= s <= s_plus + slack:
        return []
    return [f"exact s = {s!r} outside [{s_minus!r}, {s_plus!r}]"]


def _reference_errors(ctx: Context, s_minus: float, s_plus: float) -> list[str]:
    """On the canonical inputs the bounds must repeat the recorded ones."""
    if not ctx.canonical:
        return []
    errors = []
    for label, got, want in (("s_minus", s_minus, ctx.w["ref"][0]),
                             ("s_plus", s_plus, ctx.w["ref"][1])):
        if abs(got - want) > REF_RTOL * abs(want):
            errors.append(f"{label} = {got!r} differs from reference {want!r}"
                          f" by more than {REF_RTOL:g} relative")
    return errors


def pipeline_op(ctx: Context, build_mesh):
    """Fresh mesh (so the workspace is cold), then one certified interval."""
    adapt = ctx.modules["adapt"]
    t0 = time.perf_counter()
    mesh = build_mesh()
    t1 = time.perf_counter()
    res = adapt.run_pipeline(mesh, ctx.prob.data, ctx.prob.out, ctx.w["p"],
                             optimize=ctx.w["optimize"])
    t2 = time.perf_counter()
    metrics = {"interval_s": t2 - t1, "time_to_gap_s": t2 - t0,
               "half_gap": res.half_gap, "final_nel": mesh.n_elements}
    return metrics, (_containment_errors(ctx, res.s_minus, res.s_plus)
                     + _reference_errors(ctx, res.s_minus, res.s_plus))


def adaptive_op(ctx: Context, build_mesh):
    """One batch run of the CLI to the target gap, outputs included."""
    cli, w = ctx.modules["cli"], ctx.w
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cfg = cli.RunConfig(problem=w["problem"], p=w["p"],
                            strategy=w["strategy"], refiner=w["refiner"],
                            target=w["target"], max_iter=w["max_iter"],
                            out_dir=tmp)
        t0 = time.perf_counter()
        code = cli.run(cfg)
        t1 = time.perf_counter()
        if code != 0:
            return {}, [f"cli.run returned exit code {code}"]
        with open(Path(tmp) / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(Path(tmp) / "summary.json") as fh:
            summary = json.load(fh)
    errors = []
    if len(rows) != summary["iterations"]:
        errors.append(f"{len(rows)} CSV rows for {summary['iterations']} "
                      "iterations")
    # the CSV holds 13 significant digits
    slack = 1e-12 * (1.0 + abs(ctx.prob.exact_s))
    for row in rows:
        errors += _containment_errors(ctx, float(row["s_minus"]),
                                      float(row["s_plus"]), slack)
    last = rows[-1]
    errors += _reference_errors(ctx, float(last["s_minus"]),
                                float(last["s_plus"]))
    ref_iters, ref_nel = w["ref"][2:]
    if ctx.canonical and (
            len(rows), int(last["nel"])) != (ref_iters, ref_nel):
        errors.append(f"{len(rows)} iterations to {last['nel']} elements, "
                      f"reference {ref_iters} to {ref_nel}")
    metrics = {"interval_s": (t1 - t0) / len(rows), "time_to_gap_s": t1 - t0,
               "half_gap": float(last["half_gap"]),
               "final_nel": int(last["nel"])}
    return metrics, errors


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_ops(ctx: Context, seconds: float, tracer=None, cal=None):
    """Closed loop, one caller: operations back to back until ``seconds``
    have passed.  With a tracer, untraced and traced operations alternate
    (at least one of each).  With a calibration, the kernel runs between
    operations and each record carries the scale reference_s / (mean kernel
    time before and after it), else 1.  Returns (records, failed,
    rss_after_first, names of trace points the library no longer has)."""
    op = pipeline_op if ctx.w["kind"] == "pipeline" else adaptive_op
    records, failed, rss, skipped = [], 0, None, []
    t_end = time.perf_counter() + seconds
    cal_before = cal.measure() if cal else None
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        patches = None
        build = ctx.build_mesh
        if traced:
            tracer.op = i
            patches = tracing.Patches(tracer, ctx.modules).install()
            skipped = patches.skipped
            build = tracer.wrap("mesh.build", build)
        try:
            metrics, errors = op(ctx, build)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            metrics, errors = {}, ["operation raised"]
        finally:
            if patches is not None:
                patches.remove()
        if errors:
            failed += 1
            for e in errors:
                print(f"op {i} failed: {e}", file=sys.stderr)
        scale = 1.0
        if cal:
            cal_after = cal.measure()
            scale = cal.reference_s / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
        records.append((i, traced, metrics, scale))
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
        if time.perf_counter() >= t_end and (tracer is None or i >= 2):
            break
    return records, failed, rss, skipped


def _finite_or_none(value):
    # no successful operation leaves NaN, which JSON cannot carry
    return value if math.isfinite(value) else None


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdgbounds" / "__init__.py").is_file():
        print(f"error: no hdgbounds source under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    blas_cap = limit_blas_threads()
    from calibrate import Calibration      # imports numpy: after the cap
    sys.path.insert(0, str(SRC))
    t_start = time.perf_counter()
    try:
        ctx, first_setup = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import hdgbounds: {exc}", file=sys.stderr)
        return 2
    setups, cal, tracer = [], None, None
    if args.trace:
        tracer = tracing.Tracer()
    else:
        cal = Calibration()
        cal.measure()                      # warm-up, not used
        cal_before = cal.measure()
        times = []
        for _ in range(SETUP_REPEATS):
            ctx, t = setup(args.workload, args.seed)
            times.append(t)
        scale = cal.reference_s / (0.5 * (cal_before + cal.measure()))
        setups = [(t, scale) for t in times]

    records, failed, rss, skipped = run_ops(ctx, args.seconds, tracer, cal)
    plain = [(m, scale) for _, traced, m, scale in records
             if not traced and m]
    attempted = len(records)

    print(f"workload {args.workload}  seed {args.seed}  operations {attempted}"
          f"  failed {failed}  failed_frac {failed / attempted:.3g}  "
          f"first set-up (with numpy/scipy import) {first_setup:.4f} s")
    if not args.trace:
        samples = {"setup_s": setups, "peak_rss_mb": [(rss, 1.0)]}
        for key in ("interval_s", "time_to_gap_s", "half_gap", "final_nel"):
            samples[key] = [(m[key], scale) for m, scale in plain]
        metrics, raw = {}, {}
        for key, vals in samples.items():
            raw[key] = _median([v for v, _ in vals])
            metrics[key] = (_median([v * scale for v, scale in vals])
                            if key in SCALED else raw[key])
        metrics["final_nel"] = int(metrics["final_nel"]) if plain else 0
        units = dict(END_TO_END)
        order = [name for name, _ in END_TO_END]
        speed = _median([cal.reference_s / scale for _, scale in plain])
        print(f"  end-to-end, median of {len(plain)} operations "
              f"({len(setups)} set-ups for setup_s); all lower is better")
        print(f"  times scaled to a {cal.reference_s} s calibration "
              f"kernel; it took {speed:.4f} s (median) in this run")
        print("  time_to_gap_s raw per operation: "
              + " ".join(f"{m['time_to_gap_s']:.3f}" for m, _ in plain))
    else:
        per_op = {}
        for i, traced, m, _ in records:
            if traced and m:
                per_op[i] = tracing.layer_metrics(
                    [s for s in tracer.spans if s["op"] == i])
        traced_ops = [m for _, traced, m, _ in records if traced and m]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            vals = [m[name] for m in per_op.values()]
            if name in tracing.MAX_OVER_OPS:
                combine = max
            elif unit == "count":
                combine = statistics.median_low   # keeps counts whole
            else:
                combine = statistics.median
            metrics[name] = combine(vals) if vals else float("nan")
        metrics[TRACE_OVERHEAD[0]] = (
            _median([m["time_to_gap_s"] for m in traced_ops])
            - _median([m["time_to_gap_s"] for m, _ in plain]))
        units = dict(tracing.PER_LAYER + (TRACE_OVERHEAD,))
        order = [name for name, _ in tracing.PER_LAYER] + [TRACE_OVERHEAD[0]]
        raw = metrics
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file, t_start)
        print(f"  per layer, median over {len(per_op)} traced operations "
              f"(overhead against {len(plain)} untraced); spans in {span_file}")
        if skipped:
            print(f"  not traced (absent from the library): {skipped}")
    for name in order:
        value = metrics[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        wall = f"   (raw wall {raw[name]:.6g})" if raw[name] != value else ""
        print(f"  {name:32s} {shown} {units[name]}{wall}")
    print("env " + json.dumps(environment(blas_cap), sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": _finite_or_none(metrics[name]),
                                 "unit": units[name]} for name in order}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
