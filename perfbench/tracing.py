"""Span recording around the layer boundaries of hdgbounds, from outside.

The library is not edited: ``Patches`` replaces module attributes with
wrappers that record one span per call and restores them afterwards.  A
span is (name, start, end, parent, op, interval) plus optional counters;
spans of one benchmark operation share ``op`` and spans of one certified
interval share ``interval``.  ``layer_metrics`` turns the spans of one
operation into the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


# every span inside one of these carries its id as "interval": one
# run_pipeline call produces one certified interval
INTERVAL_SPAN = "adapt.run_pipeline"


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name, fn, counters=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``counters(args, kwargs, result)`` may return a dict stored on the
        span (work counts measured where the work happens).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            if name == INTERVAL_SPAN:
                interval = idx
            else:
                interval = self.spans[parent]["interval"] if parent >= 0 else None
            span = {"id": idx, "op": self.op, "interval": interval,
                    "name": name, "parent": parent}
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result
        return traced

    def write(self, path: Path, t0: float) -> None:
        """Write all spans as JSON lines, times in seconds after ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(rec) + "\n")


class _ModuleProxy:
    """Stands in for a module: overridden names first, the rest forwarded."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# femcore functions that build the reference tables a Workspace stores
_FEMCORE_TABLES = ("triangle_rule", "segment_rule", "tri_basis",
                   "tri_basis_grad", "seg_basis", "lagrange_lattice")

_RECONSTRUCT = ("reconstruct_flux", "postprocess_potential", "make_continuous",
                "enforce_dirichlet_band", "local_optimize", "flux_residuals",
                "potential_residuals")


def _splu_counts(args, kwargs, lu):
    return {"A_nnz": int(args[0].nnz), "lu_nnz": int(lu.L.nnz + lu.U.nnz)}


def _optimize_counts(args, kwargs, result):
    return {"elements": int(args[0].mesh.n_elements)}


def _worst_residual(args, kwargs, res):
    return {"worst": float(max(res.values()))}


class Patches:
    """Installs span-recording wrappers on the hdgbounds modules; undone by
    ``remove``.  Attributes a future version no longer has are skipped."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.m = modules
        self._saved: list[tuple] = []
        self.skipped: list[str] = []

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _wrap_attr(self, obj, attr, name, counters=None):
        if attr not in getattr(obj, "__dict__", {}):
            self.skipped.append(name)
            return
        self._set(obj, attr, self.tracer.wrap(name, getattr(obj, attr), counters))

    def install(self):
        t, m = self.tracer, self.m
        hdg, rc, bd, adapt = m["hdg"], m["reconstruct"], m["bounds"], m["adapt"]
        ws_mod, problems, cli = m["workspace"], m["problems"], m["cli"]

        for fn in ("assemble_condensed", "solve_primal", "solve_adjoint"):
            self._wrap_attr(hdg, fn, f"hdg.{fn}")
        if "spla" in hdg.__dict__:
            spla = hdg.spla
            self._set(hdg, "spla", _ModuleProxy(spla, {
                "splu": t.wrap("hdg.splu", spla.splu, _splu_counts)}))
        else:
            self.skipped.append("hdg.splu")

        for fn in _RECONSTRUCT:
            counters = None
            if fn == "local_optimize":
                counters = _optimize_counts
            elif fn.endswith("_residuals"):
                counters = _worst_residual
            self._wrap_attr(rc, fn, f"reconstruct.{fn}", counters)
        self._wrap_attr(bd, "compute_bounds", "bounds.compute_bounds")

        for fn in ("run_pipeline", "mark", "adaptive_loop"):
            self._wrap_attr(adapt, fn, f"adapt.{fn}")
        if "_REFINERS" in adapt.__dict__:
            self._set(adapt, "_REFINERS", {
                k: t.wrap("mesh.refine", f) for k, f in adapt._REFINERS.items()})
        else:
            self.skipped.append("mesh.refine")

        W = ws_mod.Workspace
        if "get" in W.__dict__:
            self._set(W, "get", classmethod(
                t.wrap("workspace.get", W.__dict__["get"].__func__)))
        else:
            self.skipped.append("workspace.get")
        self._wrap_attr(W, "__init__", "workspace.init")
        if "fc" in ws_mod.__dict__:
            fc = ws_mod.fc
            self._set(ws_mod, "fc", _ModuleProxy(fc, {
                fn: t.wrap("femcore.table", getattr(fc, fn))
                for fn in _FEMCORE_TABLES if hasattr(fc, fn)}))
        else:
            self.skipped.append("femcore.table")

        for fn in ("unit_square_crisscross", "lshape_initial"):
            self._wrap_attr(problems, fn, "mesh.build")
        self._wrap_attr(cli, "run", "cli.run")
        return self

    def remove(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one operation
# ---------------------------------------------------------------------------

# (metric, unit); the order is the order of the printed table
PER_LAYER = (
    ("mesh.build_s", "s"), ("mesh.refine_s", "s"), ("mesh.refine_calls", "count"),
    ("femcore.tables_s", "s"), ("femcore.table_calls", "count"),
    ("workspace.build_s", "s"), ("workspace.builds", "count"),
    ("workspace.gets", "count"), ("workspace.hit_ratio", "ratio"),
    ("hdg.assemble_s", "s"), ("hdg.assemble_calls", "count"),
    ("hdg.factorize_s", "s"), ("hdg.factorizations", "count"),
    ("hdg.A_nnz", "count"), ("hdg.lu_nnz", "count"), ("hdg.backsub_s", "s"),
    ("reconstruct.flux_s", "s"), ("reconstruct.potential_s", "s"),
    ("reconstruct.optimize_s", "s"), ("reconstruct.optimize_elements", "count"),
    ("reconstruct.audit_s", "s"), ("reconstruct.worst_residual", "ratio"),
    ("bounds.compute_s", "s"),
    ("adapt.mark_s", "s"), ("adapt.iterations", "count"), ("adapt.self_s", "s"),
    ("cli.self_s", "s"),
)

# metrics combined across operations by maximum rather than median
MAX_OVER_OPS = ("reconstruct.worst_residual",)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one operation, from that operation's spans.

    Self time is a span's duration minus that of its direct children.
    """
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(names):
        return [s for s in spans if s["name"] in names]

    def outermost(names):
        # spans of these names not nested in another span of these names
        out = []
        for s in named(names):
            p = s["parent"]
            while p in by_id and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p not in by_id:
                out.append(s)
        return out

    def total(*names):
        return sum((dur(s) for s in outermost(names)), 0.0)

    def count(*names):
        return len(named(names))

    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_time(*names):
        return sum((dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
                    for s in named(names)), 0.0)

    gets = named(("workspace.get",))
    hits = sum(1 for g in gets
               if not any(c["name"] == "workspace.init"
                          for c in children.get(g["id"], ())))
    splu = named(("hdg.splu",))
    residuals = [s["worst"] for s in
                 named(("reconstruct.flux_residuals",
                        "reconstruct.potential_residuals"))]
    assemble = total("hdg.assemble_condensed")
    factorize = total("hdg.splu")
    return {
        "mesh.build_s": total("mesh.build"),
        "mesh.refine_s": total("mesh.refine"),
        "mesh.refine_calls": count("mesh.refine"),
        "femcore.tables_s": total("femcore.table"),
        "femcore.table_calls": count("femcore.table"),
        "workspace.build_s": total("workspace.init"),
        "workspace.builds": count("workspace.init"),
        "workspace.gets": len(gets),
        "workspace.hit_ratio": hits / len(gets) if gets else 0.0,
        "hdg.assemble_s": assemble,
        "hdg.assemble_calls": count("hdg.assemble_condensed"),
        "hdg.factorize_s": factorize,
        "hdg.factorizations": len(splu),
        "hdg.A_nnz": max((s["A_nnz"] for s in splu), default=0),
        "hdg.lu_nnz": max((s["lu_nnz"] for s in splu), default=0),
        "hdg.backsub_s": (total("hdg.solve_primal", "hdg.solve_adjoint")
                          - assemble - factorize),
        "reconstruct.flux_s": total("reconstruct.reconstruct_flux"),
        "reconstruct.potential_s": total("reconstruct.postprocess_potential",
                                         "reconstruct.make_continuous",
                                         "reconstruct.enforce_dirichlet_band"),
        "reconstruct.optimize_s": total("reconstruct.local_optimize"),
        "reconstruct.optimize_elements": sum(
            s["elements"] for s in named(("reconstruct.local_optimize",))),
        "reconstruct.audit_s": total("reconstruct.flux_residuals",
                                     "reconstruct.potential_residuals"),
        "reconstruct.worst_residual": max(residuals, default=0.0),
        "bounds.compute_s": total("bounds.compute_bounds"),
        "adapt.mark_s": total("adapt.mark"),
        "adapt.iterations": count("adapt.run_pipeline"),
        "adapt.self_s": self_time("adapt.adaptive_loop", "adapt.run_pipeline"),
        "cli.self_s": self_time("cli.run"),
    }
