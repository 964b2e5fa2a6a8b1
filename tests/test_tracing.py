"""The benchmark's tracer (perfbench/tracing.py) against the library: every
trace point it wraps still exists, and the audit counters read the
residual dicts the library returns."""

import importlib
import importlib.util
from pathlib import Path

from hdgbounds import Workspace, builtin, certified_pair, solve, unit_square_crisscross

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the modules perfbench/run.py hands to the tracer
LAYERS = ("mesh", "femcore", "workspace", "hdg", "reconstruct", "bounds",
          "adapt", "problems", "cli")
# the points the library no longer has: one solve serves the primal and the
# adjoint problem, and workspaces are built, not looked up
GONE = ["hdg.solve_primal", "hdg.solve_adjoint", "workspace.get"]


def test_tracer_finds_the_audit_and_solve_points():
    modules = {n: importlib.import_module(f"hdgbounds.{n}") for n in LAYERS}
    prob = builtin("example1_s1")
    ws = Workspace(unit_square_crisscross(1), 1)
    pair = certified_pair(solve(ws, [prob.data])[0], prob.data)
    rc = modules["reconstruct"]
    original = rc.flux_residuals
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, modules).install()
    try:
        assert patches.skipped == GONE
        assert rc.flux_residuals is not original
        res = rc.flux_residuals(rc.evaluate(*pair, prob.data, ws), ws)
    finally:
        patches.remove()
    assert isinstance(res, dict)
    spans = [s for s in tracer.spans if s["name"] == "reconstruct.flux_residuals"]
    assert len(spans) == 1 and spans[0]["worst"] == max(res.values())
    assert rc.flux_residuals is original
