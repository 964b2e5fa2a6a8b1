"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared heavy computations (the uniform refinement studies) are session
fixtures reused across criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest

from hdgbounds import (Bulk, ErrorDistribution, OutputFunctional, ProblemData,
                       Uniform, Workspace, adaptive_loop, builtin,
                       compute_bounds, refine_bisection,
                       unit_square_crisscross, zero)
from hdgbounds.adapt import run_pipeline
from hdgbounds.mesh import DIRICHLET
from hdgbounds.reconstruct import (evaluate, flux_residuals,
                                   potential_residuals)
from conftest import build_pair, exact_equilibration_bounds, mixed_square


def _report(num, ok, detail=""):
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# Shared studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def uniform_study():
    """Uniform Example-1 s1 runs with local optimization, per degree."""
    prob = builtin("example1_s1")
    study = {}
    for p, levels in ((1, 5), (2, 4), (3, 4)):
        rows = []
        for lvl in range(levels):
            mesh = unit_square_crisscross(lvl)
            res = run_pipeline(mesh, prob.data, prob.out, p=p, optimize=True)
            rows.append((mesh.n_elements, res))
        study[p] = rows
    return study


# ---------------------------------------------------------------------------
# Criterion 1: containment across problems, degrees, tau, strategies
# ---------------------------------------------------------------------------

def test_criterion_1_containment_grid():
    t0 = time.perf_counter()
    problems = ("example1_s1", "example1_s2", "example2_s1")
    taus = (0.1, 1.0, 10.0)
    strategies = (Uniform(), ErrorDistribution(1e-6), Bulk(0.5))
    violations = []
    for pid, p, tau, strat in itertools.product(problems, (1, 2, 3), taus,
                                                strategies):
        prob = builtin(pid)
        family = prob.uniform_family if isinstance(strat, Uniform) else None
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=p,
                            tau=tau, strategy=strat, target_gap=1e-14,
                            max_iter=3, refiner=prob.refiner,
                            uniform_family=family)
        slack = 1e-12 * (1 + abs(prob.exact_s))
        for it, rec in enumerate(run.records):
            if not rec.bounds.contains(prob.exact_s, slack):
                violations.append((pid, p, tau, str(strat), it))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    assert _report(1, ok, f"({elapsed:.1f}s, {len(violations)} violations)")
    assert not violations, violations
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 2: reference-table reproduction
# ---------------------------------------------------------------------------

# The table prints each half-gap to 3 digits, so s~ must agree to half a unit
# in that digit at worst: S_TILDE_REL * hg_ref.  The table's discretization
# differs from this one (p=1, nel=64 half-gap +0.22%, outside rounding), and
# at p=1, nel=16 s~ moves by more than its miss under tau 0.9..1.1 or a
# degree-5 oscillation rule; the README has the evidence.
S_TILDE_REL = 5e-3
REFERENCE_ROWS = {
    1: [(16, 0.406021554922, 5.47e-03), (64, 0.405317075580, 3.19e-04),
        (256, 0.405286596697, 1.97e-05), (1024, 0.405284843586, 1.27e-06),
        (4096, 0.405284741107, 8.28e-08)],
    2: [(16, 0.405275669432, 1.26e-04), (64, 0.405284783569, 3.02e-06),
        (256, 0.405284735937, 8.33e-08), (1024, 0.405284734592, 2.46e-09)],
}
REFERENCE_ORDERS = {1: [4.10, 4.02, 3.96, 3.93], 2: [5.38, 5.18, 5.08]}


def test_criterion_2_reference_table(uniform_study):
    failures = []
    worst = 0.0
    for p, refs in REFERENCE_ROWS.items():
        rows = uniform_study[p]
        assert len(rows) == len(refs), (p, len(rows), len(refs))
        for (nel, st_ref, hg_ref), (nel_got, res) in zip(refs, rows):
            assert nel == nel_got
            diff = abs(res.s_tilde - st_ref)
            worst = max(worst, diff / hg_ref)
            if diff > S_TILDE_REL * hg_ref:
                failures.append(f"p={p} nel={nel} s~ diff {diff:.2e} > "
                                f"{S_TILDE_REL * hg_ref:.2e} "
                                f"(|ds~|/hg_ref {diff / hg_ref:.2e})")
            if abs(res.half_gap - hg_ref) > 0.10 * hg_ref:
                failures.append(f"p={p} nel={nel} half-gap off "
                                f"{(res.half_gap - hg_ref) / hg_ref:+.1%}")
        hgs = [r.half_gap for _, r in rows]
        nels = [n for n, _ in rows]
        for i, ref_order in enumerate(REFERENCE_ORDERS[p]):
            got = -2 * math.log(hgs[i + 1] / hgs[i]) \
                / math.log(nels[i + 1] / nels[i])
            if abs(got - ref_order) > 0.25:
                failures.append(f"p={p} order[{i}] {got:.2f} vs {ref_order}")
    ok = _report(2, not failures, f"({len(failures)} row failures, worst "
                                  f"|ds~|/hg_ref {worst:.2e})")
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 3: superconvergent gap order p+3
# ---------------------------------------------------------------------------

def test_criterion_3_gap_order(uniform_study):
    failures = []
    for p in (1, 2, 3):
        rows = uniform_study[p][-3:]
        lx = np.log([n for n, _ in rows])
        ly = np.log([r.half_gap for _, r in rows])
        slope = -2 * np.polyfit(lx, ly, 1)[0]
        if abs(slope - (p + 3)) > 0.3:
            failures.append(f"p={p}: fitted gap order {slope:.2f} vs {p + 3}")
    ok = _report(3, not failures, f"({len(failures)} failures)")
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 4: Example-2 energy output
# ---------------------------------------------------------------------------

def test_criterion_4_lshape_energy():
    prob = builtin("example2_s1")
    failures = []

    # (a) initial-mesh bounds at p=3 against the published interval
    res = run_pipeline(prob.initial_mesh(), prob.data, prob.out, p=3,
                       optimize=True)
    if abs(res.s_minus - 0.2120143) > 1e-5:
        failures.append(f"initial s_minus diff {abs(res.s_minus - 0.2120143):.2e}")
    if abs(res.s_plus - 0.2153474) > 1e-5:
        failures.append(f"initial s_plus diff {abs(res.s_plus - 0.2153474):.2e}")

    # (b) uniform-refinement half-gap slope -2/3 in nel
    mesh = prob.initial_mesh()
    hist = []
    for _ in range(13):
        r = run_pipeline(mesh, prob.data, prob.out, p=1)
        hist.append((mesh.n_elements, r.half_gap))
        if mesh.n_elements >= 24576:
            break
        mesh = refine_bisection(mesh, range(mesh.n_elements))
    tail = hist[-6:]
    slope = np.polyfit(np.log([n for n, _ in tail]),
                       np.log([h for _, h in tail]), 1)[0]
    if abs(slope + 2.0 / 3.0) > 0.15:
        failures.append(f"uniform slope {slope:.3f} vs -2/3")

    # (c) Bulk(0.5) adaptive efficiency against the published element counts
    for p, nel_ref in ((1, 984), (2, 152), (3, 112)):
        run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=p,
                            strategy=Bulk(0.5), target_gap=1e-5,
                            refiner="bisect", optimize=True, max_iter=40)
        final = run.records[-1]
        if final.bounds.half_gap >= 5e-6:
            failures.append(f"bulk p={p}: half-gap {final.bounds.half_gap:.2e}")
        if final.nel > 1.5 * nel_ref:
            failures.append(f"bulk p={p}: nel {final.nel} > 1.5x{nel_ref}")
    ok = _report(4, not failures, f"({len(failures)} failures)")
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 5: Example-2 steep output (no exact value)
# ---------------------------------------------------------------------------

def test_criterion_5_lshape_steep_output():
    prob = builtin("example2_s2")
    run = adaptive_loop(prob.initial_mesh(), prob.data, prob.out, p=2,
                        strategy=Bulk(0.5), target_gap=1e-4,
                        refiner="bisect", optimize=True, max_iter=40)
    hgs = run.half_gaps
    peak = int(np.argmax(hgs))
    monotone = bool(np.all(np.diff(hgs[peak:]) <= 0))
    mesh = run.final_mesh
    cent = mesh.vertices[mesh.elements].mean(axis=1)
    near_corner = np.linalg.norm(cent, axis=1) <= 0.25
    near_source = np.linalg.norm(cent - np.array([0.25, 0.5]), axis=1) <= 0.25
    frac = float(np.mean(near_corner | near_source))
    ok = monotone and frac >= 0.30 and run.converged
    _report(5, ok, f"(monotone={monotone}, concentrated={frac:.0%}, "
                   f"nel={mesh.n_elements})")
    assert monotone
    assert frac >= 0.30
    assert run.converged


# ---------------------------------------------------------------------------
# Criterion 6: reconstruction certificate suite
# ---------------------------------------------------------------------------

def test_criterion_6_reconstruction_certificates():
    cases = []
    # example1 s1 and the band-carrying s2 adjoint, on a refined mesh
    for pid, p, lvl in (("example1_s1", 1, 1), ("example1_s2", 2, 1)):
        prob = builtin(pid)
        mesh = unit_square_crisscross(lvl)
        cases.append((prob.data, prob.out, mesh, p))
    prob = builtin("example2_s1")
    mesh = refine_bisection(prob.initial_mesh(), range(6))
    mesh = refine_bisection(mesh, range(mesh.n_elements))
    cases.append((prob.data, prob.out, mesh, 2))

    worst = {}
    for data, out, mesh, p in cases:
        for optimize in (False, True):
            _, _, pp, ap, ws = build_pair(mesh, data, out, p=p,
                                          optimize=optimize)
            for pair, dat in ((pp, data), (ap, out.adjoint_data())):
                rec = evaluate(ws, *pair, dat)
                for k, v in flux_residuals(ws, rec).items():
                    worst[k] = max(worst.get(k, 0.0), v)
                for k, v in potential_residuals(ws, rec).items():
                    worst[k] = max(worst.get(k, 0.0), v)
    ok = all(v <= 1e-10 for v in worst.values())
    _report(6, ok, f"(worst residuals: " +
            ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + ")")
    assert ok, worst


# ---------------------------------------------------------------------------
# Criterion 7: polynomial exactness oracle
# ---------------------------------------------------------------------------

def _poly_case(p):
    """Manufactured u = (x+2y)^p, xi = (2x-y)^p with a Neumann left edge."""
    u = lambda x, y: (x + 2 * y) ** p
    xi = lambda x, y: (2 * x - y) ** p
    if p >= 2:
        f = lambda x, y: -5.0 * p * (p - 1) * (x + 2 * y) ** (p - 2)
        f_O = lambda x, y: -5.0 * p * (p - 1) * (2 * x - y) ** (p - 2)
    else:
        f = f_O = zero
    g_N = lambda x, y: p * (x + 2 * y) ** (p - 1)          # du/dx at x=0
    g_N_O = lambda x, y: -2.0 * p * (2 * x - y) ** (p - 1)  # -(dxi/dx) at x=0
    data = ProblemData(f=f, g_D=u, g_N=g_N)
    out = OutputFunctional(f_O=f_O, g_D_O=xi, g_N_O=g_N_O)
    grad_u = lambda x, y: np.stack([p * (x + 2 * y) ** (p - 1) + 0 * x,
                                    2 * p * (x + 2 * y) ** (p - 1) + 0 * x],
                                   axis=-1)
    return data, out, u, grad_u


def _exact_output_oracle(mesh, p, out, u, grad_u):
    """Quadrature evaluation of s = l_O(u, q) from the exact fields."""
    ws = Workspace(mesh, p + 2)
    pts = ws.qphys
    val = float(np.sum(ws.integrate_elementwise(
        np.broadcast_to(out.f_O(pts[..., 0], pts[..., 1]), pts.shape[:-1])
        * u(pts[..., 0], pts[..., 1]))))
    for i in np.nonzero(mesh.facet_tag == DIRICHLET)[0]:
        e = ws.facet_points(i)
        g = np.broadcast_to(out.g_D_O(e[:, 0], e[:, 1]), (ws.nqe,))
        qn = -grad_u(e[:, 0], e[:, 1]) @ mesh.facet_normals[i]
        val += float(np.sum(g * qn * ws.ew) * ws.facet_len[i])
    for i in np.nonzero(mesh.facet_tag == 2)[0]:
        e = ws.facet_points(i)
        g = np.broadcast_to(out.g_N_O(e[:, 0], e[:, 1]), (ws.nqe,))
        val += float(np.sum(g * u(e[:, 0], e[:, 1]) * ws.ew) * ws.facet_len[i])
    return val


def test_criterion_7_polynomial_exactness():
    failures = []
    for p in (1, 2, 3):
        data, out, u, grad_u = _poly_case(p)
        for lvl in range(3):
            mesh = mixed_square(lvl)
            s = _exact_output_oracle(mesh, p, out, u, grad_u)
            res = run_pipeline(mesh, data, out, p=p)
            tol = 1e-9 * (1 + abs(s))
            if abs(s - res.s_tilde) > tol:
                failures.append(f"p={p} lvl={lvl}: |s - s~| "
                                f"{abs(s - res.s_tilde):.2e}")
            if res.half_gap > tol:
                failures.append(f"p={p} lvl={lvl}: half-gap "
                                f"{res.half_gap:.2e}")
    ok = _report(7, not failures, f"({len(failures)} failures)")
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 8: cross-route oracle
# ---------------------------------------------------------------------------

def test_criterion_8_route_agreement():
    prob = builtin("example2_s1")
    mesh = prob.initial_mesh()
    failures = []
    for lvl in range(4):
        _, _, pp, ap, ws = build_pair(mesh, prob.data, prob.out, p=2)
        r1 = exact_equilibration_bounds(ws, pp, ap, prob.data, prob.out)
        r2 = compute_bounds(ws, pp, ap, prob.data, prob.out.adjoint_data())
        scale = abs(r2.s_minus) + abs(r2.s_plus)
        if abs(r1.s_minus - r2.s_minus) > 1e-12 * scale or \
                abs(r1.s_plus - r2.s_plus) > 1e-12 * scale:
            failures.append(f"level {lvl}: disagreement "
                            f"{abs(r1.s_minus - r2.s_minus):.2e} / "
                            f"{abs(r1.s_plus - r2.s_plus):.2e}")
        mesh = refine_bisection(mesh, range(mesh.n_elements))
    ok = _report(8, not failures, f"({len(failures)} failures)")
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 9: homogeneity of the certified interval
# ---------------------------------------------------------------------------

def test_criterion_9_homogeneity():
    prob = builtin("example1_s1")
    mesh = unit_square_crisscross(1)  # 64 elements
    c = 7.0
    out7 = OutputFunctional(f_O=lambda x, y: c * np.ones_like(
        np.asarray(x, dtype=float)))
    r1 = run_pipeline(mesh, prob.data, prob.out, p=2)
    r7 = run_pipeline(mesh, prob.data, out7, p=2)
    errs = [abs(r7.s_minus - c * r1.s_minus),
            abs(r7.s_plus - c * r1.s_plus),
            abs(r7.s_tilde - c * r1.s_tilde)]
    scale = 1 + c * abs(r1.s_tilde)
    ok = all(e <= 1e-12 * scale for e in errs)
    _report(9, ok, f"(max deviation {max(errs):.2e})")
    assert ok, errs
