"""Guaranteed output bounds from potential and equilibrated flux
reconstructions of the primal and adjoint problems.

Given reconstruction pairs (u~, q~) and (xi~, zeta~), the certified interval
is built from the elementwise contributions

    eta_K^-  = ||b - kappa a||_K + C1 nu^-1/2 ||do - kappa d||_K
               + sum_e C2 nu^-1/2 ||no + kappa n||_e
    eta_K^+  = ||b + kappa a||_K + C1 nu^-1/2 ||do + kappa d||_K
               + sum_e C2 nu^-1/2 ||no - kappa n||_e

with a = q~ + nu grad u~, b = zeta~ + nu grad xi~, and d, do, n, no the
data-oscillation residuals of f, f_O, g_N, g_N_O against their elementwise
projections.  Then

    s^- = S - (1/4 kappa) sum (eta_K^-)^2,
    s^+ = S + (1/4 kappa) sum (eta_K^+)^2,

where S is the reconstruction output functional; the reported bound average
is the interval midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hdg import OutputFunctional, ProblemData
from .mesh import DIRICHLET, NEUMANN, Mesh
from .workspace import Workspace

__all__ = [
    "EtaBreakdown",
    "BoundsResult",
    "poincare_constants",
    "compute_kappa",
    "compute_eta",
    "compute_bounds",
    "exact_equilibration_bounds",
]

_DEGENERATE_TOL = 1e-12


@dataclass
class EtaBreakdown:
    """Per-element, per-sign terms of the local bound contributions."""

    flux_minus: np.ndarray
    flux_plus: np.ndarray
    osc_div_minus: np.ndarray
    osc_div_plus: np.ndarray
    osc_neu_minus: np.ndarray
    osc_neu_plus: np.ndarray

    @property
    def minus(self) -> np.ndarray:
        return self.flux_minus + self.osc_div_minus + self.osc_neu_minus

    @property
    def plus(self) -> np.ndarray:
        return self.flux_plus + self.osc_div_plus + self.osc_neu_plus


@dataclass
class BoundsResult:
    """Certified interval [s_minus, s_plus] with bookkeeping.

    s_tilde is the interval midpoint; gap_elements are the per-element
    bound-gap contributions, summing to s_plus - s_minus.
    """

    s_minus: float
    s_plus: float
    kappa: float
    gap_elements: np.ndarray
    kappa_degenerate: bool = False
    s_h: Optional[float] = None
    eta: Optional[EtaBreakdown] = None

    @property
    def s_tilde(self) -> float:
        return 0.5 * (self.s_plus + self.s_minus)

    @property
    def half_gap(self) -> float:
        return 0.5 * (self.s_plus - self.s_minus)

    def contains(self, s: float, slack: float = 0.0) -> bool:
        return self.s_minus - slack <= s <= self.s_plus + slack

    def csv_row(self, nel: int, n_edge_dofs: int,
                exact_s: Optional[float] = None) -> str:
        """One CSV_HEADER row; err_s_tilde is empty without an exact output."""
        cells = [str(nel), str(n_edge_dofs)]
        cells += [format(v, ".12e") for v in
                  (self.s_minus, self.s_plus, self.s_tilde, self.half_gap,
                   self.kappa)]
        cells.append(format(self.s_h, ".12e") if self.s_h is not None else "")
        cells.append(format(abs(exact_s - self.s_tilde), ".6e")
                     if exact_s is not None else "")
        return ",".join(cells)


CSV_HEADER = "nel,n_edge_dofs,s_minus,s_plus,s_tilde,half_gap,kappa,s_h,err_s_tilde"


# ---------------------------------------------------------------------------
# Poincare / trace constants
# ---------------------------------------------------------------------------

def poincare_constants(mesh: Mesh):
    """Elementwise constants of the local Poincare and trace inequalities:
    C1 = h_K / pi, and per facet
    C2 = sqrt( |e|/(2|K|) * (h_K/pi) * (2 max_{x in e}|x - x_e| + 2 h_K/pi) ).

    Returns (C1 (ne,), C2 (ne, 3)) with C2 indexed by local edge.
    """
    v = mesh.vertices[mesh.elements]                       # (ne, 3, 2)
    # local edge ell joins vertices ell and ell+1
    edge_length = np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2)
    diameter = edge_length.max(axis=1)
    # farthest point of edge ell from the opposite vertex ell+2: the longer
    # of the two other edges
    reach = np.maximum(np.roll(edge_length, -1, axis=1),
                       np.roll(edge_length, -2, axis=1))
    c1 = diameter / np.pi
    c2sq = (edge_length / (2.0 * mesh.areas()[:, None])
            * (diameter / np.pi)[:, None]
            * (2.0 * reach + (2.0 * diameter / np.pi)[:, None]))
    return c1, np.sqrt(c2sq)


# ---------------------------------------------------------------------------
# Residual fields and kappa
# ---------------------------------------------------------------------------

def _residual_field(pair, ws: Workspace) -> np.ndarray:
    """a = q~ + nu grad u~ at the volume quadrature points, (ne, nq, 2)."""
    flux, pot = pair
    return flux.eval_values(ws) + ws.nu[:, None, None] * pot.eval_grads(ws)


def _energy_sq(ws: Workspace, vals: np.ndarray) -> np.ndarray:
    """Elementwise (nu^-1 v, v)_K for values at quadrature points."""
    return ws.integrate_elementwise(np.sum(vals * vals, axis=2)) / ws.nu


def compute_kappa(primal_pair, adjoint_pair,
                  ws: Workspace) -> tuple[float, bool]:
    """kappa = ||zeta~ + nu grad xi~|| / ||q~ + nu grad u~|| (global energy
    norms).  A numerically exact primal reconstruction gives kappa = 1 with
    the degenerate flag set."""
    a2 = _energy_sq(ws, _residual_field(primal_pair, ws)).sum()
    b2 = _energy_sq(ws, _residual_field(adjoint_pair, ws)).sum()
    scale = np.sqrt(_energy_sq(ws, primal_pair[0].eval_values(ws)).sum()) + 1.0
    if np.sqrt(a2) <= _DEGENERATE_TOL * scale:
        return 1.0, True
    return float(np.sqrt(b2 / a2)), False


# ---------------------------------------------------------------------------
# Elementwise eta contributions
# ---------------------------------------------------------------------------

def _neumann_osc(ws: Workspace, pairs, kappa: float, mode: str,
                 data: ProblemData, out: OutputFunctional) -> tuple[np.ndarray, np.ndarray]:
    """C2-weighted Neumann oscillation sums per element, both signs."""
    mesh = ws.mesh
    ne = mesh.n_elements
    neu_minus = np.zeros(ne)
    neu_plus = np.zeros(ne)
    neu = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    if not len(neu):
        return neu_minus, neu_plus
    _, c2 = poincare_constants(mesh)
    gn = ws.eval_data(data.g_N, ws.ephys[neu])
    gno = ws.eval_data(out.g_N_O, ws.ephys[neu])
    if mode == "projected":
        n_res = gn - ws.facet_proj_p(gn, neu)
        no_res = gno - ws.facet_proj_p(gno, neu)
    else:  # zero-order form: residuals against the actual flux traces
        qf, _ = pairs[0]
        zf, _ = pairs[1]
        n_res = gn - qf.normal_trace(ws, neu, side=0)
        no_res = gno + zf.normal_trace(ws, neu, side=0)
    wlen = ws.ew[None, :] * ws.facet_len[neu, None]
    nm2 = np.einsum("ft,ft->f", (no_res + kappa * n_res) ** 2, wlen)
    np2 = np.einsum("ft,ft->f", (no_res - kappa * n_res) ** 2, wlen)
    se, sl, _ = ws.facet_sides()
    elems, ells = se[neu, 0], sl[neu, 0]
    w = c2[elems, ells] / np.sqrt(ws.nu[elems])
    np.add.at(neu_minus, elems, w * np.sqrt(nm2))
    np.add.at(neu_plus, elems, w * np.sqrt(np2))
    return neu_minus, neu_plus


def compute_eta(primal_pair, adjoint_pair, data: ProblemData,
                out: OutputFunctional, ws: Workspace, kappa: float,
                mode: str = "projected") -> EtaBreakdown:
    """Per-element contributions eta_K^-/+ for the given kappa.

    mode="projected" uses the data projections (the working estimator);
    mode="zero-order" evaluates the residuals against the actual flux
    divergence and traces, for audit purposes.
    """
    if mode not in ("projected", "zero-order"):
        raise ValueError(f"unknown eta mode {mode!r}")
    a = _residual_field(primal_pair, ws)
    b = _residual_field(adjoint_pair, ws)
    flux_minus = np.sqrt(_energy_sq(ws, b - kappa * a))
    flux_plus = np.sqrt(_energy_sq(ws, b + kappa * a))

    c1, _ = poincare_constants(ws.mesh)
    fvals = ws.eval_data(data.f)
    fovals = ws.eval_data(out.f_O)
    if mode == "projected":
        d_res = fvals - ws.proj_p(fvals)
        do_res = fovals - ws.proj_p(fovals)
    else:
        d_res = fvals - primal_pair[0].eval_divergence(ws)
        do_res = fovals - adjoint_pair[0].eval_divergence(ws)
    w = c1 / np.sqrt(ws.nu)
    osc_div_minus = w * np.sqrt(ws.integrate_elementwise((do_res - kappa * d_res) ** 2))
    osc_div_plus = w * np.sqrt(ws.integrate_elementwise((do_res + kappa * d_res) ** 2))

    neu_minus, neu_plus = _neumann_osc(ws, (primal_pair, adjoint_pair),
                                       kappa, mode, data, out)
    return EtaBreakdown(flux_minus=flux_minus, flux_plus=flux_plus,
                        osc_div_minus=osc_div_minus, osc_div_plus=osc_div_plus,
                        osc_neu_minus=neu_minus, osc_neu_plus=neu_plus)


# ---------------------------------------------------------------------------
# The bounds
# ---------------------------------------------------------------------------

def _core_functional(primal_pair, adjoint_pair, data, out, ws: Workspace) -> float:
    """S = (f_O, u~) + <g_N_O, u~>_GN + (f, xi~) - <g_N, xi~>_GN
    - (nu grad u~, grad xi~)."""
    _, pot_u = primal_pair
    _, pot_x = adjoint_pair
    uvals = pot_u.eval_values(ws)
    xvals = pot_x.eval_values(ws)
    val = float(np.sum(ws.integrate_elementwise(ws.eval_data(out.f_O) * uvals)))
    val += float(np.sum(ws.integrate_elementwise(ws.eval_data(data.f) * xvals)))
    gu = pot_u.eval_grads(ws)
    gx = pot_x.eval_grads(ws)
    val -= float(np.sum(ws.integrate_elementwise(np.sum(gu * gx, axis=2)) * ws.nu))
    neu = np.nonzero(ws.mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        wlen = ws.ew[None, :] * ws.facet_len[neu, None]
        gno = ws.eval_data(out.g_N_O, ws.ephys[neu])
        gn = ws.eval_data(data.g_N, ws.ephys[neu])
        val += float(np.sum(pot_u.trace_values(ws, neu) * gno * wlen))
        val -= float(np.sum(pot_x.trace_values(ws, neu) * gn * wlen))
    return val


def _primal_oscillation_negligible(data: ProblemData, ws: Workspace) -> bool:
    fvals = ws.eval_data(data.f)
    res = fvals - ws.proj_p(fvals)
    scale = np.sqrt(ws.integrate_elementwise(fvals ** 2).sum()) + 1.0
    osc = np.sqrt(ws.integrate_elementwise(res ** 2).sum())
    if osc > 1e-11 * scale:
        return False
    neu = np.nonzero(ws.mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        gn = ws.eval_data(data.g_N, ws.ephys[neu])
        res = gn - ws.facet_proj_p(gn, neu)
        if np.abs(res).max() > 1e-10 * (1.0 + np.abs(gn).max()):
            return False
    return True


def compute_bounds(primal_pair, adjoint_pair, data: ProblemData,
                   out: OutputFunctional, ws: Workspace,
                   kappa: float | None = None, mode: str = "projected",
                   s_h: float | None = None) -> BoundsResult:
    """Guaranteed bounds s_minus <= s <= s_plus for the output functional.

    kappa=None selects the optimal ratio of the global residual norms.  When
    the primal reconstruction is numerically exact (and the primal data
    oscillation vanishes), the interval collapses to the reconstruction
    output and the kappa_degenerate flag is set.
    """
    degenerate = False
    if kappa is None:
        kappa, degenerate = compute_kappa(primal_pair, adjoint_pair, ws)
    if not kappa > 0:
        raise ValueError("kappa must be positive")

    s_core = _core_functional(primal_pair, adjoint_pair, data, out, ws)
    if degenerate and _primal_oscillation_negligible(data, ws):
        return BoundsResult(s_minus=s_core, s_plus=s_core, kappa=kappa,
                            gap_elements=np.zeros(ws.mesh.n_elements),
                            kappa_degenerate=True, s_h=s_h)

    eta = compute_eta(primal_pair, adjoint_pair, data, out, ws, kappa, mode)
    em2 = eta.minus ** 2
    ep2 = eta.plus ** 2
    s_minus = s_core - em2.sum() / (4.0 * kappa)
    s_plus = s_core + ep2.sum() / (4.0 * kappa)
    return BoundsResult(s_minus=float(s_minus), s_plus=float(s_plus),
                        kappa=float(kappa),
                        gap_elements=(em2 + ep2) / (4.0 * kappa),
                        kappa_degenerate=degenerate, s_h=s_h, eta=eta)


# ---------------------------------------------------------------------------
# Exact-equilibration route (polynomial data only)
# ---------------------------------------------------------------------------

def _audit_polynomial_data(data: ProblemData, out: OutputFunctional,
                           ws: Workspace) -> None:
    msgs = []
    for name, fun in (("f", data.f), ("f_O", out.f_O)):
        vals = ws.eval_data(fun)
        res = vals - ws.proj_p(vals)
        scale = np.sqrt(ws.integrate_elementwise(vals ** 2).sum()) + 1.0
        err = np.sqrt(ws.integrate_elementwise(res ** 2).max())
        if err > 1e-10 * scale:
            msgs.append(f"{name} (oscillation {err:.2e})")
    neu = np.nonzero(ws.mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        for name, fun in (("g_N", data.g_N), ("g_N_O", out.g_N_O)):
            vals = ws.eval_data(fun, ws.ephys[neu])
            res = vals - ws.facet_proj_p(vals, neu)
            if np.abs(res).max() > 1e-10 * (1.0 + np.abs(vals).max()):
                msgs.append(name)
    if msgs:
        raise ValueError(
            "exact-equilibration bounds require elementwise-polynomial data "
            "of degree <= p; detected oscillation in: " + ", ".join(msgs)
            + ". Use compute_bounds, which accounts for data oscillation.")


def exact_equilibration_bounds(primal_pair, adjoint_pair, data: ProblemData,
                    out: OutputFunctional, ws: Workspace,
                    s_h: float | None = None) -> BoundsResult:
    """Bounds from exactly equilibrated reconstructions:

        s_tilde = l_O(u~, q~) + 1/2 (nu^-1 (q~ + nu grad u~), zeta~ - nu grad xi~)
        half gap = 1/2 ||q~ + nu grad u~|| ||zeta~ + nu grad xi~||

    Refuses to run when the data oscillation audit detects non-polynomial
    data (the guarantee would be lost)."""
    flux_p, pot_u = primal_pair
    flux_a, pot_x = adjoint_pair
    mesh = ws.mesh
    _audit_polynomial_data(data, out, ws)

    # l_O(u~, q~)
    uvals = pot_u.eval_values(ws)
    val = float(np.sum(ws.integrate_elementwise(ws.eval_data(out.f_O) * uvals)))
    dfac = np.nonzero(mesh.facet_tag == DIRICHLET)[0]
    if len(dfac):
        g = ws.eval_data(out.g_D_O, ws.ephys[dfac])
        tr = flux_p.normal_trace(ws, dfac, side=0)  # canonical = outward here
        val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[dfac]))
    neu = np.nonzero(mesh.facet_tag == NEUMANN)[0]
    if len(neu):
        g = ws.eval_data(out.g_N_O, ws.ephys[neu])
        tru = pot_u.trace_values(ws, neu)
        val += float(np.einsum("ft,ft,t,f->", g, tru, ws.ew, ws.facet_len[neu]))

    a = _residual_field(primal_pair, ws)
    b = _residual_field(adjoint_pair, ws)
    zeta_minus = adjoint_pair[0].eval_values(ws) \
        - ws.nu[:, None, None] * pot_x.eval_grads(ws)
    cross = 0.5 * float(np.sum(ws.integrate_elementwise(
        np.sum(a * zeta_minus, axis=2)) / ws.nu))
    a2 = _energy_sq(ws, a)
    b2 = _energy_sq(ws, b)
    half_gap = 0.5 * np.sqrt(a2.sum() * b2.sum())
    s_tilde = val + cross
    gap_elements = np.full(mesh.n_elements, 2.0 * half_gap / mesh.n_elements)
    kappa = float(np.sqrt(b2.sum() / a2.sum())) if a2.sum() > 0 else 1.0
    return BoundsResult(s_minus=float(s_tilde - half_gap),
                        s_plus=float(s_tilde + half_gap),
                        kappa=kappa, gap_elements=gap_elements, s_h=s_h)
