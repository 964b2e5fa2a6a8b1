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
is the interval midpoint.  compute_bounds evaluates each pair and its data
once (reconstruct.evaluate), audits the certificates on those records, and
reads kappa, eta and S from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import reconstruct as rc
from .hdg import OutputFunctional, ProblemData
from .mesh import Mesh
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
_CERTIFICATE_TOL = 1e-9


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
# Audited records and kappa
# ---------------------------------------------------------------------------

def _audited_records(primal_pair, adjoint_pair, data: ProblemData,
                     out: OutputFunctional, ws: Workspace):
    """Evaluate both pairs once (the adjoint one with the adjoint data
    f_O, g_D_O, -g_N_O) and raise RuntimeError unless every projected
    certificate holds to _CERTIFICATE_TOL."""
    recs = (rc.evaluate(*primal_pair, data, ws),
            rc.evaluate(*adjoint_pair, out.adjoint_data(), ws))
    for rec in recs:
        fres = rc.flux_residuals(rec, ws)
        pres = rc.potential_residuals(rec, ws)
        # "not <=" so that a NaN residual fails the gate too
        if not all(r <= _CERTIFICATE_TOL for r in {**fres, **pres}.values()):
            raise RuntimeError(
                f"reconstruction certificate violated: {fres} {pres}")
    return recs


def _oscillating_data(rec: rc.EvaluatedPair, ws: Workspace,
                      suffix: str = "") -> list[str]:
    """Names of the record's data that are not elementwise polynomials of
    degree <= p up to round-off: f against Pi_p f relative to ||f||, g_N
    against Pi_e g_N relative to max |g_N|."""
    found = []
    osc = np.sqrt(ws.integrate_elementwise((rec.f - rec.f_proj) ** 2).sum())
    if not osc <= 1e-11 * np.sqrt(ws.integrate_elementwise(rec.f ** 2).sum()):
        found.append(f"f{suffix} (oscillation {osc:.2e})")
    if not np.abs(rec.g_N - rec.g_N_proj).max(initial=0.0) \
            <= 1e-10 * np.abs(rec.g_N).max(initial=0.0):
        found.append(f"g_N{suffix}")
    return found


def _energy_sq(ws: Workspace, vals: np.ndarray) -> np.ndarray:
    """Elementwise (nu^-1 v, v)_K for values at quadrature points."""
    return ws.integrate_elementwise(vals[..., 0] * vals[..., 0]
                                    + vals[..., 1] * vals[..., 1]) / ws.nu


def compute_kappa(primal: rc.EvaluatedPair, adjoint: rc.EvaluatedPair,
                  ws: Workspace) -> tuple[float, bool]:
    """kappa = ||zeta~ + nu grad xi~|| / ||q~ + nu grad u~|| (global energy
    norms).  A primal residual at round-off relative to ||q~|| gives
    kappa = 1 with the degenerate flag set (the bounds tend to S as
    kappa -> infinity); otherwise an adjoint residual at round-off relative
    to ||zeta~|| gives kappa = 0 with the flag set (they tend to S as
    kappa -> 0).  A zero residual of a zero field counts as round-off."""
    a2 = _energy_sq(ws, primal.residual).sum()
    if np.sqrt(a2) <= _DEGENERATE_TOL * np.sqrt(_energy_sq(ws, primal.q).sum()):
        return 1.0, True
    b2 = _energy_sq(ws, adjoint.residual).sum()
    if np.sqrt(b2) <= _DEGENERATE_TOL * np.sqrt(_energy_sq(ws, adjoint.q).sum()):
        return 0.0, True
    return float(np.sqrt(b2 / a2)), False


# ---------------------------------------------------------------------------
# Elementwise eta contributions
# ---------------------------------------------------------------------------

def compute_eta(primal: rc.EvaluatedPair, adjoint: rc.EvaluatedPair,
                ws: Workspace, kappa: float,
                mode: str = "projected") -> EtaBreakdown:
    """Per-element contributions eta_K^-/+ for the given kappa.

    mode="projected" uses the data projections (the working estimator);
    mode="zero-order" evaluates the residuals against the actual flux
    divergence and traces, the paper's zero-order form.  compute_bounds
    audits the projected certificates in both modes.  The adjoint record
    carries -g_N_O, so its Neumann residual is negated.
    """
    if mode not in ("projected", "zero-order"):
        raise ValueError(f"unknown eta mode {mode!r}")
    a, b = primal.residual, adjoint.residual
    flux_minus = np.sqrt(_energy_sq(ws, b - kappa * a))
    flux_plus = np.sqrt(_energy_sq(ws, b + kappa * a))

    c1, c2 = poincare_constants(ws.mesh)
    if mode == "projected":
        d_res = primal.f - primal.f_proj
        do_res = adjoint.f - adjoint.f_proj
        n_res = primal.g_N - primal.g_N_proj
        no_res = adjoint.g_N_proj - adjoint.g_N
    else:
        d_res = primal.f - primal.div
        do_res = adjoint.f - adjoint.div
        n_res = primal.g_N - primal.qn
        no_res = adjoint.qn - adjoint.g_N
    w = c1 / np.sqrt(ws.nu)
    osc_div_minus = w * np.sqrt(ws.integrate_elementwise((do_res - kappa * d_res) ** 2))
    osc_div_plus = w * np.sqrt(ws.integrate_elementwise((do_res + kappa * d_res) ** 2))

    # C2-weighted Neumann oscillation sums per element
    neu = ws.mesh.neumann_facets
    wlen = ws.ew[None, :] * ws.facet_len[neu, None]
    nm2 = np.einsum("ft,ft->f", (no_res + kappa * n_res) ** 2, wlen)
    np2 = np.einsum("ft,ft->f", (no_res - kappa * n_res) ** 2, wlen)
    elems, ells = ws.mesh.facet_elems[neu, 0], ws.mesh.facet_local_edge[neu, 0]
    w = c2[elems, ells] / np.sqrt(ws.nu[elems])
    neu_minus = np.zeros(ws.mesh.n_elements)
    neu_plus = np.zeros(ws.mesh.n_elements)
    np.add.at(neu_minus, elems, w * np.sqrt(nm2))
    np.add.at(neu_plus, elems, w * np.sqrt(np2))
    return EtaBreakdown(flux_minus=flux_minus, flux_plus=flux_plus,
                        osc_div_minus=osc_div_minus, osc_div_plus=osc_div_plus,
                        osc_neu_minus=neu_minus, osc_neu_plus=neu_plus)


# ---------------------------------------------------------------------------
# The bounds
# ---------------------------------------------------------------------------

def _core_functional(primal: rc.EvaluatedPair, adjoint: rc.EvaluatedPair,
                     ws: Workspace) -> float:
    """S = (f_O, u~) + <g_N_O, u~>_GN + (f, xi~) - <g_N, xi~>_GN
    - (nu grad u~, grad xi~), with f_O and -g_N_O read from the adjoint
    record."""
    val = float(np.sum(ws.integrate_elementwise(adjoint.f * primal.u)))
    val += float(np.sum(ws.integrate_elementwise(primal.f * adjoint.u)))
    gu, gx = primal.grad_u, adjoint.grad_u
    val -= float(np.sum(ws.integrate_elementwise(
        gu[..., 0] * gx[..., 0] + gu[..., 1] * gx[..., 1]) * ws.nu))
    wlen = ws.ew[None, :] * ws.facet_len[ws.mesh.neumann_facets, None]
    val -= float(np.sum(primal.u_neu * adjoint.g_N * wlen))
    val -= float(np.sum(adjoint.u_neu * primal.g_N * wlen))
    return val


def compute_bounds(primal_pair, adjoint_pair, data: ProblemData,
                   out: OutputFunctional, ws: Workspace,
                   kappa: float | None = None, mode: str = "projected",
                   s_h: float | None = None) -> BoundsResult:
    """Guaranteed bounds s_minus <= s <= s_plus for the output functional.

    Each pair and its data are evaluated once; the reconstruction
    certificates are audited first (the projected ones, in either mode),
    and a failed one raises RuntimeError.  kappa=None selects the optimal
    ratio of the global residual norms.  When the primal or the adjoint
    reconstruction is numerically exact (and that problem's data
    oscillation vanishes), the interval collapses to the reconstruction
    output and the kappa_degenerate flag is set.  An exact adjoint
    reconstruction with oscillating adjoint data admits no optimal kappa
    and raises RuntimeError; an explicit kappa <= 0 raises ValueError.
    """
    primal, adjoint = _audited_records(primal_pair, adjoint_pair, data, out, ws)
    degenerate = False
    if kappa is None:
        kappa, degenerate = compute_kappa(primal, adjoint, ws)
    elif not kappa > 0:
        raise ValueError("kappa must be positive")

    s_core = _core_functional(primal, adjoint, ws)
    if degenerate:
        # kappa = 1 stands for the limit kappa -> infinity, 0 for kappa -> 0
        rec, suffix = (primal, "") if kappa > 0 else (adjoint, "_O")
        osc = _oscillating_data(rec, ws, suffix)
        if not osc:
            return BoundsResult(s_minus=s_core, s_plus=s_core, kappa=kappa,
                                gap_elements=np.zeros(ws.mesh.n_elements),
                                kappa_degenerate=True, s_h=s_h)
        if not kappa > 0:
            raise RuntimeError(
                "the adjoint residual vanishes but the adjoint data oscillate "
                f"in: {', '.join(osc)}; no optimal kappa exists, pass one")

    eta = compute_eta(primal, adjoint, ws, kappa, mode)
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

def exact_equilibration_bounds(primal_pair, adjoint_pair, data: ProblemData,
                    out: OutputFunctional, ws: Workspace,
                    s_h: float | None = None) -> BoundsResult:
    """Bounds from exactly equilibrated reconstructions:

        s_tilde = l_O(u~, q~) + 1/2 (nu^-1 (q~ + nu grad u~), zeta~ - nu grad xi~)
        half gap = 1/2 ||q~ + nu grad u~|| ||zeta~ + nu grad xi~||

    Audits the certificates as compute_bounds does, and refuses to run when
    the data oscillation audit detects non-polynomial data (the guarantee
    would be lost)."""
    primal, adjoint = _audited_records(primal_pair, adjoint_pair, data, out, ws)
    msgs = _oscillating_data(primal, ws) + _oscillating_data(adjoint, ws, "_O")
    if msgs:
        raise ValueError(
            "exact-equilibration bounds require elementwise-polynomial data "
            "of degree <= p; detected oscillation in: " + ", ".join(msgs)
            + ". Use compute_bounds, which accounts for data oscillation.")

    # l_O(u~, q~); the adjoint record carries -g_N_O
    mesh = ws.mesh
    val = float(np.sum(ws.integrate_elementwise(adjoint.f * primal.u)))
    dfac = mesh.dirichlet_facets
    g = ws.eval_data(out.g_D_O, ws.ephys[dfac])
    tr = primal_pair[0].normal_trace(ws, dfac, side=0)  # canonical = outward here
    val += float(np.einsum("ft,ft,t,f->", g, tr, ws.ew, ws.facet_len[dfac]))
    val -= float(np.einsum("ft,ft,t,f->", adjoint.g_N, primal.u_neu, ws.ew,
                           ws.facet_len[mesh.neumann_facets]))

    a, b = primal.residual, adjoint.residual
    zeta_minus = adjoint.q - ws.nu[:, None, None] * adjoint.grad_u
    cross = 0.5 * float(np.sum(ws.integrate_elementwise(
        a[..., 0] * zeta_minus[..., 0] + a[..., 1] * zeta_minus[..., 1]) / ws.nu))
    a2 = _energy_sq(ws, a)
    b2 = _energy_sq(ws, b)
    half_gap = 0.5 * np.sqrt(a2.sum() * b2.sum())
    s_tilde = val + cross
    gap_elements = np.full(mesh.n_elements, 2.0 * half_gap / mesh.n_elements)
    kappa = float(np.sqrt(b2.sum() / a2.sum())) if a2.sum() > 0 else 1.0
    return BoundsResult(s_minus=float(s_tilde - half_gap),
                        s_plus=float(s_tilde + half_gap),
                        kappa=kappa, gap_elements=gap_elements, s_h=s_h)
