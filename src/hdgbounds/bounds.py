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
is the interval midpoint.  compute_bounds takes the interior jumps of both
pairs at once, then evaluates and audits one pair at a time, into a record
of only what kappa, eta and S read (reconstruct.evaluate).

q~ and u~ are polynomials (RT^p in [P^{p+1}]^2, P^{p+1}) but for a band
extension, whose gradient g splits into its projection Pi g onto
[P^{p+1}]^2 and the remainder g - Pi g, orthogonal to it
(reconstruct.BandCorrection).  The records hold the polynomial parts of
a, b and the potential gradients, Pi g included, as coefficients in the
mapped orthonormal basis, and the remainders at the volume quadrature
points of the band elements.  So kappa, the flux term ||b -/+ kappa a||_K
of eta and the term -(nu grad u~, grad xi~) of S are sums over
coefficients (Parseval) plus the quadrature of the remainders alone.
b -/+ kappa a is formed in both parts and then squared, never expanded
into ||b||^2 -/+ 2 kappa (a, b) + kappa^2 ||a||^2, which cancels where
b ~ +/- kappa a.  The data terms of S and the data oscillations stay on
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reconstruct as rc
from .hdg import ProblemData
from .workspace import Workspace

__all__ = [
    "EtaBreakdown",
    "BoundsResult",
    "poincare_constants",
    "compute_kappa",
    "compute_eta",
    "compute_bounds",
]

_DEGENERATE_TOL = 1e-12
_CERTIFICATE_TOL = 1e-9


@dataclass
class EtaBreakdown:
    """The three terms of the local bound contributions, (2, ne) each: row 0
    of eta^-, row 1 of eta^+."""

    flux: np.ndarray
    osc_div: np.ndarray
    osc_neu: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """eta^- (row 0) and eta^+ (row 1) per element."""
        return self.flux + self.osc_div + self.osc_neu


@dataclass
class BoundsResult:
    """Certified interval [s_minus, s_plus] with bookkeeping.

    s_tilde is the interval midpoint; gap_elements are the per-element
    bound-gap contributions, summing to s_plus - s_minus.  half_gap is half
    their sum as computed, not 0.5 (s_plus - s_minus), whose difference of
    two nearly equal numbers loses the digits of a small gap to the
    round-off of s_plus and s_minus, so every gap test and report reads it.
    """

    s_minus: float
    s_plus: float
    kappa: float
    gap_elements: np.ndarray
    half_gap: float
    kappa_degenerate: bool = False
    s_h: float | None = None  # the raw HDG output, set by run_pipeline

    @property
    def s_tilde(self) -> float:
        return 0.5 * (self.s_plus + self.s_minus)

    def contains(self, s: float, slack: float = 0.0) -> bool:
        return self.s_minus - slack <= s <= self.s_plus + slack


# ---------------------------------------------------------------------------
# Poincare / trace constants
# ---------------------------------------------------------------------------

def poincare_constants(ws: Workspace):
    """Elementwise constants of the local Poincare and trace inequalities:
    C1 = h_K / pi, and per facet
    C2 = sqrt( |e|/(2|K|) * (h_K/pi) * (2 max_{x in e}|x - x_e| + 2 h_K/pi) ),
    from the workspace's edge lengths elen, diameters h and det = 2|K|.

    Returns (C1 (ne,), C2 (ne, 3)) with C2 indexed by local edge.
    """
    # farthest point of local edge ell (vertices ell, ell+1) from the
    # opposite vertex ell+2: the longer of the two other edges
    reach = np.maximum(np.roll(ws.elen, -1, axis=1),
                       np.roll(ws.elen, -2, axis=1))
    c1 = ws.h / np.pi
    c2sq = (ws.elen / ws.det[:, None] * c1[:, None]
            * (2.0 * reach + (2.0 * c1)[:, None]))
    return c1, np.sqrt(c2sq)


# ---------------------------------------------------------------------------
# Audited records and kappa
# ---------------------------------------------------------------------------

def _audited_records(ws: Workspace, primal_pair, adjoint_pair,
                     data: ProblemData, adata: ProblemData):
    """Evaluate and audit the primal pair with its data, then the adjoint one
    with the adjoint data f_O, g_D_O, -g_N_O (OutputFunctional.adjoint_data),
    their interior jumps taken at once; RuntimeError once a certificate fails."""
    pairs, recs = (primal_pair, adjoint_pair), []
    for pair, d, jumps in zip(pairs, (data, adata), rc.interior_jumps(ws, pairs)):
        rec = rc.evaluate(ws, *pair, d, jumps)
        fres = rc.flux_residuals(ws, rec)
        pres = rc.potential_residuals(ws, rec)
        # "not <=" so that a NaN residual fails the gate too
        if not all(r <= _CERTIFICATE_TOL for r in {**fres, **pres}.values()):
            raise RuntimeError(
                f"reconstruction certificate violated: {fres} {pres}")
        recs.append(rec)
    return recs


def _oscillating_data(ws: Workspace, rec: rc.EvaluatedPair,
                      suffix: str = "") -> list[str]:
    """Names of the record's data that are not elementwise polynomials of
    degree <= p up to round-off: f against Pi_p f relative to ||f||, g_N
    against Pi_e g_N relative to max |g_N|."""
    found = []
    osc = np.sqrt(ws.integrate_elementwise(rec.f_osc ** 2).sum())
    if not osc <= 1e-11 * np.sqrt(ws.integrate_elementwise(rec.f ** 2).sum()):
        found.append(f"f{suffix} (oscillation {osc:.2e})")
    if not np.abs(rec.g_N - rec.g_N_proj).max(initial=0.0) \
            <= 1e-10 * np.abs(rec.g_N).max(initial=0.0):
        found.append(f"g_N{suffix}")
    return found


def _band_rem(ws: Workspace, rec: rc.EvaluatedPair,
              band: np.ndarray) -> np.ndarray:
    """The record's band remainder g - Pi g on the elements band, ascending
    and holding rec.band, and zero on the others, (len(band), nq, 2)."""
    out = np.zeros((len(band), ws.nq, 2))
    out[np.searchsorted(band, rec.band)] = rec.band_rem
    return out


def _energy_sq(ws: Workspace, coeffs: np.ndarray, band: np.ndarray,
               rem: np.ndarray) -> np.ndarray:
    """Elementwise (nu^-1 v, v)_K of a vector field v whose polynomial part
    has the mapped-modal coefficients coeffs (ne, 2, nm) and whose rest,
    orthogonal to it, is rem at the volume quadrature points of the
    elements band, (len(band), nq, 2): the sum of the squared coefficients
    plus the quadrature of |rem|^2."""
    sq = np.einsum("ecm,ecm->e", coeffs, coeffs)
    sq[band] += np.einsum("eqc,eqc,eq->e", rem, rem, ws.wdet[band])
    return sq / ws.nu


def _residual_sq(ws: Workspace, rec: rc.EvaluatedPair) -> float:
    """(nu^-1 v, v) of the record's v = q~ + nu grad u~."""
    return _energy_sq(ws, rec.residual, rec.band,
                      ws.nu[rec.band, None, None] * rec.band_rem).sum()


def compute_kappa(ws: Workspace, primal: rc.EvaluatedPair,
                  adjoint: rc.EvaluatedPair) -> tuple[float, bool]:
    """kappa = ||zeta~ + nu grad xi~|| / ||q~ + nu grad u~|| (global energy
    norms).  A primal residual at round-off relative to ||q~|| gives
    kappa = 1 with the degenerate flag set (the bounds tend to S as
    kappa -> infinity); otherwise an adjoint residual at round-off relative
    to ||zeta~|| gives kappa = 0 with the flag set (they tend to S as
    kappa -> 0).  A zero residual of a zero field counts as round-off."""
    a2 = _residual_sq(ws, primal)
    if np.sqrt(a2) <= _DEGENERATE_TOL * np.sqrt(primal.q_energy):
        return 1.0, True
    b2 = _residual_sq(ws, adjoint)
    if np.sqrt(b2) <= _DEGENERATE_TOL * np.sqrt(adjoint.q_energy):
        return 0.0, True
    return float(np.sqrt(b2 / a2)), False


# ---------------------------------------------------------------------------
# Elementwise eta contributions
# ---------------------------------------------------------------------------

def compute_eta(ws: Workspace, primal: rc.EvaluatedPair,
                adjoint: rc.EvaluatedPair, kappa: float) -> EtaBreakdown:
    """Per-element contributions eta_K^-/+ for the given kappa.

    The data oscillations are measured against the data projections, which
    the audited certificates equate with the flux divergence and normal
    traces.  The adjoint record carries -g_N_O, so its Neumann residual is
    negated.
    """
    a, b = primal.residual, adjoint.residual
    band = np.union1d(primal.band, adjoint.band)
    # the residuals' remainders, nu (g - Pi g)
    ar, br = (ws.nu[band, None, None] * _band_rem(ws, rec, band)
              for rec in (primal, adjoint))
    c1, c2 = poincare_constants(ws)
    d_res, do_res = primal.f_osc, adjoint.f_osc
    n_res = primal.g_N - primal.g_N_proj
    no_res = adjoint.g_N_proj - adjoint.g_N
    w_div = c1 / np.sqrt(ws.nu)
    # C2-weighted Neumann oscillation sums per element
    neu = ws.mesh.neumann_facets
    elems, ells = ws.mesh.facet_elems[neu, 0], ws.mesh.facet_local_edge[neu, 0]
    w_neu = c2[elems, ells] / np.sqrt(ws.nu[elems])

    ne = ws.mesh.n_elements
    eta = EtaBreakdown(np.empty((2, ne)), np.empty((2, ne)), np.empty((2, ne)))
    for row, k in enumerate((-kappa, kappa)):  # eta^- (k = -kappa), eta^+
        eta.flux[row] = np.sqrt(_energy_sq(ws, b + k * a, band, br + k * ar))
        eta.osc_div[row] = w_div * np.sqrt(
            ws.integrate_elementwise((do_res + k * d_res) ** 2))
        eta.osc_neu[row] = np.bincount(elems, w_neu * np.sqrt(np.einsum(
            "ft,ft->f", (no_res - k * n_res) ** 2, ws.neu_weights)), minlength=ne)
    return eta


# ---------------------------------------------------------------------------
# The bounds
# ---------------------------------------------------------------------------

def _core_functional(ws: Workspace, primal: rc.EvaluatedPair,
                     adjoint: rc.EvaluatedPair) -> float:
    """S = (f_O, u~) + <g_N_O, u~>_GN + (f, xi~) - <g_N, xi~>_GN
    - (nu grad u~, grad xi~), with f_O and -g_N_O read from the adjoint
    record; the gradient term is a sum over the records' coefficients plus,
    on the band elements, the quadrature of the product of the remainders,
    which are orthogonal to the polynomial parts."""
    val = float(np.sum(ws.integrate_elementwise(adjoint.f * primal.u)))
    val += float(np.sum(ws.integrate_elementwise(primal.f * adjoint.u)))
    grad = np.einsum("ecm,ecm->e", primal.grad_u, adjoint.grad_u)
    band = np.union1d(primal.band, adjoint.band)
    gu, gx = (_band_rem(ws, rec, band) for rec in (primal, adjoint))
    grad[band] += np.einsum("eqc,eqc,eq->e", gu, gx, ws.wdet[band])
    val -= float(np.sum(grad * ws.nu))
    val -= float(np.sum(primal.u_neu * adjoint.g_N * ws.neu_weights))
    val -= float(np.sum(adjoint.u_neu * primal.g_N * ws.neu_weights))
    return val


def compute_bounds(ws: Workspace, primal_pair, adjoint_pair, data: ProblemData,
                   adata: ProblemData) -> BoundsResult:
    """Guaranteed bounds s_minus <= s <= s_plus for the output functional
    whose adjoint problem has the data adata (OutputFunctional.adjoint_data).

    Each pair and its data are evaluated and audited in turn; a failed
    reconstruction certificate raises RuntimeError.
    kappa is the optimal ratio of the global residual norms (compute_kappa).
    When the primal or the adjoint reconstruction is numerically exact (and
    that problem's data oscillation vanishes), the interval collapses to
    the reconstruction output and the kappa_degenerate flag is set.  An exact adjoint
    reconstruction with oscillating adjoint data admits no optimal kappa
    and raises RuntimeError.
    """
    primal, adjoint = _audited_records(ws, primal_pair, adjoint_pair, data, adata)
    kappa, degenerate = compute_kappa(ws, primal, adjoint)

    s_core = _core_functional(ws, primal, adjoint)
    if degenerate:
        # kappa = 1 stands for the limit kappa -> infinity, 0 for kappa -> 0
        rec, suffix = (primal, "") if kappa > 0 else (adjoint, "_O")
        osc = _oscillating_data(ws, rec, suffix)
        if not osc:
            return BoundsResult(s_minus=s_core, s_plus=s_core, kappa=kappa,
                                gap_elements=np.zeros(ws.mesh.n_elements),
                                half_gap=0.0, kappa_degenerate=True)
        if not kappa > 0:
            raise RuntimeError(
                "the adjoint residual vanishes but the adjoint data oscillate "
                f"in: {', '.join(osc)}; no optimal kappa exists")

    em2, ep2 = compute_eta(ws, primal, adjoint, kappa).total ** 2
    s_minus = s_core - em2.sum() / (4.0 * kappa)
    s_plus = s_core + ep2.sum() / (4.0 * kappa)
    return BoundsResult(s_minus=float(s_minus), s_plus=float(s_plus),
                        kappa=float(kappa),
                        gap_elements=(em2 + ep2) / (4.0 * kappa),
                        half_gap=float((em2 + ep2).sum() / (8.0 * kappa)),
                        kappa_degenerate=degenerate)
