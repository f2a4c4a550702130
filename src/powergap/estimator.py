"""Inclusion-size bounds from one boundary measurement pair.

The theory gives |D| bracketed by constants times |Re dW| / Re W'0 with
non-constructive constants, so the constants here are calibrated on a
family of scenes with known inclusion area and then frozen for held-out
scenes. The fatness condition gates only the upper bound; when it fails
the upper bound is reported as conditional rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .energy import PowerReport
from .errors import DegenerateMeasurementError, StructuralError
from .geometry import _norm, erode, region_area
from .solver import NeumannData, Solution

__all__ = [
    "SizeEstimate",
    "SizeMeasurement",
    "CalibrationResult",
    "check_fatness",
    "interior_gradient_sup",
    "estimate_size",
    "calibrate_constants",
    "surrogate_size_constants",
    "boundary_data_norm_ratio",
]


# Re W'0 at or below which `estimate_size` refuses: no power was measured.
_W0_FREE_TOL = 1e-12

# |Re dW| / |Re W'0| at or below which `calibrate_constants` drops a member.
_GAP_REL_TOL = 1e-8


@dataclass(frozen=True)
class SizeEstimate:
    delta_w_re: float
    w0_free_re: float
    lower: float
    upper: float
    true_area: Optional[float]
    fatness_ok: bool
    upper_conditional: bool
    constants_source: str
    constants: tuple[float, float]

    def brackets_truth(self) -> Optional[bool]:
        if self.true_area is None:
            return None
        return bool(self.lower <= self.true_area <= self.upper)

    def as_dict(self) -> dict:
        return {
            "delta_w_re": self.delta_w_re,
            "w0_free_re": self.w0_free_re,
            "lower": self.lower,
            "upper": self.upper,
            "true_area": self.true_area,
            "fatness_ok": self.fatness_ok,
            "upper_conditional": self.upper_conditional,
            "constants_source": self.constants_source,
        }


def check_fatness(scene) -> dict:
    """Erosion-area test |D_{d1}| >= |D|/2, at the scene's d1."""
    if scene.d1 <= 0:
        raise ValueError("d1 must be positive")
    region = scene.inclusion_region()
    area = region_area(region)
    eroded_area = region_area(erode(region, scene.d1)) if area > 0 else 0.0
    ratio = eroded_area / area if area > 0 else 0.0
    return {"passed": bool(ratio >= 0.5), "ratio": float(ratio),
            "area": float(area), "eroded_area": float(eroded_area),
            "d1": float(scene.d1)}


def interior_gradient_sup(u0: Solution) -> dict:
    """Max nodal-patch gradient over D and its ratio to the global L2 norm."""
    mesh = u0.mesh
    grads = u0.gradient()
    total = math.sqrt(u0.gradient_energy())
    if not mesh.in_d.any() or total <= 0:
        return {"sup": 0.0, "ratio": 0.0, "l2_norm": total}
    # area-weighted patch average of element gradients at D's nodes, over
    # the elements that have one of them
    d_nodes = np.unique(mesh.triangles[mesh.in_d].ravel())
    at_d = np.zeros(mesh.num_points, dtype=bool)
    at_d[d_nodes] = True
    patch_e = at_d[mesh.triangles].any(axis=1)
    tri, areas = mesh.triangles[patch_e], mesh.areas[patch_e]
    weighted = grads[patch_e] * areas[:, None]
    acc = np.zeros((mesh.num_points, 2), dtype=complex)
    wsum = np.zeros(mesh.num_points)
    for i in range(3):
        np.add.at(acc, tri[:, i], weighted)
        np.add.at(wsum, tri[:, i], areas)
    patch = acc[d_nodes] / np.maximum(wsum[d_nodes], 1e-300)[:, None]
    sup = float(np.linalg.norm(np.abs(patch), axis=1).max())
    return {"sup": sup, "ratio": sup / total, "l2_norm": total}


def estimate_size(power: PowerReport, constants: tuple[float, float],
                  fatness_ok: bool = True, true_area: Optional[float] = None,
                  constants_source: str = "calibrated") -> SizeEstimate:
    """Bounds C1*|Re dW|/Re W'0 <= |D| <= C2*|Re dW|/Re W'0."""
    c1, c2 = float(constants[0]), float(constants[1])
    if c1 > c2:
        raise ValueError("require C1 <= C2")
    re_wf = power.w0_free.real
    if re_wf <= _W0_FREE_TOL:
        raise DegenerateMeasurementError(
            f"Re W'0 = {re_wf:.3e} at or below tolerance; measurement "
            "carries no power")
    q = abs(power.delta_w.real) / re_wf
    return SizeEstimate(
        delta_w_re=power.delta_w.real, w0_free_re=re_wf,
        lower=c1 * q, upper=c2 * q, true_area=true_area,
        fatness_ok=bool(fatness_ok),
        upper_conditional=not bool(fatness_ok),
        constants_source=constants_source, constants=(c1, c2))


@dataclass(frozen=True)
class SizeMeasurement:
    """One calibration sample: measured powers plus the known area."""

    delta_w_re: float
    w0_free_re: float
    area: float
    case: str
    label: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    c1: float
    c2: float
    case: str
    n_used: int
    excluded: tuple


def calibrate_constants(family: Sequence[SizeMeasurement]) -> CalibrationResult:
    """Tight-by-construction constants from scenes with known |D|.

    C1 (C2) is the min (max) over the family of |D| * Re W'0 / |Re dW|.
    Members with a vanishing power gap are excluded with a warning entry;
    families mixing jump cases are rejected since the bracket constants
    are only case-uniform.
    """
    if not family:
        raise ValueError("calibration family is empty")
    cases = {m.case for m in family}
    if len(cases) > 1:
        raise StructuralError(
            f"calibration family mixes jump cases {sorted(cases)}; "
            "constants are only uniform within one case")
    ratios = []
    excluded = []
    for m in family:
        scale = max(abs(m.w0_free_re), 1e-300)
        if abs(m.delta_w_re) <= _GAP_REL_TOL * scale:
            excluded.append(m.label or "unnamed")
            continue
        ratios.append(m.area * m.w0_free_re / abs(m.delta_w_re))
    if not ratios:
        raise ValueError("every family member had a vanishing power gap")
    return CalibrationResult(c1=float(min(ratios)), c2=float(max(ratios)),
                             case=next(iter(cases)), n_used=len(ratios),
                             excluded=tuple(excluded))


def surrogate_size_constants(kappa_lo: float, kappa_hi: float,
                             interior_ratio: float, c_a: float,
                             lambda0: float, ell: float) -> tuple[float, float]:
    """Analytic-surrogate constants assembled from measured sub-constants.

    Lower: |Re dW| <= kappa_hi * |D| * sup_D|grad u0|^2 and
    sup_D|grad u0| <= interior_ratio * ||grad u0||_L2 with
    ||grad u0||^2 <= Re W'0 / lambda0 give
    C1 = lambda0 / (kappa_hi * interior_ratio^2).

    Upper: covering D_{d1} by squares of side ell, each containing a ball
    of radius ell/2 with energy fraction at least c_a, and the fatness
    count N >= |D| / (2 ell^2):
    C2 = 2 ell^2 / (kappa_lo * c_a * lambda0).
    """
    if min(kappa_lo, kappa_hi, interior_ratio, c_a, lambda0, ell) <= 0:
        raise ValueError("all surrogate ingredients must be positive")
    c1 = lambda0 / (kappa_hi * interior_ratio ** 2)
    c2 = 2.0 * ell ** 2 / (kappa_lo * c_a * lambda0)
    return c1, c2


def boundary_data_norm_ratio(mesh, g: NeumannData) -> float:
    """||g||_L2 / ||g||_H^{-1/2} on the discrete boundary.

    With M and S the periodic P1 boundary mass and stiffness and mu their
    generalized eigenvalues, ||g||^2_H^{-1/2} = g^T M (1 + mu)^{-1/2} g
    = (2/pi) int_0^inf g^T M ((1 + t^2) M + S)^{-1} M g dt, taken by the
    trapezoid rule on t = lam^{1/4} exp((pi/2) sinh x), x = -4, -3.9, ..., 4
    (Takahasi & Mori, Publ. RIMS 9, 1974), where 1 + mu <= lam = 1 + 12 /
    min(len)^2. The 81 shifted systems are one banded Cholesky solve.
    """
    pts = mesh.points[mesh.boundary_loop()]
    lens = _norm(np.roll(pts, -1, axis=0) - pts)
    nb, prev = len(lens), np.roll(lens, 1)
    gv = np.asarray(g.raw(pts), dtype=float)
    gv = gv - ((prev + lens) @ gv) / (2.0 * lens.sum())
    nxt = np.roll(gv, -1)
    mg = (lens * (2.0 * gv + nxt) + np.roll(lens * (gv + 2.0 * nxt), 1)) / 6.0
    x = np.linspace(-4.0, 4.0, 81)
    t = (1.0 + 12.0 / lens.min() ** 2) ** 0.25 * np.exp(0.5 * np.pi * np.sinh(x))
    # numbered 0, 1, nb-1, 2, nb-2, ..., both ends of an edge lie within two
    k = np.arange(nb)
    pos = np.argsort(np.where(k % 2, (k + 1) // 2, -(k // 2)) % nb)
    slot = np.arange(len(t))[:, None] * nb + pos  # node i of system j
    shift = 1.0 + t[:, None] ** 2
    band = np.zeros((3, slot.size))
    band[2, slot] = shift * (prev + lens) / 3.0 + 1.0 / prev + 1.0 / lens
    band[2 - np.abs(pos - np.roll(pos, -1)),
         np.maximum(slot, np.roll(slot, -1, axis=1))] = \
        shift * lens / 6.0 - 1.0 / lens
    rhs = np.zeros(slot.size)
    rhs[slot] = mg
    y = scipy.linalg.solveh_banded(band, rhs)[slot]
    neg_sq = float((0.1 * t * np.cosh(x)) @ (y @ mg))
    if neg_sq <= 0:
        return math.inf
    return math.sqrt(float(gv @ mg) / neg_sq)
