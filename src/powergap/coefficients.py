"""Coefficient tensors, the inclusion's constitutive law, and admissibility checks.

The background tensor is A = M + i*gamma*N per component, with M, N real
symmetric and elliptic. Inside the inclusion the current-voltage relation
picks up a chiral term acting on the conjugated gradient, which makes it
real-linear but not complex-linear. All structural hypotheses (symmetry,
ellipticity, Lipschitz bounds, the jump condition, closeness of the
imaginary parts) are checked pointwise on caller-supplied samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import StructuralError
from .geometry import as_points

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10  # absolute slack for a.e. matrix inequalities


class MatrixField:
    """Symmetric 2x2 matrix field evaluated on (n, 2) point arrays."""

    def __init__(self, fn, name: str = "field"):
        self._fn = fn
        self.name = name

    def __call__(self, points) -> np.ndarray:
        p = as_points(points)
        vals = np.asarray(self._fn(p), dtype=float)
        if vals.shape == (2, 2):
            vals = np.broadcast_to(vals, (len(p), 2, 2)).copy()
        if vals.shape != (len(p), 2, 2):
            raise ValueError(f"{self.name}: expected (n,2,2) values, got {vals.shape}")
        return vals

    def __repr__(self):
        return f"MatrixField({self.name})"

    @staticmethod
    def constant(mat, name: str = "const") -> "MatrixField":
        m = np.asarray(mat, dtype=float)
        if m.shape == ():
            m = float(m) * np.eye(2)
        if m.shape != (2, 2):
            raise ValueError("constant matrix must be scalar or 2x2")
        return MatrixField(lambda p, m=m: np.broadcast_to(m, (len(p), 2, 2)), name)

    @staticmethod
    def affine(base, grad_x, grad_y, name: str = "affine") -> "MatrixField":
        """base + x*grad_x + y*grad_y with the three 2x2 (or scalar) matrices."""
        def to22(m):
            m = np.asarray(m, dtype=float)
            return float(m) * np.eye(2) if m.shape == () else m
        b, gx, gy = to22(base), to22(grad_x), to22(grad_y)

        def fn(p, b=b, gx=gx, gy=gy):
            return (b[None, :, :]
                    + p[:, 0, None, None] * gx[None, :, :]
                    + p[:, 1, None, None] * gy[None, :, :])
        return MatrixField(fn, name)


@dataclass(frozen=True)
class BackgroundTensor:
    """Piecewise background law A = M + i*gamma*N with per-component fields."""

    m_plus: MatrixField
    m_minus: MatrixField
    n_plus: MatrixField
    n_minus: MatrixField
    gamma: float = 0.05
    lambda0: float = 0.5
    m0: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not (0 < self.lambda0 <= 1):
            raise ValueError("lambda0 must lie in (0, 1]")

    def _per_side(self, plus: MatrixField, minus: MatrixField, points,
                  comp) -> np.ndarray:
        p = as_points(points)
        comp = np.asarray(comp)
        out = np.empty((len(p), 2, 2))
        pos = comp > 0
        if pos.any():
            out[pos] = plus(p[pos])
        if (~pos).any():
            out[~pos] = minus(p[~pos])
        return out

    def sigma(self, points, comp) -> np.ndarray:
        return self._per_side(self.m_plus, self.m_minus, points, comp)

    def n_matrix(self, points, comp) -> np.ndarray:
        return self._per_side(self.n_plus, self.n_minus, points, comp)

    def epsilon(self, points, comp) -> np.ndarray:
        return self.gamma * self.n_matrix(points, comp)


@dataclass(frozen=True)
class InclusionLaw:
    """Constitutive data inside D: sigma1, epsilon1 and the chirality zeta1.

    epsilon1=None inherits the background imaginary part pointwise, which
    makes the closeness condition hold with zero tolerance.
    """

    sigma1: MatrixField
    zeta1: MatrixField
    epsilon1: Optional[MatrixField] = None
    lambda1: float = 0.25
    varrho: float = 0.5
    delta_tol: float = 0.0

    def __post_init__(self):
        if not (0 < self.lambda1 <= 1):
            raise ValueError("lambda1 must lie in (0, 1]")
        if self.varrho <= 0:
            raise ValueError("varrho must be positive")
        if self.delta_tol < 0:
            raise ValueError("delta_tol must be nonnegative")

    def epsilon(self, points, background: BackgroundTensor, comp) -> np.ndarray:
        if self.epsilon1 is None:
            return background.epsilon(points, comp)
        return self.epsilon1(points)


class JumpCase(enum.Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    NONE = "none"


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    eig_min: float
    eig_max: float
    lower: float
    upper: float
    argmin: tuple[float, float]
    argmax: tuple[float, float]


def _eigvalsh2(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric (n, 2, 2) matrices, shape (n, 2).

    Closed form of LAPACK's dlae2 on the lower triangle, as eigvalsh reads
    it: the root of larger magnitude comes from the half-sum and the
    hypotenuse, and the other from the determinant divided by it, which
    keeps both to a few ulps of the larger without cancellation.
    """
    a, b, c = mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]
    sm = a + c
    rt = np.hypot(a - c, 2.0 * b)
    a_larger = np.abs(a) > np.abs(c)
    acmx = np.where(a_larger, a, c)
    acmn = np.where(a_larger, c, a)
    traceless = sm == 0.0
    # a traceless matrix has the roots +-rt/2; elsewhere rt1 != 0
    rt1 = np.where(traceless, 0.5 * rt, 0.5 * (sm + np.copysign(rt, sm)))
    safe = np.where(traceless, 1.0, rt1)
    rt2 = np.where(traceless, -0.5 * rt,
                   (acmx / safe) * acmn - (b / safe) * b)
    return np.stack([np.minimum(rt1, rt2), np.maximum(rt1, rt2)], axis=-1)


def _check_symmetry(vals: np.ndarray, what: str):
    defect = float(np.abs(vals - np.swapaxes(vals, -1, -2)).max()) if len(vals) else 0.0
    if defect > SYMMETRY_TOL:
        raise StructuralError(f"{what} violates symmetry by {defect:.3e}")


def check_ellipticity(field: MatrixField, points, lambda0: float) -> EllipticityReport:
    """Verify lambda0 |xi|^2 <= T xi.xi <= lambda0^{-1} |xi|^2 on samples."""
    p = as_points(points)
    vals = field(p)
    _check_symmetry(vals, field.name)
    eigs = _eigvalsh2(vals)
    mins, maxs = eigs[:, 0], eigs[:, -1]
    i_min, i_max = int(np.argmin(mins)), int(np.argmax(maxs))
    lo, hi = float(mins[i_min]), float(maxs[i_max])
    return EllipticityReport(
        passed=bool(lo >= lambda0 - PSD_TOL and hi <= 1.0 / lambda0 + PSD_TOL),
        eig_min=lo, eig_max=hi, lower=lambda0, upper=1.0 / lambda0,
        argmin=tuple(p[i_min]), argmax=tuple(p[i_max]))


def estimate_lipschitz(field: MatrixField, points_a, points_b) -> float:
    """Max Frobenius difference quotient over sample pairs (one side only)."""
    a, b = as_points(points_a), as_points(points_b)
    if len(a) == 0 or len(a) != len(b):
        raise ValueError("need a nonempty, equal-length set of sample pairs")
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-14
    if not keep.any():
        return 0.0
    diff = np.linalg.norm((field(a) - field(b)).reshape(len(a), 4), axis=1)
    return float((diff[keep] / dist[keep]).max())


def _matrix_le(a: np.ndarray, b: np.ndarray) -> bool:
    """a <= b in the semidefinite order, at every sample, with fp slack."""
    eigs = _eigvalsh2(b - a)
    return bool(eigs[:, 0].min() >= -PSD_TOL)


def check_jump_condition(sigma0: np.ndarray, sigma1: np.ndarray,
                         zeta1: np.ndarray, varrho: float) -> JumpCase:
    """Classify the jump condition from sampled values on D.

    Case (i): zeta1 <= (sigma1-sigma0) - varrho and zeta1 <= (sigma0-sigma1) - varrho;
    case (ii) with both inequalities reversed and +varrho. Matrix order is
    tested through eigenvalues of the differences.
    """
    s0 = np.asarray(sigma0, dtype=float)
    s1 = np.asarray(sigma1, dtype=float)
    z1 = np.asarray(zeta1, dtype=float)
    rho = varrho * np.eye(2)
    if _matrix_le(z1, s1 - s0 - rho) and _matrix_le(z1, s0 - s1 - rho):
        return JumpCase.CASE_I
    if _matrix_le(s1 - s0 + rho, z1) and _matrix_le(s0 - s1 + rho, z1):
        return JumpCase.CASE_II
    return JumpCase.NONE


def check_epsilon_closeness(eps0: np.ndarray, eps1: np.ndarray,
                            delta_tol: float) -> bool:
    """sup over samples of the spectral norm of eps1-eps0 within tolerance."""
    diff = np.asarray(eps1, dtype=float) - np.asarray(eps0, dtype=float)
    if len(diff) == 0:
        return True
    spec = np.abs(_eigvalsh2(diff)).max()
    return bool(spec <= delta_tol + PSD_TOL)


def validate_admissibility(background: BackgroundTensor,
                           law: Optional[InclusionLaw],
                           points_plus, points_minus, points_d,
                           comp_d=None) -> dict:
    """Run every structural hypothesis on sampled points and report each.

    points_plus/points_minus sample the two components, points_d the
    inclusion (empty arrays allowed). Each entry holds "passed" and the
    measured values; the caller decides what a failed entry refuses.
    """
    report: dict = {}

    def record(name, ok, detail):
        report[name] = {"passed": bool(ok), **detail}

    for tag, fld, pts in (("M+", background.m_plus, points_plus),
                          ("M-", background.m_minus, points_minus),
                          ("N+", background.n_plus, points_plus),
                          ("N-", background.n_minus, points_minus)):
        if len(as_points(pts)) == 0:
            continue
        rep = check_ellipticity(fld, pts, background.lambda0)
        record(f"ellipticity:{tag}", rep.passed,
               {"eig_min": rep.eig_min, "eig_max": rep.eig_max})

    if law is not None and len(as_points(points_d)) > 0:
        pd = as_points(points_d)
        comp = np.ones(len(pd), dtype=np.int8) if comp_d is None else np.asarray(comp_d)
        s1 = law.sigma1(pd)
        z1 = law.zeta1(pd)
        _check_symmetry(s1, "sigma1")
        _check_symmetry(z1, "zeta1")
        lam1 = law.lambda1
        eig_plus, eig_minus = _eigvalsh2(s1 + z1), _eigvalsh2(s1 - z1)
        eig_lo = min(eig_plus[:, 0].min(), eig_minus[:, 0].min())
        eig_hi = max(eig_plus[:, -1].max(), eig_minus[:, -1].max())
        record("(se0):sigma1+-zeta1",
               eig_lo >= lam1 - PSD_TOL and eig_hi <= 1.0 / lam1 + PSD_TOL,
               {"eig_min": float(eig_lo), "eig_max": float(eig_hi),
                "lambda1": lam1})
        eps0 = background.epsilon(pd, comp)
        eps1 = law.epsilon(pd, background, comp)
        norm0 = float(np.abs(_eigvalsh2(eps0)).max()) if len(pd) else 0.0
        norm1 = float(np.abs(_eigvalsh2(eps1)).max()) if len(pd) else 0.0
        record("(se0):epsilon-bounds",
               norm0 <= 1.0 / lam1 + PSD_TOL and norm1 <= 1.0 / lam1 + PSD_TOL,
               {"norm_eps0": norm0, "norm_eps1": norm1})
        s0 = background.sigma(pd, comp)
        case = check_jump_condition(s0, s1, z1, law.varrho)
        record("(a0):jump", case is not JumpCase.NONE, {"case": case.value})
        report["jump_case"] = case.value
        record("(delta):epsilon-closeness",
               check_epsilon_closeness(eps0, eps1, law.delta_tol),
               {"delta_tol": law.delta_tol})
    return report
