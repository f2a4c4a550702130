"""The size-calibration family: disk inclusions in the concentric disk.

The corpus is `configs/*.json`; `_CONCENTRIC_DISK` is its concentric disk
(a test pins the two together), whose inclusion `size_family` varies.
"""

from __future__ import annotations

import copy

_CONCENTRIC_DISK = {
    "schema_version": 1,
    "label": "concentric_disk_case_ii",
    "seed": 7,
    "mesh": {"h": 0.03, "min_angle_deg": 5.0},
    "scene": {
        "outer": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
        "interface": {"kind": "circle", "center": [0.0, 0.0], "radius": 0.5},
        "inclusion": {"kind": "circle", "center": [0.0, 0.0], "radius": 0.25},
        "rho0": 0.3, "K0": 4.0, "d0": 0.3, "d1": 0.05,
    },
    "background": {"m_plus": 1.0, "m_minus": 2.0, "n_plus": 1.0,
                   "n_minus": 1.0, "gamma": 0.05, "lambda0": 0.5, "m0": 1.0},
    "law": {"sigma1": 1.5, "zeta1": 1.2, "epsilon1": None, "lambda1": 0.2,
            "varrho": 0.5, "delta_tol": 0.0},
    "boundary_data": [[1, 1.0, 0.0]],
    "weights": {"alpha_plus": 2.0, "alpha_minus": 1.0, "beta": 0.1,
                "delta": 8.0, "kappa0": 1.5, "delta0": 8.0, "r0": 8.0},
    "regions": {"R1": 0.4, "R2": 0.1, "theta": 0.09, "anchor_t": 0.0},
    "bracket_tol": 0.05,
    "checks": ["admissibility", "energy", "bracket", "three_region",
               "vitali", "size"],
}

# calibration members span the response regimes: deep in the inner
# component, in the outer component at several boundary angles, and
# crossing the interface; the power gap per unit area differs by a factor
# of several across these, which is what gives the calibrated constants a
# usable span
_SIZE_MEMBERS = [
    (0.10, (0.0, 0.0)),        # interior, small
    (0.26, (0.0, 0.0)),        # interior, large
    (0.18, (0.15, 0.08)),      # interior, off-center
    (0.14, (-0.12, -0.1)),     # interior, off-center
    (0.10, (0.62, 0.0)),       # outer component, high-field angle
    (0.12, (0.55, 0.0)),       # outer component, hugging the interface
    (0.10, (0.0, -0.6)),       # outer component, low-field angle
    (0.10, (-0.6, 0.0)),       # outer component, mirrored
    (0.10, (0.45, 0.0)),       # crossing, mostly inside
    (0.14, (-0.45, 0.0)),      # crossing, mirrored
    (0.22, (0.1, -0.05)),      # interior, extra
    (0.12, (0.0, 0.55)),       # outer component, extra
]


def size_family(n: int, case: str = "case_ii", h: float = 0.03) -> list[dict]:
    """Disk-inclusion scenes with varied radius/position at fixed structure.

    Used to calibrate the size-estimate constants; all members share the
    structural parameters (lambda0, lambda1, varrho, d0, d1) and differ in
    the inclusion's radius and center.
    """
    if n > len(_SIZE_MEMBERS):
        raise ValueError(f"at most {len(_SIZE_MEMBERS)} family members")
    chirality = {"case_ii": 1.0, "case_i": -1.0}[case]
    out = []
    for r, c in _SIZE_MEMBERS[:n]:
        cfg = copy.deepcopy(_CONCENTRIC_DISK)
        cfg["law"]["zeta1"] *= chirality
        cfg["label"] = f"size_{case}_{len(out):02d}"
        cfg["mesh"]["h"] = h
        cfg["scene"]["inclusion"] = {"kind": "circle",
                                     "center": [c[0], c[1]], "radius": r}
        cfg["scene"]["d0"] = 0.25
        cfg["scene"]["d1"] = r / 5.0
        cfg["checks"] = ["admissibility", "energy", "bracket", "size"]
        out.append(cfg)
    return out
