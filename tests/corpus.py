"""The bundled configs, `configs/*.json`, as documents for tests, and the
isotropic laws the tests build by hand.

`configs/` is the one copy of the corpus. The resistive case "case_i" of a
scene is its config with `law.zeta1` negated and the label to match.
"""

import json
from pathlib import Path

import numpy as np

from powergap.coefficients import BackgroundTensor, MatrixField

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SCENES = ("one_phase_disk", "concentric_disk", "off_center_inclusion",
          "crossing_inclusion", "curved_ellipse")


def corpus_config(name: str, case: str = "case_ii", **overrides) -> dict:
    """configs/<name>.json in the given case; a dict override is merged
    into its section, any other replaces the top-level key."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    if case == "case_i":
        doc["law"]["zeta1"] = -doc["law"]["zeta1"]
        doc["label"] = f"{name}_case_i"
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    return doc


def isotropic_field(value: float, name: str = "iso") -> MatrixField:
    """The constant field value * I."""
    return MatrixField.constant(float(value) * np.eye(2), name)


def isotropic_background(sigma_plus: float, sigma_minus: float,
                         gamma: float = 0.05) -> BackgroundTensor:
    """Scalar sigma on each side, N = 1, and the default lambda0 and m0."""
    return BackgroundTensor(
        m_plus=isotropic_field(sigma_plus, "m+"),
        m_minus=isotropic_field(sigma_minus, "m-"),
        n_plus=isotropic_field(1.0, "n+"),
        n_minus=isotropic_field(1.0, "n-"),
        gamma=gamma)
