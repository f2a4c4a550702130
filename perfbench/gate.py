"""Correctness gate: a scene run counts only if its report is right.

A report passes when the run exited 0 with no violations, its rounding-level
diagnostics stay under their limits, and every other numeric field matches
the committed reference report to ``RTOL`` relative (or to ``ABS_TOL``
absolute, where given). Fields the seed draws are compared only when the
run used the reference's seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# ROADMAP tolerance for reproducing a report
RTOL = 1e-10

# Rounding-level diagnostics: their value is noise at the last digits and
# moves with any change of summation order, so each is held to a limit
# instead of to its reference value.
LIMITS = {
    ("solve", "residual_u0"): 1e-6,
    ("solve", "residual_u1"): 1e-6,
    ("solve", "g_defect"): 1e-12,
    ("power", "id_residuals", "max_pairwise_rel"): 1e-9,
    # interface nodes lie on the interface, up to rounding
    ("mesh", "interface_node_dist"): 1e-12,
    # at theta = 1 both sides of the scaling identity are the same integral
    ("checks", "scaling", "theta_1.0"): 1e-12,
}

# Fields of order one whose entries may be 0 up to rounding, where a
# relative tolerance means nothing: each number under the path may also
# differ from its reference by this much.
ABS_TOL = {
    ("checks", "lipschitz", "argmin"): 1e-12,
}

# parts of a report the config's seed draws
SEEDED = (("config", "seed"), ("checks", "three_region"))

# wall-clock figures, never reproducible
UNCOMPARED = (("timings",),)


def load_reference(ref_dir: Path, label: str):
    """The committed report for a scene label, or None if there is none."""
    path = ref_dir / f"{label}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers_match(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def _diff(got, want, path: tuple, skip: set, rtol: float, out: list,
          atol: float = 0.0):
    where = ".".join(map(str, path)) or "<root>"
    atol = ABS_TOL.get(path, atol)
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            return
        for key in sorted(set(want) | set(got)):
            if (*path, key) in skip:
                continue
            if key not in got or key not in want:
                side = "missing" if key not in got else "unexpected"
                out.append(f"{where}.{key}: {side}")
                continue
            _diff(got[key], want[key], (*path, key), skip, rtol, out, atol)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: expected a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, (*path, i), skip, rtol, out, atol)
    elif _is_number(want) and _is_number(got):
        if not _numbers_match(float(got), float(want), rtol, atol):
            out.append(f"{where}: {got!r} != reference {want!r}")
    elif got != want:
        out.append(f"{where}: {got!r} != reference {want!r}")


def _get(doc: dict, path: tuple):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def check(report, exit_code, reference, rtol: float = RTOL) -> list[str]:
    """Every reason this scene run is not correct; empty when it is."""
    if report is None:
        return ["no report written"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("violations"):
        problems.append(f"violations: {report['violations']}")
    if reference is None:
        return problems + ["no reference report"]
    for path, limit in LIMITS.items():
        value = _get(report, path)
        if value is None and _get(reference, path) is None:
            continue
        if not (_is_number(value) and value <= limit):
            problems.append(f"{'.'.join(path)} = {value!r}, limit {limit:g}")
    skip = set(UNCOMPARED) | set(LIMITS)
    if _get(report, ("config", "seed")) != _get(reference, ("config", "seed")):
        skip |= set(SEEDED)
    _diff(report, reference, (), skip, rtol, problems)
    return problems
