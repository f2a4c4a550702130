"""`src/powergap` holds what a verb reaches.

The lab's four verbs (`validate`, `run`, `sweep` and `report`) run here
in-process on the corpus, on variants that set what the corpus leaves at
its default, on one malformed config, and through a mesh sweep and every
report kind; `scenarios.size_family`, which the benchmark calls, runs too.
A profiler records every call into the package's code, and each code object
counts for the `def` that encloses it in the source (a lambda, closure or
comprehension for its function). A module-level function or a method that
none of this reaches fails the test, unless `ALLOWED` gives it with a
reason. Dunder methods other than `__init__` and `__call__` are exempt
(Python calls them, not the pipeline), and so is `__main__.py`.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import powergap
from powergap import scenarios
from powergap.cli import EXIT_OK, EXIT_STRUCTURAL, main

from corpus import CONFIGS, corpus_config

SRC = Path(powergap.__file__).resolve().parent

# The functions no verb reaches yet, each with what it is kept for. The
# first seven explain numbers the lab computes: reporting one adds report
# keys, and perfbench/gate.py fails a key its reference reports lack, so
# they wait for a benchmark change that regenerates perfbench/references/.
_WAITS = "; reporting it waits for new benchmark references"
ALLOWED = {
    "solver.flux_balance":
        "weak and geometric flux balance of a solution" + _WAITS,
    "solver._load_residual": "the weak half of flux_balance" + _WAITS,
    "solver.flux_jump_norm":
        "normal-flux jump of a solution across the interface" + _WAITS,
    "geometry.RegionTriple.ball_radius":
        "guaranteed radius of a ball holding the pulled-back theta*U3"
        + _WAITS,
    "geometry.RegionTriple.inner_ball_radius":
        "guaranteed radius of a ball mapped into theta*U2" + _WAITS,
    "geometry.RegionTriple.separation_bound":
        "guaranteed distance from theta*U1 to the interface" + _WAITS,
    "coefficients.estimate_lipschitz":
        "Lipschitz constant of a coefficient, which the paper's hypotheses "
        "bound and admissibility does not report" + _WAITS,
    "estimator.calibrate_constants":
        "fits the size constants on scenes of known area; the planned "
        "calibrate verb reaches it",
}

# one config per default the corpus leaves alone
_VARIANTS = {
    "affine": ("concentric_disk", {
        "checks": ["admissibility", "energy"],
        "background": {"m_plus": {"kind": "affine", "base": 1.0,
                                  "gx": 0.1, "gy": [[0.05, 0.0],
                                                    [0.0, 0.05]]}}}),
    "export_fields": ("concentric_disk", {"checks": ["energy"],
                                          "export_fields": True}),
    "ellipse_outer": ("one_phase_disk", {
        "checks": ["admissibility", "energy"],
        "scene": {"outer": {"kind": "ellipse", "center": [0.0, 0.0],
                            "a": 1.0, "b": 0.8}}}),
    "ellipse_inclusion": ("one_phase_disk", {
        "checks": ["admissibility", "energy", "bracket", "size"],
        "scene": {"inclusion": {"kind": "ellipse", "center": [0.0, 0.0],
                                "a": 0.25, "b": 0.15}}}),
    "three_ball": ("one_phase_disk", {"checks": ["three_ball"]}),
    "ellipse_crossed": ("curved_ellipse", {
        "checks": ["admissibility", "energy"],
        "scene": {"inclusion": {"kind": "circle", "center": [0.55, 0.0],
                                "radius": 0.12}}}),
}


def _defs() -> dict:
    """Every module-level function and method, by file: name -> lines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__main__.py":
            continue
        spans = out[str(path)] = {}

        def visit(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    first = min([node.lineno]
                                + [d.lineno for d in node.decorator_list])
                    spans[f"{path.stem}.{prefix}{node.name}"] = \
                        (first, node.end_lineno)

        visit(ast.parse(path.read_text()).body, "")
    return out


def _is_exempt(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__") \
        and last not in ("__init__", "__call__")


def _verbs(tmp: Path) -> None:
    """The work: every verb, as the command line gives it."""
    def verb(*argv, code=EXIT_OK):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            got = main([str(a) for a in argv])
        assert got == code, argv

    configs = sorted(CONFIGS.glob("*.json"))
    for name, (base, overrides) in _VARIANTS.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(corpus_config(base, label=name,
                                                 **overrides)))
        configs.append(path)
    for path in configs:
        verb("validate", "--config", path)
        verb("run", "--config", path, "--out", tmp / "runs")
    malformed = tmp / "malformed.json"
    malformed.write_text(json.dumps(corpus_config("one_phase_disk",
                                                  mesh={"h": "x"})))
    verb("validate", "--config", malformed, code=EXIT_STRUCTURAL)
    verb("run", "--config", malformed, code=EXIT_STRUCTURAL)
    sweep = tmp / "sweep.json"
    sweep.write_text(json.dumps(corpus_config("one_phase_disk",
                                              checks=["energy"])))
    verb("sweep", "--config", sweep, "--param", "mesh.h",
         "--values", "0.16,0.08,0.04", "--out", tmp / "sweep")
    reports = sorted((tmp / "runs").glob("*.json"))
    # each kind over the reports that hold its key
    for kind, key in (("bracket", "kappa_lo"), ("size", "true_area"),
                      ("three_region", "three_region")):
        chosen = [p for p in reports if f'"{key}": ' in p.read_text()]
        verb("report", *chosen, "--kind", kind, "--out", tmp / f"{kind}.csv")
    scenarios.size_family(12)


def _reached(work) -> set:
    """The code objects of the package that `work()` calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return {c for c in codes if c.co_filename.startswith(str(SRC))}


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """The package's functions that no verb reaches, by name."""
    codes = _reached(lambda: _verbs(tmp_path_factory.mktemp("verbs")))
    defs = _defs()
    hit = set()
    for code in codes:
        for name, (first, last) in defs.get(code.co_filename, {}).items():
            if first <= code.co_firstlineno <= last:
                hit.add(name)
    return {name for spans in defs.values() for name in spans
            if name not in hit and not _is_exempt(name)}


def test_every_function_is_reached_by_a_verb(unreached):
    assert sorted(unreached - set(ALLOWED)) == []


def test_allowlist_holds_only_unreached_functions(unreached):
    assert sorted(set(ALLOWED) - unreached) == []
