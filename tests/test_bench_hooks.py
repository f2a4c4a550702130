"""The benchmark's tracer still wraps every entry point it names.

`perfbench/tracer.py` wraps powergap's functions by their module and
attribute names, and checks its spans against `cli.run`'s own stage times.
A renamed entry point, or energy-stage work moved out of the function the
tracer times, breaks the traced benchmark. This test runs one coarse
traced run, so that such a break fails here. The tracer is read from its
file and executed as it is; nothing under perfbench/ is written.
"""

import sys
import time
import types
from pathlib import Path

from powergap.cli import EXIT_OK, parse_config, run

from corpus import corpus_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _patchable_attributes() -> dict:
    """Every attribute of a powergap module, and of each class whose
    method the tracer wraps, keyed by (owner name, attribute)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "powergap" or name.startswith("powergap."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        out[(f"{name}.{attr}", meth)] = fn
    return out


def test_traced_run_passes_the_stage_cross_check():
    tracing = _tracer_module()
    cfg = parse_config(corpus_config(
        "one_phase_disk", mesh={"h": 0.08},
        checks=["admissibility", "energy", "bracket", "size"]))
    before = _patchable_attributes()
    tracer = tracing.Tracer()
    tracer.pass_index, tracer.scene = 0, 0
    undo = tracer.install()
    try:
        t0 = time.perf_counter()
        report, code = run(cfg, timings=True)
        wall = time.perf_counter() - t0
    finally:
        tracing.Tracer.uninstall(undo)
    tracer.end_pass()
    assert code == EXIT_OK
    # raises CrossCheckError when the spans miss a stage's time
    metrics = tracer.pass_metrics(0, wall, {0: report})
    assert metrics["solver.factor_calls"] == 1
    assert metrics["energy.verify_identities_calls"] == 1
    assert metrics["energy.power_report_s"] > 0
    after = _patchable_attributes()
    assert [k for k in before if after.get(k) is not before[k]] == []
