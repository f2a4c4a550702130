"""powergap benchmark: one workload, one closed-loop caller, for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fine_solve --seed 7 --seconds 25 --trace 0

One process drives ``powergap.cli.run`` on the workload's scenes, pass after
pass, for about ``--seconds`` (see ``OVERRUN``). Every scene run is held to
the correctness gate in ``gate.py``.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s`` (median
pass), ``setup_s`` (median over fresh set-up processes), ``peak_rss_mb`` and
``failed_frac``. With ``--trace 1`` untraced and traced passes alternate,
and it prints the per-layer metrics of the traced passes from ``tracer.py``
together with ``trace.overhead_frac``. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Results, the environment record and the span log are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
REFERENCES = BENCH_DIR / "references"

# One caller, one thread: BLAS and OpenMP pools are pinned before numpy is
# imported, so a run's figures do not depend on how many cores are free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"

# A pass starts only if, at the pace of the one before, it ends within
# OVERRUN * --seconds, so a run stays near --seconds even when one pass is
# half of it.
OVERRUN = 1.2

# fresh processes whose set-up time gives setup_s. The machine's speed
# drifts over tens of seconds, so they are spread over the whole run rather
# than run back to back.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one coarse scene per workload, for the self-test")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_powergap():
    """Import the checkout's own powergap, never an installed copy.

    Exits with an error, before any result is printed, outside a checkout.
    """
    src = ROOT / "src"
    if not (src / "powergap" / "__init__.py").is_file():
        raise SystemExit(f"error: no powergap sources under {src}; run from "
                         "the root of a powergap checkout")
    sys.path.insert(0, str(src))
    import powergap
    if Path(powergap.__file__).resolve().parent != (src / "powergap").resolve():
        raise SystemExit(f"error: imported powergap from {powergap.__file__}, "
                         f"not from {src}")


def set_up(workload, seed, smoke, work):
    """Everything before the first timed pass; returns the parsed scenes."""
    import workloads
    from powergap import cli
    docs = workloads.scene_docs(workload, ROOT, smoke=smoke)
    scenes = workloads.parse(workloads.seeded(docs, seed))
    warm = workloads.parse([workloads.warmup_doc(docs)])[0]
    cli.run(warm, out_dir=work, timings=True)
    return scenes


def probe_setup(args):
    """Time one fresh process from spawn until it is ready for a pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_pass(scenes, work, tracer=None):
    """One timed pass over the scenes; the gate runs after the clock stops."""
    from powergap import cli
    outcomes = []
    t0 = time.perf_counter()
    for i, cfg in enumerate(scenes):
        if tracer is not None:
            tracer.scene = i
        try:
            report, code = cli.run(cfg, out_dir=work, timings=True)
            outcomes.append((cfg.label, code, report, None))
        except Exception:  # a failing scene is counted, not fatal
            outcomes.append((cfg.label, None, None, traceback.format_exc()))
    return time.perf_counter() - t0, outcomes


def gate_pass(outcomes, work, ref_dir):
    """Failure reasons per scene label, for the scenes that failed."""
    import gate
    failures = {}
    for label, code, _, error in outcomes:
        if error is not None:
            failures[label] = [error.strip().splitlines()[-1]]
            continue
        path = Path(work) / f"{label}.json"
        with open(path) as fh:
            written = json.load(fh)
        problems = gate.check(written, code, gate.load_reference(ref_dir,
                                                                 label))
        if problems:
            failures[label] = problems
    return failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(args, scenes, work, ref_dir):
    """Passes until the time is up, with the set-up probes spread between
    them; returns the pass records, the probe times and the tracer."""
    import tracer as tracing
    tracer = tracing.Tracer() if args.trace else None
    probes_wanted = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    probes = []
    passes = []
    budget = OVERRUN * args.seconds
    start = time.perf_counter()

    def run_probes(share):
        # the probes' own time does not count against the passes' budget
        nonlocal start
        while len(probes) < round(probes_wanted * min(share, 1.0)):
            t0 = time.perf_counter()
            probes.append(probe_setup(args))
            start += time.perf_counter() - t0

    while not passes or (tracer is not None and len(passes) < 2) \
            or time.perf_counter() + passes[-1]["wall_s"] <= start + budget:
        run_probes((time.perf_counter() - start) / budget if budget else 1.0)
        # in a traced run, untraced and traced passes alternate
        traced = tracer is not None and len(passes) % 2 == 1
        # a user's run starts in a fresh process, without the previous
        # pass's garbage left to collect
        gc.collect()
        undo = None
        if traced:
            tracer.pass_index = len(passes)
            undo = tracer.install()
        try:
            wall, outcomes = run_pass(scenes, work, tracer if traced else None)
        finally:
            if undo is not None:
                tracer.uninstall(undo)
        record = {"wall_s": wall, "traced": traced,
                  "failures": gate_pass(outcomes, work, ref_dir),
                  "scenes": len(outcomes)}
        if traced:
            tracer.end_pass()
            reports = {i: o[2] for i, o in enumerate(outcomes)
                       if o[2] is not None}
            record["layers"] = tracer.pass_metrics(tracer.pass_index, wall,
                                                   reports)
        passes.append(record)
    run_probes(1.0)
    return passes, probes, tracer


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    variant = "smoke" if args.smoke else "full"
    ref_dir = REFERENCES / variant / args.workload
    stem = f"{args.workload}-{variant}-seed{args.seed}"

    import_powergap()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.probe_setup:
            set_up(args.workload, args.seed, args.smoke, work)
            print("ready", flush=True)
            return 0
        scenes = set_up(args.workload, args.seed, args.smoke, work)
        passes, setup_times, tracer = measure(args, scenes, work, ref_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["scenes"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(),
              "attempted": attempted, "failed": failed,
              "setup_probe_s": setup_times, "passes": passes}
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"{len(passes)} passes of {passes[0]['scenes']} scene(s)"]
    if args.trace:
        metrics = tracer.median_metrics([p["layers"] for p in passes
                                         if p["traced"]])
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in passes if p["traced"])
            / statistics.median(untraced) - 1.0)
        units = {k: per_layer_unit(k) for k in metrics}
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        result["spans"] = spans_path.name
    else:
        q1, q3 = quartiles(untraced)
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        lines += [
            f"wall_s       {metrics['wall_s']:10.4f} s   median of "
            f"{len(untraced)} passes; quartiles {q1:.4f} .. {q3:.4f} s",
            f"setup_s      {metrics['setup_s']:10.4f} s   median of "
            f"{len(setup_times)} fresh processes",
            f"peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MB  getrusage of "
            "this process",
        ]
        result["wall_quartiles_s"] = [q1, q3]
    lines.append(f"failed_frac  {failed / attempted:10.4f} ratio  {failed} "
                 f"of {attempted} scene runs failed the gate")
    if args.trace:
        lines += [f"{k:34s} {v:14.6g} {units[k]}"
                  for k, v in sorted(metrics.items())]
    for p in passes:
        for label, problems in p["failures"].items():
            lines.append(f"FAILED {label}: " + "; ".join(problems[:5]))

    result["metrics"] = metrics
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
