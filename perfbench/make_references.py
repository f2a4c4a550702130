"""Write the reference reports the correctness gate compares against.

Run from the root of a checkout, only when a change is meant to alter the
physics (the gate exists to catch every other change of a report):

    python3 perfbench/make_references.py [workload ...]

Each scene of each workload (and of its smoke variant) runs once at the
reference seed; its report, without timings, goes to
``perfbench/references/{full,smoke}/<workload>/<label>.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import REFERENCES, ROOT, WORK_DIR, import_powergap, pin_threads


def main(argv):
    pin_threads()
    import_powergap()
    import workloads
    from powergap import cli
    names = argv or list(workloads.WORKLOADS)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    for smoke in (False, True):
        for name in names:
            out = REFERENCES / ("smoke" if smoke else "full") / name
            out.mkdir(parents=True, exist_ok=True)
            docs = workloads.seeded(workloads.scene_docs(name, ROOT, smoke),
                                    workloads.REFERENCE_SEED)
            for cfg in workloads.parse(docs):
                with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
                    report, code = cli.run(cfg, out_dir=work)
                    with open(f"{work}/{cfg.label}.json") as fh:
                        written = json.load(fh)
                if code != 0 or written["violations"]:
                    raise SystemExit(f"{cfg.label}: exit {code}, violations "
                                     f"{written['violations']}")
                with open(out / f"{cfg.label}.json", "w") as fh:
                    json.dump(written, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"wrote {out / cfg.label}.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
