"""Record the reference outputs of every input panel on the current code.

    python3 perfbench/make_reference.py --workload chain

Writes perfbench/reference/<workload>.json, which every benchmark run checks
its outputs against. Regenerate it only on a commit whose outputs are known
to be right, and say so in the change that commits it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["chain", "eval", "tune"])
    args = parser.parse_args(argv)
    problem = run.bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    refs = {}
    for panel in range(workloads.PANELS):
        w = workloads.WORKLOADS[args.workload](run.WORK, panel)
        w.setup()
        ok, summary = w.summarize(w.op())
        if not ok:
            print(f"error: panel {panel} output breaks its invariants", file=sys.stderr)
            return 1
        refs[str(panel)] = summary
        print(f"panel {panel}: quality {w.quality(summary):.6f}", flush=True)
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    with open(os.path.join(run.HERE, "reference", f"{args.workload}.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
