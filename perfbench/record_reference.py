"""Record the reference outputs that the benchmark's checks compare against.

Runs, in this process, every reference invocation the workloads can need:
each simulation with its unperturbed start, every slide-map range and every
sweep of the menus.  Run it from the repository root on the commit that the
references should come from:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads
from twofold.cli import main

KEEP = {"simulate": ("x1_sign_changes", "sup_norm"),
        "blowup": ("x1_sign_changes", "sup_norm"),
        "slide-map": ("region_counts",),
        "sweep": ("cells", "flavor_count_histogram")}


def reference_argvs():
    heads = [op.ref for w in ("stiff", "events") for op in workloads.generate(w, 0)]
    heads += [" ".join(workloads.slide_map_head(name, r))
              for name in ("example-ii", "invisible-nf") for r in workloads.SLIDE_MAP_RANGES]
    heads += [" ".join(workloads.sweep_head(a1, a2, alpha))
              for a1, a2 in workloads.SWEEP_SIGNS for alpha in workloads.SWEEP_ALPHAS]
    return heads


def record():
    refs = {}
    for key in reference_argvs():
        argv = key.split(" ")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            sys.exit(f"reference run failed with exit code {code}: {key}")
        report = json.loads(out.getvalue())
        refs[key] = {k: report[k] for k in KEEP[argv[0]]}
    return refs


if __name__ == "__main__":
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
