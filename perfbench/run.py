"""The twofold benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload {stiff,events,surface} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  A pass runs the workload's op list through
`twofold.cli.main(argv)` in a fresh single-threaded interpreter
(perfbench/passrunner.py); passes repeat until S seconds have gone, and at
least twice, so every artifact digest can be compared between two passes.
The first pass's outputs are checked (checks.py); later passes must give
identical digests.

--trace 0 reports the end-to-end metrics: wall_s (one pass, interpreter
warm), op_p50_s (per CLI call), setup_s (fresh interpreter: import
twofold.cli and build every built-in scenario) and peak_rss_mb (of the pass
process).  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.py plus the tracing overhead.  Times are in
reference seconds (calibrate.py), medians over passes.  Failed over
attempted ops is the error rate.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; the work directory
perfbench/.work/<workload>/ keeps result.json (with per-op times, artifact
digests and the environment) and, when traced, spans.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import GENERATORS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 11
MIN_PASSES = 2
CHILD_TIMEOUT = 150.0
# no pass starts once this much of the run's time has gone
RUN_BUDGET = 120.0

UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update(SINGLE_THREAD)
    return env


def _child(args, cwd, stdin=None):
    proc = subprocess.run([sys.executable, *args], input=stdin, cwd=cwd, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def setup_seconds(cwd):
    """Set-up time of one fresh interpreter, in reference seconds."""
    seconds, factor = json.loads(_child([str(BENCH / "setup_probe.py")], cwd))
    return seconds * factor


def run_pass(job, cwd):
    return json.loads(_child([str(BENCH / "passrunner.py")], cwd, json.dumps(job)))


def environment():
    """Provenance of a result: git sha (when the tree is a git checkout),
    Python version, usable CPUs and CPU model."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            target = ROOT / ".git" / sha[5:]
            sha = target.read_text().strip() if target.is_file() else None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _digest_mismatches(first, later):
    return sum(1 for a, b in zip(first["ops"], later["ops"])
               if a["code"] != b["code"] or a["digests"] != b["digests"])


def _span_mismatches(traced):
    """Ops whose self times do not add up to the traced op's root span."""
    bad = 0
    for root, total, lowest in traced["spans"].values():
        if abs(root - total) > 1e-9 * max(1.0, root) or lowest < -1e-9:
            bad += 1
    return bad


def measure(workload, seed, seconds, trace):
    ops = generate(workload, seed)
    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    workdir = BENCH / ".work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    job = {"ops": [list(op.argv) for op in ops],
           "outputs": [list(op.outputs) for op in ops], "trace": False, "spans": None}

    setup_seconds(workdir)         # compiles bytecode and warms the file cache
    setups = [] if trace else [setup_seconds(workdir) for _ in range(SETUP_RUNS)]

    passes = {False: [], True: []}
    failed = attempted = 0
    problems = {}
    started = time.monotonic()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        result = run_pass(dict(job, trace=traced, spans="spans.tsv" if traced else None),
                          workdir)
        attempted += len(ops)
        if not passes[False] and not traced:
            for op, res in zip(ops, result["ops"]):
                found = checks.op_problems(op, res["code"], res["stdout"],
                                           refs.get(op.ref), workdir)
                if found:
                    problems[" ".join(op.argv)] = found + [res["stderr"]]
            failed += len(problems)
        else:
            failed += _digest_mismatches(passes[False][0], result)
        if traced:
            failed += _span_mismatches(result)
        passes[traced].append(result)
        elapsed = time.monotonic() - started
        count = len(passes[False]) + len(passes[True])
        if count >= MIN_PASSES and (not trace or passes[True]) and (
                elapsed >= seconds or elapsed > RUN_BUDGET):
            break
    return ops, setups, passes, attempted, failed, problems


def _wall(p):
    """Pass wall time in reference seconds (calibrate.py)."""
    return sum(op["seconds"] * op["scale"] for op in p["ops"])


def end_to_end(setups, plain):
    """Medians over the untraced passes; op_p50_s is the median over passes
    of the median op time within a pass."""
    op_p50 = [statistics.median(op["seconds"] * op["scale"] for op in p["ops"]) for p in plain]
    return {"wall_s": statistics.median(_wall(p) for p in plain),
            "op_p50_s": statistics.median(op_p50),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in plain)}


def per_layer(plain, traced):
    """Median layer metrics of the traced passes; times in reference seconds."""
    def value(p, name):
        v = p["layers"][name]
        if layer_unit(name) in ("s", "us"):
            v *= _wall(p) / sum(op["seconds"] for op in p["ops"])
        return v
    metrics = {n: statistics.median(value(p, n) for p in traced) for n in traced[0]["layers"]}
    metrics["trace.wall_s"] = statistics.median(_wall(p) for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        _wall(p) for p in plain)
    return metrics


def layer_unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "_per_step")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twofold" / "cli.py").is_file():
        print(f"no twofold sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        ops, setups, passes, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    for argv_text, found in problems.items():
        print(f"FAILED {argv_text}", file=sys.stderr)
        for line in found:
            print(f"    {line}", file=sys.stderr)
    plain, traced = passes[False], passes[True]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {n: layer_unit(n) for n in metrics}
    else:
        metrics = end_to_end(setups, plain)
        units = UNITS
    for name, value in metrics.items():
        print(f"{name:34s} {value!r} {units[name]}")
    if args.trace:
        spans = [v for p in traced for v in p["spans"].values()]
        print(f"{'':34s} (self times add up to the traced op wall on "
              f"{len(spans) - sum(_span_mismatches(p) for p in traced)}/{len(spans)} ops)")
    else:
        print(f"{'':34s} (op_p50_s over {len(ops)} calls in each of {len(plain)} passes, "
              f"setup_s over {len(setups)} interpreters)")
    print(f"{'error_rate':34s} {failed / attempted!r} ratio ({failed}/{attempted})")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    detail = {"environment": env, "seed": args.seed, "setup_s": setups,
              "pass_wall_s": {"untraced": [_wall(p) for p in plain],
                              "traced": [_wall(p) for p in traced]},
              "op_s": {" ".join(op.argv): [p["ops"][i]["seconds"] for p in plain]
                       for i, op in enumerate(ops)},
              "op_scale": {" ".join(op.argv): [p["ops"][i]["scale"] for p in plain]
                           for i, op in enumerate(ops)},
              "digests": {" ".join(op.argv): res["digests"]
                          for op, res in zip(ops, plain[0]["ops"])}}
    (BENCH / ".work" / args.workload / "result.json").write_text(
        json.dumps(dict(result, **detail), indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
