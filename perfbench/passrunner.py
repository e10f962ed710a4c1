"""One pass of a workload's op list, run in a fresh interpreter.

Reads a job as JSON on stdin: {"ops": [argv, ...], "outputs": [[path, ...],
...], "trace": bool, "spans": path or null}.  Imports twofold first, so the
timed ops run in a warm interpreter, then calls `twofold.cli.main(argv)` for
each op with its stdout and stderr captured, timed by calibrate.Probe.
Writes one JSON object to stdout: per op the exit code, seconds,
reference-seconds scale, captured output and sha256 of each artifact, plus
the process's peak RSS and, when traced, the layer metrics and the per-op
span sums.  Run with the op's artifact directory as cwd.
"""

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import twofold.cli
from calibrate import Probe


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _peak_rss_kb():
    """Peak RSS of this process since it started.  Not ru_maxrss: Linux
    carries the spawning parent's resident size into it across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(job):
    tracer = None
    entry = twofold.cli.main
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.root(entry)

    def call(argv):
        try:
            return entry(argv)
        except Exception:       # a traceback is exit code 1 of the real CLI
            traceback.print_exc()
            return 1

    # sampling during traced ops would land in the spans' self times
    probe = Probe(sample=tracer is None)
    results = []
    for i, argv in enumerate(job["ops"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(i)
        with redirect_stdout(out), redirect_stderr(err):
            code, seconds, scale = probe.time(call, argv)
        if tracer is not None:
            tracer.end_op()
        results.append({"code": code, "seconds": seconds, "scale": scale,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]})
    report = {"peak_rss_kb": _peak_rss_kb()}
    for result, paths in zip(results, job["outputs"]):
        result["digests"] = {p: _sha256(p) if os.path.exists(p) else "missing" for p in paths}
        result["digests"]["stdout"] = hashlib.sha256(result["stdout"].encode()).hexdigest()
    report["ops"] = results
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = {str(op): v for op, v in tracer.op_consistency().items()}
        tracer.write_spans(job["spans"])
    return report


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
