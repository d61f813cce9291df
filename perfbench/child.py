"""Repeats of a workload in one fresh interpreter.

    python3 perfbench/child.py <work dir> <workload> <setup|run|trace> <t_spawn> [<seconds>]

`t_spawn` is the parent's time.perf_counter() just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so setup_s covers interpreter start, `import igdist` and
config validation.  In `run` and `trace` mode the workload is repeated,
each call of each repeat timed and each repeat checked and digested on
its own, until `seconds` have passed (at least MIN_REPEATS times).
Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

MIN_REPEATS = 3


def main(argv) -> int:
    work, name, mode, t_spawn = Path(argv[0]), argv[1], argv[2], float(argv[3])
    import igdist
    import igdist.runner  # the package does not import runner itself

    tr = None
    if mode == "trace":  # before load_config, so that it is traced too
        import tracer

        tr = tracer.install(igdist)
    cfg = igdist.config.load_config(work / "config.json")
    setup_s = time.perf_counter() - t_spawn
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    # spans of the set-up (load_config) belong to every traced repeat
    setup_spans = tr.drain() if tr is not None else None
    deadline = time.perf_counter() + float(argv[4])
    wl = workloads.WORKLOADS[name]
    cfg_doc = json.loads((work / "config.json").read_text())
    report = {"setup_s": setup_s, "calls": [], "errors": [], "digests": [],
              "layers": [], "coverage": []}
    spent = []  # seconds per repeat, checks included
    while len(spent) < MIN_REPEATS or time.perf_counter() + statistics.median(spent) < deadline:
        t_rep = time.perf_counter()
        out = work / f"out-{len(spent)}"
        times = {}
        results = workloads.run_pipelines(igdist, wl, cfg, work, out, cfg.workers, times)
        report["calls"].append(times)
        if tr is not None:
            tr.merge(*setup_spans)
            layers = tr.layer_metrics()
            tr.drain()
            report["layers"].append(layers)
            report["coverage"] += workloads.coverage_errors(wl, cfg_doc, layers)
        report["errors"].append(workloads.check(wl, cfg_doc, results, work, out))
        report["digests"].append(workloads.digest(wl, results, out))
        shutil.rmtree(out, ignore_errors=True)
        spent.append(time.perf_counter() - t_rep)
    report["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
