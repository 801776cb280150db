"""One measured repeat of a workload, run by `run.py` in a fresh interpreter.

A fresh process per repeat matters here: `criteria._q_powered` is a
module-level cache that keeps every evaluated tree alive, and the rule memos
live on each tree, so in-process repeats would read warm caches.  Each job
also builds its own `TreeModel`.

Prints one JSON object on its last stdout line.  With ``--trace 1`` the
package is wrapped by `tracer.install` before any input is generated.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def _run_probes(ctx, tracer) -> dict:
    from workloads import closed_form_probes

    outcomes = {}
    for name, run in closed_form_probes(ctx):
        if tracer:
            tracer.begin_job(f"probe:{name}")
        try:
            run()
            outcome = "ok"
        except ctx.ts.TreeShiftError as exc:
            outcome = f"ok: typed {type(exc).__name__}"
        except Exception as exc:  # an untyped escape is the defect being probed
            outcome = f"defect: {type(exc).__name__}: {str(exc)[:120]}"
        if tracer:
            tracer.end_job()
        outcomes[name] = outcome
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the span records here (traced runs)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import treeshift as ts
    import treeshift.cli  # noqa: F401  (the CLI is not imported by the package)

    from workloads import BUILDERS, Context, setup_documents

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    with open(GOLDEN, encoding="utf-8") as fp:
        golden = json.load(fp)
    os.makedirs(".bench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as workdir:
        ctx = Context(ts, workdir, golden)
        jobs = BUILDERS[args.workload](ctx, random.Random(f"{args.workload}:{args.seed}"))
        setup_documents(ctx)
        setup_s = time.perf_counter() - t0

        wall_s = cpu_s = 0.0
        job_wall, job_cpu = {}, {}
        failures = {}
        for job in jobs:
            if tracer:
                tracer.begin_job(job.name)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                outcome, error = job.run(), None
            except Exception as exc:  # counted as a failed job, never fatal
                outcome, error = None, exc
            dw, dc = time.perf_counter() - w0, time.process_time() - c0
            if tracer:
                tracer.end_job()
            wall_s += dw
            cpu_s += dc
            job_wall[job.name] = dw
            job_cpu[job.name] = dc
            problems = [f"{type(error).__name__}: {error}"] if error else job.check(outcome)
            if problems:
                failures[job.name] = problems[:3]
            del outcome
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probes = _run_probes(ctx, tracer) if args.workload == "closed_form" else {}

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs), "failed": len(failures), "failures": failures,
        "jobs": [job.name for job in jobs], "job_wall_s": job_wall, "job_cpu_s": job_cpu,
        "probes": probes,
    }
    if tracer:
        result["trace"] = tracer.summary(setup_s + wall_s)
        result["job_counts"] = tracer.job_counts
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
