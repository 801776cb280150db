"""treeshift benchmark: one command, three workloads, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload enum --seed 1 --seconds 40 --trace 0

Workloads: enum, closed_form, synthesis (see BENCHMARK.json and
perfbench/README.md).  The run starts a fresh interpreter (`worker.py`) for
every measured repeat until ``--seconds`` have passed, and reports medians
over the repeats.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it are a provenance header (git sha,
Python, CPU, load average, seed, job list, sample counts) and a readable
summary; the same record is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 3  # per kind of repeat, whatever --seconds says
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends before this

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "count" for name in COUNTERS})
    units["cli.csv_bytes"] = "bytes"
    units.update({"trees.arity_hit_ratio": "ratio", "trees.weight_hit_ratio": "ratio",
                  "bench.self_s": "s", "trace.wall_s": "s", "trace.setup_s": "s",
                  "trace.overhead_s": "s"})
    return units


def git_sha(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_worker(args, trace: int, spans: str | None, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list, list]:
    """Untraced and traced repeats until --seconds have passed."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = (0, 1) if args.trace else (0,)
    samples = {0: [], 1: []}
    took = []
    while True:
        for trace in kinds:
            spans = None
            if trace:
                spans = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}"
                                     f"-r{len(samples[1])}.spans.jsonl")
            t0 = time.monotonic()
            samples[trace].append(run_worker(args, trace, spans, deadline))
            took.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = all(len(samples[k]) >= MIN_REPEATS for k in kinds)
        next_round = statistics.median(took) * len(kinds)
        if enough and elapsed + next_round > args.seconds:
            break
        if elapsed + next_round > RUN_LIMIT_S - 5:
            break
    return samples[0], samples[1]


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treeshift", "__init__.py")):
        print("error: run from the repository root; src/treeshift is missing", file=sys.stderr)
        return 2
    os.makedirs(".bench_out", exist_ok=True)
    # Byte-compile once so that no repeat pays for it inside setup_s.
    compileall.compile_dir(os.path.join("src", "treeshift"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    load_before = os.getloadavg()
    try:
        plain, traced = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    nproc = os.cpu_count() or 1
    provenance = {
        "git_sha": git_sha(root), "python": platform.python_version(), "nproc": nproc,
        "cpu_model": cpu_model(), "load_before": load_before, "load_after": load_after,
        "overloaded": max(load_before[0], load_after[0]) > nproc,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": plain[0]["jobs"],
        "samples": {"untraced": len(plain), "traced": len(traced)},
    }

    attempted = sum(r["attempted"] for r in plain + traced)
    failures = [f for r in plain + traced for f in r["failures"].items()]
    problems = [f"{name}: {'; '.join(msgs)}" for name, msgs in failures]
    summary = {name: spread([r[name] for r in plain]) for name in END_TO_END}
    layer_errors = {}
    if args.trace:
        counts = [r["job_counts"] for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("counts differ between repeats with the same seed")
        if min(r["trace"]["min_node_self_s"] for r in traced) < -1e-6:
            problems.append("a span's children cover more than the span")
        # Self times come from one repeat, the median one, so that they add up
        # with bench.self_s to its trace.setup_s + trace.wall_s.
        middle = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        layer = dict(middle["trace"])
        layer.update({"trace.wall_s": middle["wall_s"], "trace.setup_s": middle["setup_s"],
                      "trace.overhead_s": middle["wall_s"] - summary["wall_s"]["median"]})
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        # Diagnostics, not metrics: 0 on every measured job of a correct run;
        # only the closed_form probes raise.
        layer_errors = {f"{name}.errors": layer[f"{name}.errors"] for name in LAYERS}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"provenance": provenance, "summary": summary, "problems": problems,
              "repeats": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                              "job_wall_s")} for r in plain],
              "probes": plain[0]["probes"], "layer_errors": layer_errors, "result": result}
    with open(os.path.join(".bench_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)

    print("provenance " + json.dumps(provenance))
    if provenance["overloaded"]:
        print("warning: load average exceeded nproc during the run")
    for name, s in summary.items():
        print(f"{name:>14} {s['median']:.4f} {END_TO_END[name]}  (median of {s['n']} "
              f"repeats, min {s['min']:.4f}, max {s['max']:.4f})")
    print(f"{'error_rate':>14} {len(failures) / attempted:.4f}  ({len(failures)} failed "
          f"of {attempted} jobs)")
    for name, outcome in plain[0]["probes"].items():
        print(f"probe {name}: {outcome}")
    if layer_errors:
        print("layer errors " + json.dumps(layer_errors))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
