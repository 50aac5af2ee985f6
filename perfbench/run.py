"""pirlab's benchmark: one private retrieval end to end, and the verifier.

    python3 perfbench/run.py --workload cube-tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; it imports pirlab from ``src/`` next to
this directory and starts its servers as ``python -m pirlab.cli serve``
on 127.0.0.1, so all traffic stays on loopback.  The workloads, the
request each one times and the per-layer metrics are described in
``workloads.py``; the metric names and units are read from
``BENCHMARK.json``.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the first half of the time is measured untraced and the second half with
spans, and the per-layer metrics come from the traced half.  Every
retrieved bit, payload size and verdict is checked; misses count in
``failed``.  The environment and a human-readable table come first; the
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  A full report (environment, set-up samples, request counts,
first errors) and the spans of a traced run are written under
``.bench_out/``.  The exit
code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    tw_reuse = _read("/proc/sys/net/ipv4/tcp_tw_reuse")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "tcp_tw_reuse": tw_reuse.strip() if tw_reuse else None,
        "network": "loopback only: servers bind 127.0.0.1",
    }


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(name, args, result, spec, env) -> tuple[dict, dict]:
    """The contract line and the full report of one workload run."""
    from workloads import end_to_end_metrics, layer_metrics, unbounded_metrics

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer_metrics(result) if args.trace else end_to_end_metrics(result)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(p.attempted for p in result.phases)
    failed = sum(p.failed for p in result.phases)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "failure_ratio": failed / attempted,
        "unbounded_metrics": {} if args.trace else {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in unbounded_metrics(result).items()},
        "setup_s_samples": result.setup_s,
        "requests": [len(p.latencies) for p in result.phases],
        "errors": result.workload.errors,
        **line,
    }
    return line, report


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "pirlab", "__init__.py")):
        print(f"error: no pirlab sources under {SRC}", file=sys.stderr)
        return 2
    spec_text = _read(os.path.join(ROOT, "BENCHMARK.json"))
    if spec_text is None:
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_text)
    sys.path.insert(0, SRC)
    import pirlab

    if not os.path.abspath(pirlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported pirlab from {pirlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run

    args = _parse_args(argv, list(WORKLOADS))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # SIGTERM unwinds like Ctrl-C, so the finally blocks stop every server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    print("environment: " + json.dumps(env))
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace), work_dir, SRC)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        line, report = _result_line(name, args, result, spec, env)
        stem = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w") as fh:
            json.dump(report, fh, indent=1)
        if result.tracer:
            result.tracer.dump(stem + "-spans.json")
        print(f"{name} seed={args.seed} trace={args.trace} "
              f"requests={report['requests']} setups={len(result.setup_s)}")
        print(f"  one request = one {result.workload.request_kind}")
        for metric, entry in {**line["metrics"], **report["unbounded_metrics"]}.items():
            print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failure_ratio':34s} {report['failure_ratio']:>14.6g} "
              f"({line['failed']}/{line['attempted']})")
        for error in report["errors"]:
            print(f"  error: {error}")
        print(f"  report: {os.path.relpath(stem, ROOT)}.json")
        print(json.dumps(line))
        all_correct &= line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
