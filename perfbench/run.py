"""Benchmark for prefix-global: corpus builds, attention kernels, page-to-forward-pass.

    python3 perfbench/run.py --workload corpus-build --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. This process uses the standard library only.
It generates the seeded corpus, times set-up in fresh processes (probe.py),
and starts worker.py, which imports the package from ./src, runs the
workload for --seconds, and checks every output against independent oracles. The last
line of standard output is one JSON object: with --trace 0 its metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced run.
Lines before it, each starting with "#", describe the machine, the corpus
and the workload's own named metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from metrics import layer_unit  # noqa: E402

WORKER = HERE / "worker.py"
PROBE = HERE / "probe.py"
PACKAGE = ROOT / "src" / "prefix_global"
DEMO_CORPUS = PACKAGE / "data" / "demo_corpus.jsonl"
CORPUS_WORKLOADS = ("corpus-build", "page-attend")  # both read one block of corpus.BLOCK_PAGES pages
SETUP_PROBES = 5  # fresh processes timed for setup_s
TIMEOUT_MARGIN_S = 140


def child_env() -> dict:
    """BLAS and OpenMP pinned to one thread, set before numpy loads: on a
    2-core machine a second BLAS thread makes the l=2048 full pass slower,
    so leaving it free would measure the scheduler. PREFIX_GLOBAL_THREADS is
    removed so the pipeline runs at its default."""
    env = {k: v for k, v in os.environ.items() if k != "PREFIX_GLOBAL_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def child(script: pathlib.Path, *args, timeout: float):
    """Run a child script to completion; return the JSON value on its last line."""
    proc = subprocess.run([sys.executable, str(script), *args], stdout=subprocess.PIPE, text=True,
                          timeout=timeout, cwd=ROOT, env=child_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{script.name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["corpus-build", "attend-sweep", "page-attend"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file() or not DEMO_CORPUS.is_file():
        print(f"no prefix_global sources under {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally = {}
        if args.workload in CORPUS_WORKLOADS:
            tally = corpus.generate(work / "corpus.jsonl", args.seed, 1, corpus.vocabulary(DEMO_CORPUS))
        (work / "tally.json").write_text(json.dumps(tally))
        setups = [] if args.trace else [child(PROBE, timeout=60) for _ in range(SETUP_PROBES)]
        res = child(WORKER, "--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    timeout=args.seconds + TIMEOUT_MARGIN_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), **res["env"]}
    print("# env " + json.dumps(env))
    if tally:
        print("# corpus " + json.dumps({
            "seed": args.seed, "pages": tally["pages"], "lines": tally["lines"], "bytes": tally["bytes"],
            "malformed": tally["malformed"], "examples": {t: tally[t]["examples"] for t in corpus.TASKS},
            "prefix_capped": tally["prefix_capped"]}))
    if res["shape"]:
        print("# shape " + json.dumps(res["shape"]))
    print(f"# throughput counts {res['unit']}; {res['passes']} passes, rescaled rate per pass: "
          + " ".join(f"{r:.5g}" for r in res["pass_rates"]))
    print(f"# raw_throughput = {res['raw_throughput']:.6g} items/s (wall clock, not rescaled)")
    for name, (unit, value) in res["named"].items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# error_rate = {res['failed'] / max(res['attempted'], 1):.6g} ({res['failed']}/{res['attempted']} ops)")
    for failure in res["failures"]:
        print(f"# FAILED {failure}")

    if args.trace:
        if res["missing_wrap_points"]:
            print("# wrap points gone, their metrics left out: " + json.dumps(res["missing_wrap_points"]))
        print(f"# spans written to {res['trace_file']}")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in res["layers"].items()}
    else:
        print(f"# raw setup_s = {statistics.median(raw for raw, _ in setups):.6g} s (wall clock, not rescaled)")
        metrics = {
            "throughput": {"value": res["throughput"], "unit": "items/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
        }
    print(json.dumps({"correct": res["failed"] == 0 and not res["failures"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
