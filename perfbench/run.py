#!/usr/bin/env python3
"""memdis benchmark: build the benchmark binary, run one workload, print one result line.

    python3 perfbench/run.py --workload stream-spill --seed 1 --seconds 20 --trace 0

Run from the root of a memdis source tree. The first run configures and
builds `perfbench_memdis` (perfbench/CMakeLists.txt, which reuses the
repository's own library build) under $CARGO_TARGET_DIR or `.bench_build`;
later runs rebuild incrementally. The last line of stdout is the result:

    {"correct": true, "attempted": 45, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. `correct` also covers the exact
simulated counts: for the committed seed of perfbench/expected.json every
count must match the recorded value bit for bit, and each mismatch counts
as a failed operation. `--record-expected` re-records them (only for that
seed) after a deliberate model change.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream-spill", "gather-spill", "migrate-queue", "fleet-rack")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs cmd with stdout sent to stderr; stops it if it overruns."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s")
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another source tree
    if not cache.exists():
        run_checked(["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_checked(["cmake", "--build", str(bdir), "--target", "perfbench_memdis",
                 "-j", "4"], timeout=840)
    return bdir


def run_binary(binary, args, out_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"perfbench_memdis timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_memdis exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench_memdis printed no result")
    return json.loads(lines[-1])


def check_expected(result, workload, seed, record):
    """Compares exact simulated counts with the recorded ones; returns the
    number of mismatching counts (each one a failed operation)."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    if seed != expected["seed"]:
        return 0
    if record:
        expected["workloads"][workload] = result["exact"]
        path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        log(f"recorded {len(result['exact'])} exact counts for {workload}")
        return 0
    want = expected["workloads"].get(workload)
    if want is None:
        log(f"no recorded counts for {workload}")
        return 1
    got = result["exact"]
    bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    for k in bad:
        log(f"exact count {k}: expected {want.get(k)!r}, got {got.get(k)!r}")
    return len(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        bdir = build()
        result = run_binary(bdir / "perfbench_memdis", args, bdir / "out")
        mismatches = check_expected(result, args.workload, args.seed, args.record_expected)
    except (OSError, RuntimeError, ValueError, KeyError) as err:
        log(f"error: {err}")
        return 1

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if args.trace:
        # A layer the workload does not drive did no work: report it as 0.
        for m in declared:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    wrong = [m["name"] for m in declared if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if unknown or wrong:
        log(f"error: undeclared metrics {unknown}, missing or mis-unit metrics {wrong}")
        return 1
    for failure in result["failures"]:
        log(f"failed: {failure}")
    failed = result["failed"] + mismatches
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(result["attempted"], failed, 1),
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
