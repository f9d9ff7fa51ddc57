#!/usr/bin/env python3
"""Build and run the rastor benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own, depending on the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs the workload in
a fresh process on a fresh data directory inside the target directory,
removed afterwards. The last line of standard output is the run's JSON
result. `--workload all` runs every workload of BENCHMARK.json in turn and
ends with a table of their metrics instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        return run(target, args.workload, args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results, status = {}, 0
    for name in names:
        with tempfile.TemporaryFile("w+", dir=target) as out:
            code = run(target, name, args, stdout=out)
            out.seek(0)
            lines = out.read().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
        results[name] = result
    print(f"{'metric':<40} {'unit':<8}" + "".join(f"{n:>18}" for n in names))
    metrics = next((r["metrics"] for r in results.values() if r), {})
    for metric, m in metrics.items():
        cells = "".join(
            f"{r['metrics'][metric]['value']:>18.3f}" if r else f"{'failed':>18}"
            for r in results.values()
        )
        print(f"{metric:<40} {m['unit']:<8}" + cells)
    return status


def run(target, workload, args, stdout=None):
    """Run one workload in a fresh process on a fresh data directory."""
    started = time.monotonic()
    data = tempfile.mkdtemp(prefix="perfbench-data-", dir=target)
    try:
        proc = subprocess.run(
            [
                os.path.join(target, "release", "rastor_perfbench"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--data-dir", data,
            ],
            cwd=ROOT,
            stdout=stdout,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
