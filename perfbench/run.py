#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--inject-wrong-output]

Run from the repository root. Builds perfbench/ (which compiles ../src) as a
Release CMake project under $CARGO_TARGET_DIR (default .bench_build), runs
the workload, checks every reported metric against BENCHMARK.json, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero without a result line when the sources,
the build or the run are unusable, and with 1 when an output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"shackle sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log})")
    return build_dir / "perfbench"


def declared_metrics(trace):
    """(name -> unit) for the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--inject-wrong-output", action="store_true",
                    help="corrupt one output to prove the checks catch it")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"BENCHMARK.json not found under {ROOT}")
    trace = args.trace == "1"
    declared = declared_metrics(trace)

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    # Scratch files (JIT modules, the service socket, traces, records) stay
    # inside the build directory. The socket path is passed relative to the
    # root, which the binary runs in: Unix socket paths are short.
    work = build_dir / "work"
    tmp = build_dir / "tmp"
    work.mkdir(exist_ok=True)
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.relpath(work, ROOT)]
    if args.inject_wrong_output:
        cmd.append("--inject-wrong-output")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}", 3)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Every reported metric must be declared with the same unit; with
    # --trace 0 every end-to-end metric must be present. A per-layer metric
    # a workload cannot produce would be missing too: that is an error.
    metrics = {}
    for name, entry in result["metrics"].items():
        base = name.split("/", 1)[1] if args.workload == "all" else name
        if declared.get(base) != entry["unit"]:
            fail(f"metric {name} ({entry['unit']}) is not declared with that "
                 f"unit in BENCHMARK.json", 3)
        metrics[name] = entry
    if args.workload != "all":
        missing = sorted(set(declared) - set(metrics))
        if missing:
            fail(f"metrics missing from the result: {', '.join(missing)}", 3)
    print(f"elapsed: {time.monotonic() - start:.1f} s")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
