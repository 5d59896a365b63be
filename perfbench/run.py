#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`),
prints one provenance line, then runs the benchmark single-threaded with
`STAR_SERVE_SHARDS` unset. The benchmark's last line of standard output
is its JSON result; on any failure the script prints no result and exits
with a non-zero code.

    python3 perfbench/run.py --pin <first>-<last>

rewrites `perfbench/digests.json` with the output digests of every
workload at the seeds in that range.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ["attention_ideal", "softmax_noisy", "serve_steady", "whatif_a11"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Worker threads of the library's executor: one, so that timings do not
# depend on what else shares the machine's cores.
EXEC_THREADS = "1"


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def bench_env():
    env = os.environ.copy()
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    env["STAR_EXEC_THREADS"] = EXEC_THREADS
    env.pop("STAR_SERVE_SHARDS", None)
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "target" not in os.path.relpath(d, ROOT).split(os.sep)]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(seed, trace):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "exec_threads": int(EXEC_THREADS),
        "seed": seed,
        "trace": trace,
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (no git checkout)",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_bench(binary, env, workload, seed, seconds, trace):
    """Runs the benchmark once; returns its stdout lines, or exits."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    return lines


def pin(binary, env, seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            lines = run_bench(binary, env, workload, seed, 0.001, 0)
            digest = [l.split()[1] for l in lines if l.startswith("digest ")][-1]
            result = json.loads(lines[-1])
            if not result["correct"]:
                fail(f"{workload} seed {seed} fails its checks: " + "; ".join(
                    l for l in lines if l.startswith("FAILED")))
            table[workload][str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", file=sys.stderr)
    write_pins(table)


def write_pins(table):
    with open(os.path.join(BENCH, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pin", metavar="FIRST-LAST")
    args = p.parse_args()
    env = bench_env()
    if args.pin:
        m = re.fullmatch(r"(\d+)-(\d+)", args.pin)
        if not m:
            fail("--pin takes a seed range such as 0-24")
        with open(os.path.join(BENCH, "digests.json")) as fh:
            old = json.load(fh)
        # Build without the old pins, which the new outputs must not meet;
        # put them back if any seed fails.
        write_pins({})
        try:
            pin(build(env), env, range(int(m.group(1)), int(m.group(2)) + 1))
        except SystemExit:
            write_pins(old)
            raise
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    binary = build(env)
    print("provenance " + json.dumps(provenance(args.seed, args.trace), sort_keys=True))
    lines = run_bench(binary, env, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
