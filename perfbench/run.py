#!/usr/bin/env python3
"""Build and run the kbtim serving benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 24 --trace 0

Builds `kbtim` and the `perfbench` load generator from source (release,
offline, into $CARGO_TARGET_DIR or .bench_build/), then runs one
measurement. The last line of standard output is the result object;
everything before it is the human-readable report. Scratch files go to
.bench_work/ and span traces to .bench_out/, both under the checkout root.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_hash():
    """SHA-256 over the sources the benchmark builds, for the fingerprint."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def build(env):
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "kbtim"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    if "KBTIM_FAILPOINTS" in os.environ:
        sys.exit("perfbench: KBTIM_FAILPOINTS is set; refusing to measure with failpoints armed")
    for need in ("Cargo.toml", "src/bin/kbtim.rs", "crates/index/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} is missing; run from a kbtim checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wanted = [m["name"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # no-op when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--kbtim", os.path.join(target, "release", "kbtim"), "--work", work,
           "--commit", commit(), "--source-hash", source_hash()]
    # A session of its own, so a timeout takes any server child down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        sys.exit(f"perfbench: run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    got = list(result["metrics"])
    if sorted(got) != sorted(wanted):
        sys.exit(f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json {sorted(wanted)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
