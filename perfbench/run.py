#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out results.jsonl] [--tiny]

Builds perfbench/ (a CMake package compiling ../src) into $CARGO_TARGET_DIR
or .bench_build/, runs the driver, prints every metric with its unit, the
correctness gates and the run manifest, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is non-zero when a correctness gate fails.
--out appends the full record (manifest, gates, all metrics) to a JSON-lines
file that perfbench/compare.py reads. --tiny runs smoke-test sizes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def source_hash():
    """sha256 over the library sources, the benchmark and BENCHMARK.json."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "BENCHMARK.json")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, n) for n in sorted(filenames)
                      if not n.endswith(".pyc")]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_state():
    def git(*args):
        proc = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    try:
        sha = git("rev-parse", "HEAD")
    except OSError:
        sha = None
    if sha is None:
        return "none", "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return sha, "dirty" if dirty else "clean"


def fmt(value):
    return "%.6g" % value


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the full record here (JSONL)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload %r (have %s)" %
            (args.workload, ", ".join(names)))
        return 2

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", "1" if args.tiny else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: driver exited %d without a result" % proc.returncode)
        return 1

    manifest = record["manifest"]
    manifest["git_sha"], manifest["git_tree"] = git_state()
    manifest["source_hash"] = source_hash()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = record["layers"] if args.trace else record["e2e"]
    gates = record["gates"]
    metrics = {}
    not_exercised = []
    for m in wanted:
        got = produced.get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not run: reported as zero.
            not_exercised.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            gates.append({"name": "metric_" + m["name"], "ok": False,
                          "detail": "end-to-end metric not produced"})
            continue
        if not args.trace and not got["value"] > 0:
            gates.append({"name": "metric_" + m["name"], "ok": False,
                          "detail": "end-to-end metric is %r" % got["value"]})
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    attempted = max(1, int(record["attempted"]))
    failed = int(record["failed"])
    correct = (proc.returncode in (0, 1) and failed == 0 and
               all(g["ok"] for g in gates))

    print("== perfbench %s (seed %d, %g s, trace %d)" %
          (args.workload, args.seed, args.seconds, args.trace))
    for key in sorted(manifest):
        print("manifest %-12s %s" % (key, manifest[key]))
    for g in gates:
        print("gate %-28s %s  %s" % (g["name"], "ok  " if g["ok"] else "FAIL",
                                     g["detail"]))
    print("failed_fraction %s (%d of %d operations)" %
          (fmt(failed / attempted), failed, attempted))
    for note in record["notes"]:
        print("note " + note)
    for kind, table in (("end_to_end", record["e2e"]),
                        ("per_layer", record["layers"])):
        for name in sorted(table):
            print("%s %-32s %14s %s" % (kind, name, fmt(table[name]["value"]),
                                        table[name]["unit"]))
    if not_exercised:
        print("per_layer not exercised by this workload (reported as 0): " +
              ", ".join(not_exercised))

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "correct": correct,
                "attempted": attempted, "failed": failed,
                "manifest": manifest, "gates": gates,
                "e2e": record["e2e"], "layers": record["layers"]}) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
