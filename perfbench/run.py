#!/usr/bin/env python3
"""Builds and runs the Shredder end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload backup_similar --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (and the library modules it links) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed. Build
output goes to stderr; the last stdout line is the result object, checked
against the metric lists in BENCHMARK.json before it is printed.
"""
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")


def main():
    root = os.getcwd()
    args = sys.argv[1:]
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    binary = build(build_dir)
    if "--selftest" in args:
        sys.exit(subprocess.run([binary, "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = False
    for i, arg in enumerate(args[:-1]):
        if arg == "--trace":
            trace = args[i + 1] == "1"
    cmd = [binary] + args + ["--commit", source_id(root)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode == 0:
        check_result(lines[-1], spec, trace)
    print("\n".join(lines), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
