#!/usr/bin/env python3
"""Build and run the hcham end-to-end benchmark.

    python3 hbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark package (hbench/) is
configured and built into .bench_build/ with the library sources of the
tree, then hbench runs one workload. Its last line of output is the result
JSON; the result record with provenance and, with --trace 1, the Chrome
trace are written to .bench_out/.

Every number must measure the default program, so the run refuses to start
while any HCHAM_* environment variable is set.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("bem_complex", "bem_real_fine", "solve_stream")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def knobs_set():
    return sorted(k for k in os.environ if k.startswith("HCHAM_"))


def source_rev():
    """git revision when the tree is a checkout, plus a hash of the sources
    so that a tree without git history is still identified."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "hbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    return f"{git or 'nogit'}+src.{h.hexdigest()[:12]}"


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", os.path.join(ROOT, "hbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "hbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd), 3)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    knobs = knobs_set()
    if knobs:
        fail("unset " + ", ".join(knobs) +
             ": the benchmark measures the default program only")

    # Compiler and run temporaries stay inside the tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(env)
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "hbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out-dir", OUT, "--rev", source_rev()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
