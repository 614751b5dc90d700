#!/usr/bin/env python3
"""Build and run the lbmv end-to-end benchmark (see README.md here).

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload epochs --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from source into .bench_build/ (the
first run compiles; later runs only check that the build is current), then
runs the benchmark binary with the same arguments.  The last line of
standard output is the benchmark's JSON result.  Exits non-zero, without a
result, when the build fails (for example when the library sources are not
next to this directory).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
BINARY = CMAKE_DIR / "lbmv_e2e"
BUILD_LOG = BUILD_DIR / "build.log"


def build():
    """Configure (once) and build the benchmark; True on success."""
    BUILD_DIR.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (CMAKE_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "lbmv_e2e",
                  "-j", jobs])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library and benchmark sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "e2e_bench", "CMakeLists.txt"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    if not build():
        sys.stderr.write("e2e_bench: build failed; see %s\n" % BUILD_LOG)
        try:
            sys.stderr.write(BUILD_LOG.read_text()[-4000:])
        except OSError:
            pass
        return 1
    command = [str(BINARY)] + sys.argv[1:] + [
        "--commit", source_id(), "--trace-dir", str(BUILD_DIR)]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
