#!/usr/bin/env python3
"""Build and run hoiho's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources
into .bench_build/ (build cache included), then run with the same
arguments. Everything it reads and writes stays inside the checkout.
The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    # The benchmark measures the hoiho sources next to it; without them
    # there is nothing to build.
    for need in ("go.mod", os.path.join("internal", "serve"), os.path.join("internal", "cluster")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found next to the benchmark; run it from a hoiho checkout", file=sys.stderr)
            return 2

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": os.path.join(BUILD, "home"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
