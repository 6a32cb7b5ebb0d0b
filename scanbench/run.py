#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 scanbench/run.py --workload cluster --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary unchanged. The binary is
built into .bench_build/ at the repository root, with the Go build cache,
module cache, temporary files and tool configuration kept there too, so a
run reads and writes only inside the checkout. The build uses no network.
The exit status is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(BUILD, "scanbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("scanbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
