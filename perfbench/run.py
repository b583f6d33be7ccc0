#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload echo --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the traces stay under .bench_build in the
checkout. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is the benchmark's, or
1 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
