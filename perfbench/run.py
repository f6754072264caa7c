#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload zipf-cached --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and the traced run's spans all live under
.bench_build/ in the current directory. Any build failure (for instance a
directory holding only the benchmark, without the repository it measures)
exits nonzero without printing a result.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
