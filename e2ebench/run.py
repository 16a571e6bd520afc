#!/usr/bin/env python3
"""Build the e2ebench benchmark from source and run it.

Run from the repository root:

    python3 e2ebench/run.py --workload aux-heavy --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary go under .bench_build/
in the current directory, so the benchmark reads and writes nothing
outside the checkout apart from the Go toolchain itself. Arguments are
passed to the benchmark unchanged; its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "e2ebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
