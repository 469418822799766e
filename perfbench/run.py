#!/usr/bin/env python3
"""Build and run the router benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fullload|churn|routeserver|xrl> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go program (a module of its own in this directory that
imports the router's packages from the checkout). It is built into
.bench_build/ with the build cache kept there too, so nothing is read or
written outside the checkout but the Go toolchain itself, and then run
with the arguments given. Its last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; a run must end well within 180


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=HERE, env=env
    ).returncode


def main():
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
