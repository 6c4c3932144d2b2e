#!/usr/bin/env python3
"""Build hostbench from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload serve-static --seed 3 --seconds 10 --trace 0

Every argument is passed to the hostbench binary. The Go build cache, the
binary and the traced run's spans all go under .bench_build/ in the current
directory, so nothing is read or written outside it. The exit code is the
binary's; a failed build exits with 1 before anything is printed to stdout.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("hostbench: no go.mod here; run from the repository root\n")
        return 2
    build = os.path.join(root, ".bench_build", "hostbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "hostbench")
    built = subprocess.run(["go", "build", "-o", binary, "./hostbench"], env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("hostbench: build failed\n")
        return 1
    spans = os.path.join(build, "spans")
    return subprocess.run([binary, "--spans-dir", spans] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
