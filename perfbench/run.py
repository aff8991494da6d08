#!/usr/bin/env python3
"""Build and run the smvx benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload nginx-strict --seed 42 --seconds 10 --trace 0

The benchmark is a Go program in its own module next to this script. It is
built from source on every invocation (incrementally after the first), and
the Go toolchain's cache, temporary files and home directory are all kept
under .bench_build/ so that nothing is written outside the checkout. The
program's exit status is passed through; a failed build exits nonzero
without printing a result.
"""

import os
import shutil
import subprocess
import sys


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    return os.path.join(goroot, "bin", "go")


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go_binary(), "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
