#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload echo-closed --seed 1 --seconds 15 --trace 0

The Go program in this directory is built from source on every call (the
build cache makes repeat builds quick) into $CARGO_TARGET_DIR, default
.bench_build, with the Go build cache, module path and config directory
also inside it, so a run reads and writes only inside the checkout. Every
argument is passed through to the program; see README.md.
"""

import os
import subprocess
import sys


def commit(root):
    """The checkout's commit, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOPATH=os.path.join(out, "gopath"),
               XDG_CONFIG_HOME=os.path.join(out, "config"),
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOFLAGS="")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-commit", commit(root), "-out", os.path.join(out, "traces")]
    return subprocess.run(args + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
