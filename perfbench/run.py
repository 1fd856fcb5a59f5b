#!/usr/bin/env python3
"""Build dpserver and the perfbench load generator from source, then run
one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot-reads --seed 1 --seconds 15 --trace 0

Every argument is passed on to perfbench (see perfbench/main.go). All
build outputs, server stores, logs, result records and trace spans go
under the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def go_env():
    """Keep the Go toolchain's caches and telemetry inside the build dir."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off",
               GOSUMDB="off", GOWORK="off", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def source_digest():
    """The commit if the tree is a git checkout, else a digest of the Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and
                             os.path.join(dirpath, d) != BUILD)
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = go_env()
    bin_dir = os.path.join(BUILD, "bin")
    os.makedirs(bin_dir, exist_ok=True)
    server = os.path.join(bin_dir, "dpserver")
    bench = os.path.join(bin_dir, "perfbench")
    for cmd, cwd in ((["go", "build", "-o", server, "./cmd/dpserver"], ROOT),
                     (["go", "build", "-o", bench, "."], BENCH)):
        built = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=850)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    work = os.path.join(BUILD, "runs", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        done = subprocess.run([bench, *sys.argv[1:], "--server", server, "--work", work,
                               "--commit", source_digest()], cwd=ROOT, env=env, timeout=175)
        return done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
