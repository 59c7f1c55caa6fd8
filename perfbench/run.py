#!/usr/bin/env python3
"""Build and run the gpm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (its own cargo workspace, against the repository's
crates by path) in release mode, then runs it with the given arguments.
The build goes to `$CARGO_TARGET_DIR`, or `.bench_build` in the current
directory when that is unset. The last line of standard output is the
result JSON; build output goes to standard error. Exits non-zero, without
a result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself must end well inside the caller's 180-second limit.
RUN_TIMEOUT_S = 170


def tree_digest():
    """Short content digest of the sources the benchmark builds from
    (a commit stand-in: the benchmark may run outside a git checkout)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock"),
             os.path.join(HERE, "Cargo.toml")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               env=env).stdout.strip() or "unknown"
    except OSError:
        rustc = "unknown"
    print(f"build: rustc=\"{rustc}\" tree={tree_digest()}", flush=True)
    args = [os.path.join(target, "release", "gpm-perfbench"), *sys.argv[1:]]
    try:
        return subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
