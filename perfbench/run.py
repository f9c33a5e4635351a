#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <ingest|serve|analytics> --seed <n> \
        --seconds <s> --trace <0|1> [--scale full|small]

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); state directories live under it and are removed after the
run. The last line of stdout is the JSON result; see README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for manifest, extra in (("Cargo.toml", ["-p", "tkc-cli"]), ("perfbench/Cargo.toml", [])):
        build = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", os.path.join(ROOT, manifest)] + extra
        # Cargo's output goes to stderr: stdout carries only the result.
        code = subprocess.call(build, cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build of {manifest} failed ({code})")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = [bench] + sys.argv[1:] + [
        "--tkc", os.path.join(release, "tkc"),
        "--workdir", os.path.join(target, "perfbench-work"),
    ]
    sys.stdout.flush()
    # Replace this process, so the benchmark's exit is the command's exit.
    os.chdir(ROOT)
    os.execve(bench, args, env)


if __name__ == "__main__":
    main()
