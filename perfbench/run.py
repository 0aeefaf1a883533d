#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
`.bench_build`); scratch files (journals, span dumps) go to `.bench_work`.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero without a result when the build
fails, e.g. when the repository's crates are not beside this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe] + sys.argv[1:] + ["--work", os.path.join(ROOT, ".bench_work")]
    sys.stdout.flush()
    os.execv(exe, args)
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
