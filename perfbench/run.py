#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve|plan --seed N --seconds S --trace 0|1

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build). The last
line of standard output is the result as one JSON object; everything
else goes to standard error.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself must finish well inside the 180-second limit;
# past this its whole process group (daemons included) is killed.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds the release daemon and the benchmark; exits on failure."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "netrec-sim", "--bin", "netrec-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in commands:
        result = subprocess.run(command, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(result.returncode or 1)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--cli", os.path.join(release, "netrec-cli")]
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
