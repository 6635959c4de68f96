#!/usr/bin/env python3
"""Build the session-engine benchmark from source, then run one workload.

    python3 sessionbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library is compiled from ../src with the
repository's default build type into .bench_build/sessionbench; an up-to-date
build costs a second. Build output goes to stderr, so the last stdout line is
session_bench's result object. See sessionbench/NOTES.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sessionbench")
BINARY = os.path.join(BUILD, "session_bench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"sessionbench: build failed: {error}", file=sys.stderr)
        return 1
    # The library reads WDM_* switches (metrics, span tracing, logging) from
    # the environment; the benchmark times its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WDM_")}
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
