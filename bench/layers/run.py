#!/usr/bin/env python3
"""Builds bench_layers from source, then runs one workload.

    python3 bench/layers/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--out <file.json>]

The build goes to .bench_build/layers under the repository root (both
configure and build are incremental); the benchmark's scratch files and
Perfetto traces go to .bench_build/work. Every argument is passed on to the
binary. Standard output is the binary's, except that its last line, the
JSON result, is printed only once its metric names and units match
BENCHMARK.json. Exits non-zero, without a result line, when the build fails
or the result does not match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
SOURCE = os.path.join(ROOT, "bench", "layers")
BUILD = os.path.join(ROOT, ".bench_build", "layers")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build(env):
    subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "bench_layers"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "bench_layers")


def expected_metrics(per_layer):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if per_layer else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    expected = expected_metrics(known.trace == "1")

    # Compiler temporaries stay inside the tree too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    child = subprocess.Popen([binary, "--workdir", WORK] + sys.argv[1:],
                             stdout=subprocess.PIPE, env=env, text=True)
    last = None
    for line in child.stdout:
        if last is not None:
            sys.stdout.write(last)
            sys.stdout.flush()
        last = line
    status = child.wait()

    try:
        result = json.loads(last or "")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        if last:
            sys.stdout.write(last)
        print(f"run.py: bench_layers exited with {status} and no result", file=sys.stderr)
        return status or 1
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}, unit mismatch {units}", file=sys.stderr)
        return 3
    sys.stdout.write(last)
    return status


if __name__ == "__main__":
    sys.exit(main())
