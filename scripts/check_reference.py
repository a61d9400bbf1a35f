#!/usr/bin/env python3
"""Replay every request in perfbench/reference.json and compare its bytes.

Run from the repository root after building locald:

    python3 scripts/check_reference.py --locald build/locald --threads 4

Each digest in perfbench/reference.json names one request: `locald list
--format json` (the "list" key) or one `locald run` / `locald sweep` tuple.
The script runs each request with the argv that perfbench/run.py builds
(`cli_args`, imported, so the two cannot drift) and compares the SHA-256
of its stdout with the recorded digest. Documents do not depend on
--threads, so any thread count must reproduce them. Exit status 0 when every
digest reproduces, 1 otherwise.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked in

from run import LIST_KEY, REFERENCE, cli_args  # noqa: E402


def argv_of(locald, key, threads):
    if key == LIST_KEY:
        return [locald, "list", "--format", "json"]
    return cli_args(locald, json.loads(key), threads)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--locald", default="build/locald")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    with open(REFERENCE) as f:
        digests = json.load(f)["digests"]
    failures = 0
    start = time.monotonic()
    for key, want in sorted(digests.items()):
        argv = argv_of(args.locald, key, args.threads)
        done = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        got = hashlib.sha256(done.stdout).hexdigest()
        if done.returncode != 0 or got != want:
            failures += 1
            print(f"MISMATCH {' '.join(argv[1:])}: exit {done.returncode}, "
                  f"sha256 {got}, want {want}")
            if done.stderr:
                print(done.stderr.decode(errors="replace").rstrip())
    print(f"{len(digests) - failures}/{len(digests)} reference documents "
          f"reproduced in {time.monotonic() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
