#!/usr/bin/env python3
"""Run one command and fail if its peak resident set size exceeds a bound.

    python3 scripts/check_peak_rss.py --max-mb 64 -- \\
        build/locald run fig1-layered-trees --threads 1

The child's stdout is discarded; its stderr passes through. The peak is the
child's `ru_maxrss` (kilobytes on Linux) from `getrusage(RUSAGE_CHILDREN)`,
read after it exits, divided by 1024 as perfbench/run.py reports
`peak_rss_mb`. A child spawned from Python reports at least this
interpreter's own peak (about 14 MB), so the figure is an upper bound on
the command's own peak; the bound must leave room for that floor. Exit
status: the child's own status if it failed,
1 if it used more than --max-mb, 0 otherwise.
"""
import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="largest allowed peak RSS in MB (ru_maxrss / 1024)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    status = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB (bound {args.max_mb:g} MB): "
          f"{' '.join(command)}")
    if status != 0:
        print(f"command exited with status {status}", file=sys.stderr)
        return status if status > 0 else 1
    if peak_mb > args.max_mb:
        print(f"peak RSS {peak_mb:.1f} MB exceeds {args.max_mb:g} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
