#!/usr/bin/env python3
"""Run a command and fail if its peak resident set size passes a ceiling.

    python3 scripts/rss_ceiling.py MB command [args...]

GOMEMLIMIT cannot serve as a memory ceiling: it is a soft limit, and the
Go runtime lets the heap grow past it rather than fail. This wrapper
reads the child's peak RSS (ru_maxrss) after it exits and fails when it
is above MB megabytes (2^20 bytes). Run a built binary, not `go run`,
whose compiler would be the child measured. A command that fails on its
own keeps its exit status.
"""
import os
import resource
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    ceiling_mb = float(sys.argv[1])
    rc = subprocess.call(sys.argv[2:])
    # ru_maxrss is in KB on Linux: the largest peak among waited-for
    # children, and this process has waited for exactly one.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    name = os.path.basename(sys.argv[2])
    print(f"rss_ceiling: {name} peak RSS {peak_mb:.0f} MB, ceiling {ceiling_mb:.0f} MB", file=sys.stderr)
    if rc != 0:
        return rc
    if peak_mb > ceiling_mb:
        print(f"rss_ceiling: {name} went over its memory ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
