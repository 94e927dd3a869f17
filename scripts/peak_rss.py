#!/usr/bin/env python3
"""Run one command and report its wall time and peak resident set size.

    python3 -S scripts/peak_rss.py -- ftmd solve --verify graph.txt

The command inherits standard input and output. When it ends, one JSON
line goes to standard error: ``wall_s`` (from start to reaping),
``maxrss_mb`` (``ru_maxrss`` from ``os.wait4``, in MiB) and ``exit`` (its
exit status, or minus the signal number). The script exits with the
command's status.

The command is started with ``posix_spawn``, which may share this process's
address space until ``exec``; the child's ``ru_maxrss`` then starts from
this process's own high-water mark. This script imports only builtin
modules, so under ``python3 -S`` that floor is a bare interpreter's size
(about 8 MB), not that of a large parent process.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: peak_rss.py -- CMD [ARG ...]", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ)
    except OSError as err:
        print(f"peak_rss.py: cannot run {argv[0]}: {err}", file=sys.stderr)
        return 127
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    mb = usage.ru_maxrss / 1024
    print(f'{{"wall_s": {wall:.3f}, "maxrss_mb": {mb:.1f}, "exit": {code}}}', file=sys.stderr)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
