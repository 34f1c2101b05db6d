"""Run one command as the only child of a fresh, small interpreter.

    python3 pipebench/launch.py COMMAND [ARGS...]

Prints one JSON line: the command's exit code, its wall time and the peak
resident set of its process tree. Linux carries a process's high-water RSS
across fork and exec, and RUSAGE_CHILDREN's ru_maxrss is a running maximum
over every reaped descendant, so the peak is only the command's own when its
parent is new and small and has run nothing else.
"""

import json
import resource
import subprocess
import sys
import time

started = time.perf_counter()
status = subprocess.call(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
wall_s = time.perf_counter() - started
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"returncode": status, "wall_s": wall_s, "peak_rss_kb": peak_kb}))
