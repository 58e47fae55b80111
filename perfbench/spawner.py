"""Runs CLI commands for the benchmark from a small process of its own.

A child's peak RSS (``ru_maxrss``) counts the RSS of the process it was
spawned from, because it runs in that process's memory until it execs.
Spawned from the benchmark, which holds whole worlds in memory, every
command would read at least the benchmark's size; spawned from here, a
process of a few MiB, it reads its own.

Reads one JSON request per line on stdin, ``{"argv": [...], "cwd": ...,
"timeout": ...}``, runs it and answers with one JSON line: ``returncode``,
``wall_s``, ``stdout``, ``stderr`` and ``peak_rss_kib``, the largest peak
RSS of any command run so far. Exits at the end of its input.
"""

import json
import resource
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        try:
            proc = subprocess.run(request["argv"], cwd=request["cwd"], capture_output=True,
                                  text=True, timeout=request["timeout"])
            returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            returncode, stdout, stderr = -1, "", f"timed out after {exc.timeout} s"
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps({
            "returncode": returncode, "wall_s": wall, "stdout": stdout, "stderr": stderr,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
