"""Start the benchmark's children from a process that stays small.

    python3 perfbench/launcher.py

On Linux a child's `ru_maxrss` starts from the high-water RSS of the process
that forked it, because the forked memory's peak is carried across `exec`.
The harness holds numpy, qlink and parsed outputs, so a child it forked
directly would report at least the harness's own peak. This process imports
only the standard library, and the harness starts every child through it.

Protocol, one JSON object per line: the request on stdin is
`{"argvs": [[...], ...], "stderr": path}`; the children run one after the
other, each reaped with `os.wait4`. The reply on stdout is
`{"wall_s": first spawn to last exit, "children": [{"code", "wall_s",
"maxrss_kb", "stderr"}, ...]}`. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run_children(argvs: list, stderr_path: str) -> dict:
    children = []
    first = time.perf_counter()
    for argv in argvs:
        with open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stderr_path) as err:
            tail = err.read()[-500:]
        children.append({"code": proc.returncode, "wall_s": wall,
                         "maxrss_kb": usage.ru_maxrss, "stderr": tail})
    return {"wall_s": time.perf_counter() - first, "children": children}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_children(request["argvs"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
