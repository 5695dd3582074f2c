"""Spawn benchmark children one at a time and report what each used.

The runner sends one JSON request per line on stdin ({"argv": [...],
"cap": seconds}) and reads one JSON reply per line on stdout.  Children
come from this small process rather than from the runner because Linux
folds the spawning process's peak RSS into the child's ru_maxrss at exec;
the runner grows while it checks reports, this process does not.
"""

import json
import os
import select
import subprocess
import sys
import time

KEEP_BYTES = 4000


def run(argv, cap):
    spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    fd = proc.stdout.fileno()
    tail = b""
    timed_out = False
    while True:
        left = spawn + cap - time.monotonic()
        if left <= 0:
            timed_out = True
            proc.kill()
            break
        readable, _, _ = select.select([fd], [], [], left)
        if readable:
            data = os.read(fd, 65536)
            if not data:
                break
            tail = (tail + data)[-KEEP_BYTES:]
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return {
        "spawn": spawn,
        "wall_s": time.monotonic() - spawn,
        "exit": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
        "out": tail.decode("utf-8", "replace"),
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["cap"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
