"""One benchmark job in a fresh interpreter.

Usage: python3 bench/child.py '<request json>'

The request names the chromsg argv, the file that receives the report
and, for a traced job, the file that receives the spans.  A fixed
pure-Python reference loop is timed first, then the package is imported
(its import ends set-up), then one call of
`chromatic_semigroups.cli.main(argv)` is timed with stdout and stderr
captured.  The last stdout line is a JSON summary for the runner.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_loop():
    """Fixed interpreter work of the library's kinds: small-int arithmetic,
    dict updates and big-integer shifts and masks."""
    table = {}
    acc = 0
    bits = 1
    mask = (1 << 4000) - 1
    for i in range(6000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
        acc += i * i % 13
        if i % 64 == 0:
            bits = (bits | bits << 37) & mask
    return acc + len(table) + bits.bit_length()


def reference_s():
    """Shortest of three timings of `reference_loop`: how fast the CPU this
    child runs on executes Python right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    ref_start = time.monotonic()
    ref_s = reference_s()
    ref_wall = time.monotonic() - ref_start
    req = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from chromatic_semigroups import cli

    tracer = None
    if req.get("spans"):
        sys.path.insert(0, ROOT)
        from bench.tracing import Tracer
        tracer = Tracer(req["id"])
        tracer.install()
    ready = time.monotonic()

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(req["argv"])
        job_s = time.perf_counter() - start
    report = out.getvalue().encode("utf-8")
    with open(req["report"], "wb") as fh:
        fh.write(report)
    if tracer is not None:
        tracer.dump(req["spans"], len(report))
    print(json.dumps({"ready": ready, "ref_wall": ref_wall, "ref_s": ref_s,
                      "job_s": job_s, "rc": rc,
                      "stderr": err.getvalue()[-500:]}))


if __name__ == "__main__":
    main()
