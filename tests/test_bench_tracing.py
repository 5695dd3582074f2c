"""The benchmark's tracer still finds every kernel it reports on.

`bench/tracing.py` wraps package functions by name and leaves out the
metrics of any function it cannot find, so deleting or renaming a traced
kernel silently drops per-layer metrics from a benchmark run.  This test
installs the tracer as a benchmark job does and checks that every
per-layer metric named in BENCHMARK.json can still be derived.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs in a child interpreter: installing the tracer rebinds package
# functions, which must not leak into the other tests
PROBE = r"""
import json, os, sys, tempfile
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), root]
from chromatic_semigroups import cli
from bench.tracing import LayerStats, Tracer
tracer = Tracer(0)
tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "spans.json")
    tracer.dump(path, 0)
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
stats = LayerStats()
stats.add(dump)
print(json.dumps(sorted(stats.metrics())))
"""


def test_tracer_derives_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        want = {m["name"] for m in json.load(fh)["per_layer"]}
    want.discard("trace.overhead_frac")  # timed by the runner, not a span
    run = subprocess.run([sys.executable, "-c", PROBE, ROOT],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    got = set(json.loads(run.stdout))
    assert sorted(want - got) == []
