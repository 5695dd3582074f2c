"""The benchmark's tracer still finds every kernel it reports on.

`bench/tracing.py` wraps package functions by name and leaves out the
metrics of any function it cannot find, so deleting or renaming a traced
kernel silently drops per-layer metrics from a benchmark run.  One test
installs the tracer as a benchmark job does and checks that every
per-layer metric named in BENCHMARK.json can still be derived.  Another
runs one cycle of traced jobs per workload and applies the layer checks
of a traced benchmark run, which fail when a workload stops calling a
layer its purpose names (or calls one it must not).  A third keeps the
boundary in the other direction: the package never imports `bench`, the
tests or the LP kept among them.
"""

import ast
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


# runs in a child interpreter, which imports bench/ but never the package:
# each job runs in a fresh bench/child.py, as in a traced benchmark run
CYCLE_PROBE = r"""
import json, os, subprocess, sys, tempfile
root, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, root)
from bench import oracles, tracing, workloads
problems = []
with tempfile.TemporaryDirectory() as tmp:
    for workload, cycle in workloads.CYCLES.items():
        stats = tracing.LayerStats()
        for i in range(len(cycle)):  # level 0 of every job kind
            job = workloads.job(workload, seed, i)
            argv = list(job.args)
            if job.doc is not None:
                argv.append(os.path.join(tmp, "doc.json"))
                with open(argv[-1], "w", encoding="utf-8") as fh:
                    json.dump(job.doc, fh)
            req = {"id": i, "argv": argv + ["--json"],
                   "report": os.path.join(tmp, "report.json"),
                   "spans": os.path.join(tmp, "spans.json")}
            run = subprocess.run(
                [sys.executable, os.path.join(root, "bench", "child.py"),
                 json.dumps(req)], capture_output=True, text=True, timeout=120)
            rc = json.loads(run.stdout.splitlines()[-1])["rc"]
            with open(req["report"], encoding="utf-8") as fh:
                report = fh.read()
            try:
                job.verify(rc, json.loads(report) if report else None)
            except (oracles.Mismatch, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{workload} {job.kind}: {exc!r}")
            with open(req["spans"], encoding="utf-8") as fh:
                stats.add(json.load(fh))
        # the rules of bench/run.py layer_checks
        for name in tracing.REQUIRED_CALLS[workload]:
            if name in stats.installed and not stats.calls.get(name):
                problems.append(f"{workload} never calls {name}")
        for name in tracing.FORBIDDEN_CALLS.get(workload, ()):
            if stats.calls.get(name):
                problems.append(f"{workload} calls {name}")
print(json.dumps(problems))
"""


def test_one_traced_cycle_per_workload_passes_the_layer_checks():
    run = subprocess.run([sys.executable, "-c", CYCLE_PROBE, ROOT, "1"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


# top-level modules that only a checkout (with the test runner's path)
# provides, the LP that moved out of the package into the tests, and the
# lattice helpers that each Hilbert cell's triangular form replaced
OUTSIDE_SRC = {"bench", "tests", "conftest", "lp_reference"}
GONE_FROM_SRC = {"_simplex", "_lattice"}


def test_src_never_imports_bench():
    src = os.path.join(ROOT, "src")
    scanned = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                    top = names
                elif isinstance(node, ast.ImportFrom):
                    # `from . import x` and `from .x import y` name x too
                    names = [node.module or ""] + [a.name for a in node.names]
                    top = [node.module or ""] if node.level == 0 else []
                else:
                    continue
                assert all(n.split(".")[0] not in OUTSIDE_SRC
                           for n in top), path
                assert not GONE_FROM_SRC & {part for n in names
                                            for part in n.split(".")}, path
            scanned += 1
    assert scanned >= 10
