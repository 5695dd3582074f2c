"""Benchmark for the `chromsg` batch command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --named
    python3 bench/run.py --self-check

A closed loop with one client: jobs run one at a time, each in a fresh
child interpreter (bench/child.py), so caches start cold as in a real CLI
call.  Jobs come from the seed (bench/workloads.py), and every report is
checked against an answer computed without the package (bench/oracles.py).
At most the runner, its small spawner (bench/launcher.py) and one child
exist at once, and only the child computes.

With --trace 0 the end-to-end metrics are measured; their times are
scaled to a nominal CPU speed that each child measures before its import
(see REF_S), and the raw wall times are printed beside them.  With
--trace 1 each job runs untraced and then traced, the per-layer metrics
come from the traced runs (bench/tracing.py) and the gap between the two
is reported as the tracing overhead.  --named runs the known-slow cases
ROADMAP names, one by one under the per-job cap.  Results land in
.bench_out/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import ast
import compileall
import hashlib
import importlib.abc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = "chromatic_semigroups"
JOB_CAP_S = 60
TAIL_LADDER = (99.9, 99, 90, 50)
# The CPU speed a shared VM gives one process drifts by up to 1.6x, from
# job to job (which vCPU it lands on) and over minutes, and set-up, which
# is identical work in every job, drifts with it.  Each child therefore
# times a fixed reference loop before its import (child.reference_s), and
# job and set-up times are scaled to seconds at a nominal speed, at which
# that loop takes REF_S (it takes 1.3-2.5 ms on the 2-core Xeon VM the
# benchmark was tuned on).  Raw wall times are printed and recorded too.
REF_S = 0.002

# metric names and units; failed_frac is printed with the end-to-end ones
# but is not a JSON metric: a passing run reads 0, and the
# "failed"/"attempted" fields carry it
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class _NoPackage(importlib.abc.MetaPathFinder):
    """The runner computes every expected answer, so it must never see the
    package under test; only job children import it."""

    def find_spec(self, name, path=None, target=None):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            raise ImportError(f"the benchmark runner does not import {name}")
        return None


sys.meta_path.insert(0, _NoPackage())
sys.path.insert(0, ROOT)

from bench import oracles, tracing, workloads  # noqa: E402


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    """Runs jobs through the spawner and keeps per-job records."""

    def __init__(self, outdir):
        self.outdir = outdir
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        # an installed package comes with its bytecode compiled; compile it
        # here, so children load it also where PYTHONDONTWRITEBYTECODE is set
        compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
        self.records = []
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=JOB_CAP_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def run(self, job, job_id, name=None, trace=False):
        """Run one job; return its record (and the span dump when traced)."""
        doc_path = os.path.join(self.outdir, "doc.json")
        report_path = os.path.join(self.outdir, "report.json")
        spans_path = os.path.join(self.outdir, "spans.tmp")
        argv = list(job.args)
        instance_sha = None
        if job.doc is not None:
            text = json.dumps(job.doc).encode("utf-8")
            instance_sha = hashlib.sha256(text).hexdigest()[:16]
            with open(doc_path, "wb") as fh:
                fh.write(text)
            argv.append(doc_path)
        argv.append("--json")
        req = {"id": job_id, "argv": argv, "report": report_path,
               "spans": spans_path if trace else None}
        for path in (report_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        self.spawner.stdin.write(json.dumps({
            "argv": [sys.executable, os.path.join(HERE, "child.py"),
                     json.dumps(req)],
            "cap": JOB_CAP_S}) + "\n")
        self.spawner.stdin.flush()
        res = json.loads(self.spawner.stdout.readline())

        shown = list(job.args) + (["<doc>"] if job.doc is not None else [])
        rec = {"id": job_id, "name": name, "kind": job.kind, "argv": shown,
               "instance_sha": instance_sha, "traced": trace,
               "exit": None, "job_s": None, "setup_s": None, "ref_s": None,
               "peak_rss_mb": res["maxrss_kb"] / 1024, "wall_s": res["wall_s"],
               "report_sha": None, "report_bytes": None,
               "ok": False, "wrong": False, "cause": None}
        dump = None
        try:
            if res["timed_out"]:
                raise _Failed(f"hit the {JOB_CAP_S}-s per-job cap")
            try:
                summary = json.loads(res["out"].strip().splitlines()[-1])
            except (ValueError, IndexError):
                raise _Failed("child failed: " + res["out"][-300:].strip())
            rec["exit"] = summary["rc"]
            rec["job_s"] = summary["job_s"]
            rec["setup_s"] = (summary["ready"] - res["spawn"]
                              - summary["ref_wall"])
            rec["ref_s"] = summary["ref_s"]
            with open(report_path, "rb") as fh:
                report = fh.read()
            rec["report_sha"] = hashlib.sha256(report).hexdigest()[:16]
            rec["report_bytes"] = len(report)
            try:
                payload = json.loads(report) if report else None
                job.verify(summary["rc"], payload)
            except (oracles.Mismatch, ValueError, KeyError, TypeError) as exc:
                rec["wrong"] = True
                detail = summary["stderr"].strip()
                raise _Failed(f"{type(exc).__name__}: {exc}"
                              + (f" (stderr: {detail})" if detail else ""))
            if trace:
                with open(spans_path, encoding="utf-8") as fh:
                    dump = json.load(fh)
            rec["ok"] = True
        except _Failed as exc:
            rec["cause"] = str(exc)
            if job.doc is not None:
                shutil.copy(doc_path, os.path.join(
                    self.outdir, f"failed-{job_id}.json"))
        self.records.append(rec)
        return rec, dump


class _Failed(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(sorted_values, p):
    idx = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(idx)]


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it."""
    vals = sorted(values)
    for p in TAIL_LADDER:
        if len(vals) * (100 - p) / 100 >= 10:
            return p, nearest_rank(vals, p)
    return 100, vals[-1]


def end_to_end(records, scaled=True):
    """End-to-end values, times at the reference speed unless not `scaled`."""
    timed = [r for r in records if r["job_s"] is not None]
    scale = [REF_S / r["ref_s"] if scaled else 1.0 for r in timed]
    job_s = [r["job_s"] * f for r, f in zip(timed, scale)]
    rss = [r["peak_rss_mb"] for r in records]
    p, tail_s = tail(job_s)
    values = {
        "setup_s": statistics.median(r["setup_s"] * f
                                     for r, f in zip(timed, scale)),
        "job_s.p50": statistics.median(job_s),
        "job_s.tail": tail_s,
        "jobs_per_s": len(timed) / sum(job_s),
        "peak_rss_mb.p50": statistics.median(rss),
        "peak_rss_mb.max": max(rss),
    }
    return values, p, len(job_s)


# ---------------------------------------------------------------------------
# machine and output


def machine_info(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches,
            "python": platform.python_version(), "seed": seed}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_records(outdir, info, records):
    with open(os.path.join(outdir, "jobs.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    with open(os.path.join(outdir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)


def report_failures(records):
    for r in records:
        if not r["ok"]:
            label = r["name"] or f"job {r['id']}"
            print(f"FAILED {label} ({' '.join(r['argv'])}): {r['cause']}")


def named_note(workload, seconds):
    names = [name for w, name, _ in workloads.named_rows() if w == workload]
    if not names:
        return None
    shown = names if len(names) <= 4 else names[:2] + [
        f"... {len(names) - 3} more ...", names[-1]]
    return (f"named slow rows of {workload} are not run here: they do not fit "
            f"a {seconds}-s run ({'; '.join(shown)}); "
            "run them with: python3 bench/run.py --named")


# ---------------------------------------------------------------------------
# modes


def run_workload(workload, seed, seconds, trace):
    outdir = os.path.join(OUT, f"{workload}-s{seed}-t{int(trace)}")
    info = machine_info(seed)
    info.update({"workload": workload, "why": workloads.WORKLOADS[workload],
                 "seconds": seconds, "trace": trace, "cap_s": JOB_CAP_S})
    runner = Runner(outdir)
    stats = tracing.LayerStats()
    plain, traced = [], []
    spans_file = os.path.join(outdir, "spans.jsonl")
    try:
        deadline = time.monotonic() + seconds
        i = 0
        while time.monotonic() < deadline:
            job = workloads.job(workload, seed, i)
            # a traced run also runs each job untraced; the two take turns
            # going first, so warm-up favours neither side
            passes = ((False, True) if i % 2 else (True, False)) if trace \
                else (False,)
            for traced_run in passes:
                rec, dump = runner.run(job, i, trace=traced_run)
                (traced if traced_run else plain).append(rec)
                if dump is not None:
                    stats.add(dump)
                    with open(spans_file, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(dump) + "\n")
            i += 1
    finally:
        runner.close()

    records = runner.records
    if not any(r["job_s"] is not None for r in plain):
        report_failures(records)
        sys.exit("no job completed; nothing to measure")
    failed = [r for r in records if not r["ok"]]
    print(f"workload {workload}: {info['why']}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()
                                  if k in ("nproc", "cpu", "L2", "L3",
                                           "python", "seed")))
    print(f"jobs: {len(plain)} run for {seconds} s"
          + (", each untraced and traced" if trace else "")
          + f"; {len(records)} attempted, {len(failed)} failed")
    report_failures(records)
    note = named_note(workload, seconds)
    if note:
        print(note)

    # every job is built to pass, so a crash or a capped job (which the
    # time metrics leave out) makes the run incorrect, as a wrong report does
    correct = not failed
    if not trace:
        values, p, n = end_to_end(plain)
        raw, _, _ = end_to_end(plain, scaled=False)
        speed = statistics.median(r["ref_s"] for r in plain if r["ref_s"])
        print(f"times at the reference speed (raw wall times in brackets; "
              f"reference loop median {speed * 1e3:.3f} ms, "
              f"nominal {REF_S * 1e3:g} ms):")
        for name, unit in END_TO_END.items():
            extra = f"   (p{p:g} of {n} jobs)" if name == "job_s.tail" else ""
            print(f"  {name:18s} {values[name]:.6g} {unit}"
                  f"   [{raw[name]:.6g}]{extra}")
        print(f"  {'failed_frac':18s} {len(failed) / len(records):.6g} ratio"
              f"   ({len(failed)} of {len(records)})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        info["end_to_end"] = values
        info["end_to_end_raw"] = raw
        info["tail_percentile"] = p
    else:
        layer = stats.metrics()
        # overhead at the reference speed, so the two sides of a job pair
        # are not told apart by the vCPU each landed on
        plain_s, traced_s = (
            sum(r["job_s"] * REF_S / r["ref_s"] for r in recs
                if r["job_s"] is not None) for recs in (plain, traced))
        overhead = traced_s / plain_s - 1 if plain_s else 0.0
        layer["trace.overhead_frac"] = overhead
        print(f"tracing overhead: {overhead:+.1%} of summed job time at the "
              f"reference speed ({plain_s:.3f} s untraced, "
              f"{traced_s:.3f} s traced)")
        traced_s = sum(r["job_s"] for r in traced if r["job_s"] is not None)
        print(f"layer share of summed traced job time ({traced_s:.3f} s):")
        for mod, s in sorted(stats.module_self_s().items(),
                             key=lambda kv: -kv[1]):
            print(f"  {mod:12s} {s:9.4f} s  {s / traced_s:6.1%}")
        if len(traced) >= len(workloads.CYCLES[workload]):
            checks = layer_checks(workload, stats)
        else:
            checks = []
            print("layer checks skipped: the run covered less than one "
                  "cycle of job kinds")
        for line in checks:
            print("LAYER CHECK FAILED: " + line)
        correct = correct and not checks
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name in layer:
                metrics[name] = {"value": layer[name], "unit": unit}
                print(f"  {name:48s} {layer[name]:.6g} {unit}")
            else:
                print(f"  {name:48s} absent (kernel not in this version)")
        info["per_layer"] = layer
        print(f"spans: {os.path.relpath(spans_file, ROOT)}")
    write_records(outdir, info, records)
    print(f"records: {os.path.relpath(os.path.join(outdir, 'jobs.jsonl'), ROOT)}")
    emit(correct, len(records), len(failed), metrics)
    return correct


def layer_checks(workload, stats):
    """The layers a workload's purpose names must be called; numerical must
    stay off the LP and the enumeration search."""
    problems = []
    for name in tracing.REQUIRED_CALLS[workload]:
        if name in stats.installed and not stats.calls.get(name):
            problems.append(f"{workload} never calls {name}")
    for name in tracing.FORBIDDEN_CALLS.get(workload, ()):
        if stats.calls.get(name):
            problems.append(f"{workload} calls {name} "
                            f"{stats.calls[name]} times")
    return problems


def run_named():
    outdir = os.path.join(OUT, "named")
    runner = Runner(outdir)
    rows = workloads.named_rows()
    metrics = {}
    try:
        for i, (workload, name, job) in enumerate(rows):
            rec, _ = runner.run(job, i, name=name)
            status = "ok" if rec["ok"] else "FAILED: " + rec["cause"]
            t = f"{rec['job_s']:.3f} s" if rec["job_s"] is not None else \
                f">{JOB_CAP_S} s"
            print(f"{workload:12s} {name:34s} {t:>10s} "
                  f"{rec['peak_rss_mb']:8.1f} MB  {status}", flush=True)
            if rec["job_s"] is not None:
                metrics[f"{name}.job_s"] = {"value": rec["job_s"], "unit": "s"}
    finally:
        runner.close()
    records = runner.records
    failed = [r for r in records if not r["ok"]]
    report_failures(records)
    write_records(outdir, machine_info(None), records)
    emit(not any(r["wrong"] for r in records), len(records), len(failed),
         metrics)
    return True


def self_check():
    """Quick checks of the benchmark itself; exit status 1 on any problem."""
    problems = []
    try:
        __import__(PACKAGE)
        problems.append("the runner could import the package under test")
    except ImportError:
        pass
    for path in ("oracles.py", "workloads.py", "tracing.py", "run.py"):
        with open(os.path.join(HERE, path), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == PACKAGE for n in names):
                problems.append(f"bench/{path} imports {PACKAGE}")

    first = workloads.self_test_generation(1, 16)
    if first != workloads.self_test_generation(1, 16):
        problems.append("job generation is not deterministic per seed")
    if first == workloads.self_test_generation(2, 16):
        problems.append("seeds 1 and 2 generate the same jobs")

    # the oracles size their search from the input alone, so an answer that
    # leaves out a large generator or basis element is caught
    for what, check, payload in (
            ("intersect without its generator (12, 9)",
             lambda p: oracles.check_intersect(
                 {"dimension": 2, "colors": [{"generators": [[4, 3]]},
                                             {"generators": [[1, 1], [4, 1]]}]},
                 p),
             {"subcommand": "intersect", "dimension": 2, "generators": [],
              "trivial": True}),
            ("hilbert without its basis element (7, 5)",
             lambda p: oracles.check_hilbert(
                 {"colors": [{"generators": [[5], [-7]]}]}, p),
             {"columns": [[5], [-7]], "basis": []})):
        try:
            check(payload)
            problems.append(f"the oracle accepts {what}")
        except oracles.Mismatch:
            pass

    print("per-layer metric -> end-to-end metric it should move, on workload")
    for m in _SPEC["per_layer"]:
        moves, where = tracing.LAYER_METRICS[m["name"]]
        print(f"  {m['name']} [{m['unit']}, {m['better']}] -> {moves} "
              f"on {where}")

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            lines = _capture_run(workload, trace)
            result = json.loads(lines[-1])
            names = set(PER_LAYER if trace else END_TO_END)
            got = set(result["metrics"])
            if got != names:
                problems.append(f"{workload} trace={int(trace)} metrics "
                                f"differ: {sorted(got ^ names)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)} run failed: "
                                + " | ".join(l for l in lines if "FAIL" in l))
            for name, m in result["metrics"].items():
                if not any(name in l and m["unit"] in l for l in lines):
                    problems.append(f"{name} not printed with its unit")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return not problems


def _capture_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", "7", "--seconds", "8" if trace else "3",
         "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=300)
    return proc.stdout.strip().splitlines() or ["{}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--named", action="store_true",
                        help="run the named known-slow rows")
    parser.add_argument("--self-check", action="store_true",
                        help="quick checks of the benchmark itself")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", PACKAGE, "cli.py")):
        sys.exit(f"no {PACKAGE} sources under {os.path.join(ROOT, 'src')}; "
                 "run from a checkout of the repository")
    if args.self_check:
        return 0 if self_check() else 1
    if args.named:
        run_named()
        return 0
    if not args.workload:
        parser.error("--workload, --named or --self-check is required")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
