"""Spans around the public entry points of each layer, and the per-layer
metrics derived from them.

`Tracer.install` runs inside a job's child process.  It wraps each entry
point below in every package module that holds it (a function imported by
name into another module is looked up there, so `is_pointed` is wrapped in
`cones`, `diophantine`, `semigroups` and `colored` alike).  A kernel that
a later version of the package no longer has is skipped; its metrics are
then absent from the output.  Spans stay in memory until the job ends.

`layer_metrics` runs in the runner over the spans of every traced job.
"""

import json
import sys
import time
from functools import wraps

PACKAGE = "chromatic_semigroups"


def _cells(result, args):
    return {"cells": args[1] + 1}


# (module, attribute, span name, counters(result, args) -> dict or None);
# on an lru_cache kernel the counters count builds (cache misses) only
ENTRY_POINTS = [
    ("cli", "main", "cli", None),
    ("instances", "parse_instance", "instances.parse_instance", None),
    ("cones", "is_pointed", "cones.is_pointed", None),
    ("cones", "rational_feasible", "cones.rational_feasible", None),
    ("cones", "_generator_description", "cones.dd", None),
    ("cones", "intersect_cones", "cones.intersect_cones", None),
    ("diophantine", "is_member", "diophantine.is_member",
     lambda result, args: {"true": int(result[0])}),
    ("diophantine", "enumerate_solutions", "diophantine.enumerate_solutions",
     lambda result, args: {"solutions": len(result)}),
    ("diophantine", "hilbert_basis_homogeneous",
     "diophantine.hilbert_basis_homogeneous",
     lambda result, args: {"basis_size": len(result)}),
    ("semigroups", "intersect_semigroup_family", "semigroups.intersect",
     lambda result, args: {"generators_out": len(result.generators)}),
    ("semigroups", "family_intersection_nontrivial",
     "semigroups.family_intersection_nontrivial", None),
    ("semigroups", "scale_into", "semigroups.scale_into",
     lambda result, args: {"multiplier_sum": result}),
    ("colored", "find_k_chromatic", "colored.find_k_chromatic", None),
    ("colored", "caratheodory_exceptions", "colored.caratheodory",
     lambda result, args: {"candidates": len(result.candidates_checked),
                           "exceptions": len(result.exceptions)}),
    ("colored", "classify", "colored.classify", None),
    ("numerical", "frobenius", "numerical.frobenius", None),
    ("numerical", "gap_set", "numerical.gap_set", None),
    ("numerical", "chromatic_frobenius", "numerical.chromatic_frobenius",
     None),
    ("numerical", "count_k_chromatic", "numerical.count_k_chromatic", None),
    ("numerical", "fit_quasipolynomial", "numerical.fit_quasipolynomial",
     None),
    ("numerical", "_member_table", "numerical.member_table", _cells),
    ("colored", "_reach_table", "colored.reach_table", _cells),
    ("numerical", "_mask_tables", "numerical.mask_tables",
     lambda result, args: {"cells": (1 << len(args[0])) * (args[1] + 1)}),
    ("helly", "helly_audit", "helly.helly_audit", None),
    ("helly", "tverberg_partition", "helly.tverberg_partition", None),
]

# lru_cache kernels whose cache_info() is read at the end of each job
CACHES = [
    ("cones", "_generator_description", "cones.dd"),
    ("diophantine", "_witness", "diophantine.witness"),
    ("diophantine", "_plan_cached", "diophantine.plan"),
    ("semigroups", "_intersect_cached", "semigroups.intersect_cache"),
]

TABLE_SPANS = ("numerical.member_table", "colored.reach_table")

# Per-layer metric -> (end-to-end metric it should move, workload where it
# should move it); names, units and directions are in BENCHMARK.json.
# Counts and times are means per traced job; ratios are taken over the
# sums.
LAYER_METRICS = {
    "cones.is_pointed.calls":
        ("jobs_per_s, job_s.tail",
         "membership (enumeration; numerical only via the 1-D shortcut)"),
    "cones.is_pointed.self_s":
        ("jobs_per_s, job_s.tail",
         "membership (enumeration; numerical only via the 1-D shortcut)"),
    "cones.rational_feasible.calls":
        ("jobs_per_s, job_s.tail",
         "membership (enumeration; never numerical)"),
    "cones.rational_feasible.self_s":
        ("jobs_per_s, job_s.tail",
         "membership (enumeration; never numerical)"),
    "cones.dd.misses": ("job_s.p50", "enumeration, membership"),
    "cones.dd.hit_ratio": ("job_s.p50", "enumeration, membership"),
    "cones.dd.self_s": ("job_s.p50", "enumeration, membership"),
    "cones.intersect_cones.calls":
        ("jobs_per_s", "membership (helly, tverberg)"),
    "cones.intersect_cones.self_s":
        ("jobs_per_s", "membership (helly, tverberg)"),
    "diophantine.is_member.calls": ("jobs_per_s", "membership"),
    "diophantine.is_member.self_s": ("jobs_per_s", "membership"),
    "diophantine.is_member.true_frac": ("jobs_per_s", "membership"),
    "diophantine.witness.misses": ("jobs_per_s", "membership"),
    "diophantine.plan.misses": ("jobs_per_s", "membership"),
    "diophantine.plan.hit_ratio": ("jobs_per_s", "membership"),
    "diophantine.enumerate_solutions.calls":
        ("job_s.p50, jobs_per_s", "enumeration (never numerical)"),
    "diophantine.enumerate_solutions.self_s":
        ("job_s.p50, jobs_per_s", "enumeration (never numerical)"),
    "diophantine.enumerate_solutions.solutions":
        ("job_s.p50, jobs_per_s", "enumeration"),
    "diophantine.hilbert_basis_homogeneous.calls":
        ("job_s.tail", "enumeration, membership"),
    "diophantine.hilbert_basis_homogeneous.self_s":
        ("job_s.tail", "enumeration, membership"),
    "diophantine.hilbert_basis_homogeneous.basis_size":
        ("job_s.tail", "enumeration, membership"),
    "semigroups.intersect.calls":
        ("job_s.tail", "membership; numerical (1-D table path)"),
    "semigroups.intersect.self_s":
        ("job_s.tail", "membership; numerical (1-D table path)"),
    "semigroups.intersect.generators_out":
        ("job_s.tail", "membership; numerical (1-D table path)"),
    "semigroups.intersect_cache.misses": ("job_s.tail", "membership"),
    "semigroups.family_intersection_nontrivial.calls":
        ("jobs_per_s", "membership"),
    "semigroups.family_intersection_nontrivial.self_s":
        ("jobs_per_s", "membership"),
    "semigroups.scale_into.calls": ("jobs_per_s", "membership"),
    "semigroups.scale_into.multiplier_sum": ("jobs_per_s", "membership"),
    "colored.find_k_chromatic.calls":
        ("job_s.tail", "membership, numerical (caratheodory)"),
    "colored.find_k_chromatic.self_s":
        ("job_s.tail", "membership, numerical (caratheodory)"),
    "colored.caratheodory.candidates":
        ("job_s.tail", "membership, numerical (caratheodory)"),
    "colored.caratheodory.exceptions":
        ("job_s.tail", "membership, numerical (caratheodory)"),
    "colored.classify.calls": ("job_s.p50", "enumeration"),
    "colored.classify.self_s": ("job_s.p50", "enumeration"),
    "numerical.frobenius.self_s":
        ("job_s.p50, jobs_per_s", "numerical (not elsewhere)"),
    "numerical.gap_set.self_s":
        ("job_s.p50, jobs_per_s", "numerical (not elsewhere)"),
    "numerical.chromatic_frobenius.self_s":
        ("job_s.p50, jobs_per_s", "numerical (not elsewhere)"),
    "numerical.count_k_chromatic.self_s":
        ("job_s.p50, jobs_per_s", "numerical (not elsewhere)"),
    "numerical.fit_quasipolynomial.self_s":
        ("job_s.p50, jobs_per_s", "numerical (not elsewhere)"),
    "numerical.table_builds": ("peak_rss_mb.max, job_s.tail", "numerical"),
    "numerical.table_cells": ("peak_rss_mb.max, job_s.tail", "numerical"),
    "numerical.mask_cells": ("peak_rss_mb.max, job_s.tail", "numerical"),
    "numerical.frobenius.retries": ("job_s.tail", "numerical"),
    "helly.helly_audit.self_s": ("jobs_per_s", "membership"),
    "helly.tverberg_partition.self_s": ("jobs_per_s", "membership"),
    "instances.parse_instance.self_s":
        ("job_s.p50", "enumeration (output-heavy solve)"),
    "cli.self_s": ("job_s.p50", "enumeration (output-heavy solve)"),
    "cli.report_bytes": ("job_s.p50", "enumeration (output-heavy solve)"),
    "trace.overhead_frac": ("none (tracing cost)", "all"),
}

# layers each workload's purpose says it exercises, and those it must not
REQUIRED_CALLS = {
    "numerical": ["numerical.frobenius", "numerical.count_k_chromatic",
                  "numerical.member_table", "numerical.mask_tables"],
    "membership": ["cones.is_pointed", "diophantine.is_member",
                   "semigroups.intersect", "cones.intersect_cones"],
    "enumeration": ["diophantine.enumerate_solutions", "colored.classify",
                    "diophantine.hilbert_basis_homogeneous", "cones.dd"],
}
FORBIDDEN_CALLS = {
    "numerical": ["cones.rational_feasible",
                  "diophantine.enumerate_solutions"],
}


class Tracer:
    """Records (id, parent, name, start, end, info) spans of one job."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.stack = []
        self.kernels = {}
        self.installed = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}
        for mod_name, attr, span, counters in ENTRY_POINTS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr,
                                None)
            if original is None:
                continue
            originals[(mod_name, attr)] = original
            self.installed.append(span)
            wrapper = self._wrap(span, original, counters)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
        for mod_name, attr, name in CACHES:
            kernel = originals.get((mod_name, attr)) or getattr(
                sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
            if hasattr(kernel, "cache_info"):
                self.kernels[name] = kernel

    def _wrap(self, name, fn, counters):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        cached = hasattr(fn, "cache_info")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            misses = fn.cache_info().misses if cached else 0
            info = {}
            start = clock()
            try:
                result = fn(*args, **kwargs)
                built = cached and fn.cache_info().misses > misses
                if cached:
                    info["built"] = int(built)
                if counters and (built or not cached):
                    info.update(counters(result, args))
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, info)

        return wrapper

    def dump(self, path, report_bytes):
        caches = {name: list(k.cache_info()[:2])
                  for name, k in self.kernels.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "report_bytes": report_bytes,
                       "installed": self.installed, "caches": caches,
                       "spans": self.spans}, fh)


class LayerStats:
    """Sums over the dumps of traced jobs, turned into per-layer metrics."""

    def __init__(self):
        self.jobs = 0
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.caches = {}
        self.retries = 0
        self.report_bytes = 0
        self.installed = set()

    def add(self, dump):
        self.jobs += 1
        self.installed.update(dump["installed"])
        self.report_bytes += dump["report_bytes"]
        for name, (hits, misses) in dump["caches"].items():
            h, m = self.caches.get(name, (0, 0))
            self.caches[name] = (h + hits, m + misses)
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for sid, parent, name, start, end, info in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, parent, name, start, end, info in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + (end - start) - child[sid])
            for key, val in info.items():
                self.counters[(name, key)] = (
                    self.counters.get((name, key), 0) + val)
        self.retries += _frobenius_retries(spans)

    def metrics(self):
        """Every derivable metric, keyed by name (a superset of
        LAYER_METRICS; names whose kernel is gone are missing)."""
        def per_job(x):
            return x / self.jobs if self.jobs else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = per_job(n)
            out[f"{name}.self_s"] = per_job(self.self_s[name])
        for name, (hits, misses) in self.caches.items():
            out[f"{name}.misses"] = per_job(misses)
            out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        for (name, key), val in self.counters.items():
            if key not in ("true", "built"):
                out[f"{name}.{key}"] = per_job(val)
        if "diophantine.is_member" in self.calls:
            out["diophantine.is_member.true_frac"] = ratio(
                self.counters.get(("diophantine.is_member", "true"), 0),
                self.calls["diophantine.is_member"])
        tables = [n for n in TABLE_SPANS if n in self.installed]
        if tables:
            out["numerical.table_builds"] = per_job(sum(
                self.counters.get((n, "built"), 0) for n in tables))
            out["numerical.table_cells"] = per_job(sum(
                self.counters.get((n, "cells"), 0) for n in tables))
        if "numerical.mask_tables" in self.installed:
            out["numerical.mask_cells"] = per_job(
                self.counters.get(("numerical.mask_tables", "cells"), 0))
        if "numerical.member_table" in self.installed:
            out["numerical.frobenius.retries"] = per_job(self.retries)
        # a layer that is present but never called did zero work
        for name in LAYER_METRICS:
            if name not in out and name.rsplit(".", 1)[0] in self.installed:
                out[name] = 0.0
        out["cli.report_bytes"] = per_job(self.report_bytes)
        return out

    def module_self_s(self):
        """Summed self time per package module (first part of span name)."""
        modules = {}
        for name, total in self.self_s.items():
            layer = name.split(".")[0]
            modules[layer] = modules.get(layer, 0.0) + total
        return modules


def _frobenius_retries(spans):
    """Table builds inside a frobenius call beyond its first."""
    by_id = {s[0]: s for s in spans}
    builds = {}
    for sid, parent, name, start, end, info in spans:
        if name != "numerical.member_table" or not info.get("built"):
            continue
        p = parent
        while p is not None and by_id[p][2] != "numerical.frobenius":
            p = by_id[p][1]
        if p is not None:
            builds[p] = builds.get(p, 0) + 1
    return sum(n - 1 for n in builds.values())
