"""Job lists for the benchmark workloads, generated from a seed.

A job is one `chromsg` call: an instance document (or none), the argv
that goes with it, the exit code a correct program returns and a check of
its `--json` report against `oracles`.  Each workload cycles through a
fixed list of job kinds, and the parameters that set a job's cost (table
size, class count, dimension, family size) step through fixed levels on
successive passes.  Every seed therefore gets the same mix of kinds and
sizes; only the instances differ.  Job i of a seed depends on (workload,
seed, i) alone.
"""

import random
from dataclasses import dataclass
from math import gcd, lcm

from . import oracles
from .oracles import expect

WORKLOADS = {
    "numerical": (
        "dimension-1 tables and mask-table counts, no LP: frobenius, gaps, "
        "chromatic-frobenius, count, quasipoly, 1-D intersect/caratheodory"),
    "membership": (
        "2-3-D pointed documents: pointedness witnesses and memoized "
        "membership behind intersect, caratheodory, member, helly-audit, "
        "tverberg"),
    "enumeration": (
        "2-3-D whole search trees and output-heavy reports: solve, 2-3-D "
        "count, hilbert, cteg --verify"),
}


@dataclass
class Job:
    kind: str
    args: list          # chromsg argv before the document path
    doc: dict           # instance document, or None
    want_rc: int
    check: object       # payload -> None, raises oracles.Mismatch

    def verify(self, rc, payload):
        expect(rc == self.want_rc, f"exit code {rc}, expected {self.want_rc}")
        self.check(payload)


def numerical_doc(classes, targets=None):
    doc = {"dimension": 1,
           "colors": [{"name": f"c{i}", "generators": [[a] for a in cls]}
                      for i, cls in enumerate(classes)]}
    if targets:
        doc["targets"] = [[t] for t in targets]
    return doc


def vector_doc(classes, targets=None):
    doc = {"dimension": len(classes[0][0]),
           "colors": [{"name": f"c{i}", "generators": [list(g) for g in cls]}
                      for i, cls in enumerate(classes)]}
    if targets:
        doc["targets"] = [list(t) for t in targets]
    return doc


def equals(want):
    def check(payload):
        expect(payload == want, "report differs from the expected answer")
    return check


def split(rng, values, ell):
    """Partition `values` into ell nonempty classes, in order."""
    cuts = sorted(rng.sample(range(1, len(values)), ell - 1))
    bounds = [0] + cuts + [len(values)]
    return [sorted(values[bounds[i]:bounds[i + 1]]) for i in range(ell)]


def primitive_values(rng, count, lo, hi, first=()):
    """`first` plus count - len(first) values from [lo, hi], with gcd 1."""
    while True:
        vals = sorted(list(first) + rng.sample(range(lo, hi + 1),
                                               count - len(first)))
        if gcd(*vals) == 1:
            return vals


# ---------------------------------------------------------------------------
# numerical: dense reach tables and 2^l mask tables


# (classes, smallest generator): reach tables of 2 a0^2 = 1e5 - 4e5 cells
TABLE_LEVELS = [(2, 420), (5, 360), (9, 300), (14, 250)]
# (classes, target): 2^l mask tables of 1.9e5 - 3.6e5 cells, which set the
# workload's peak RSS.  Counts then cost 0.1-0.25 s, as the table kinds do,
# so the median job is not in the gap between those four kinds and the
# cheap three (with 2.6e4 - 2e5 cells it moved 20% from seed to seed)
COUNT_LEVELS = [(6, 3000), (7, 2200), (8, 1400)]


def table_classes(rng, level):
    ell, a0 = TABLE_LEVELS[level % len(TABLE_LEVELS)]
    vals = primitive_values(rng, ell + 1, a0 + 1, 2 * a0, (a0,))
    return split(rng, vals, ell)


def job_frobenius(rng, level):
    classes = table_classes(rng, level)
    gens = sorted(a for cls in classes for a in cls)
    want = {"subcommand": "frobenius", "generators": gens,
            "frobenius": oracles.frobenius(gens)}
    return Job("frobenius", ["frobenius"], numerical_doc(classes), 0,
               equals(want))


def job_gaps(rng, level):
    classes = table_classes(rng, level)
    gens = sorted(a for cls in classes for a in cls)

    def check(payload):
        g = oracles.gaps(gens)
        equals({"subcommand": "gaps", "generators": gens,
                "gap_count": len(g), "gaps": g})(payload)
    return Job("gaps", ["gaps"], numerical_doc(classes), 0, check)


def job_chromatic_frobenius(rng, level):
    classes = table_classes(rng, level)
    k = 1 + level % min(3, len(classes))

    def check(payload):
        equals(oracles.chromatic_frobenius(classes, k))(payload)
    return Job("chromatic-frobenius", ["chromatic-frobenius", "--k", str(k)],
               numerical_doc(classes), 0, check)


def job_count(rng, level):
    ell, b = COUNT_LEVELS[level % len(COUNT_LEVELS)]
    vals = primitive_values(rng, ell + ell // 2, 3, 40)
    classes = split(rng, vals, ell)
    k = rng.randint(1, ell)

    def check(payload):
        equals({"subcommand": "count", "target": [b], "k": k,
                "count": oracles.count_at_least(classes, b, k)})(payload)
    return Job("count", ["count", "--target", str(b), "--k", str(k)],
               numerical_doc(classes), 0, check)


def job_quasipoly(rng, level):
    # periods of 400-1000 cost 0.1-0.2 s, as the four table kinds do; with
    # cheap fits three kinds of seven sat below 50 ms, the median job fell
    # in the gap between the two groups and moved 13% from run to run
    ell = 2 + level % 2
    while True:
        vals = primitive_values(rng, rng.randint(ell, 4), 2, 12)
        if 400 <= lcm(*vals) <= 1000:
            break
    classes = split(rng, vals, ell)
    k = rng.randint(1, ell)

    def check(payload):
        oracles.check_quasipoly(classes, k, payload)
    return Job("quasipoly", ["quasipoly", "--k", str(k)],
               numerical_doc(classes), 0, check)


def small_numerical_classes(rng, ell, hi):
    classes = []
    used = set()
    for _ in range(ell):
        cls = sorted(rng.sample([v for v in range(3, hi + 1) if v not in used],
                                rng.randint(1, 3)))
        used.update(cls)
        classes.append(cls)
    return classes


def job_intersect_1d(rng, level):
    classes = small_numerical_classes(rng, 2 + level % 3, 60)
    doc = numerical_doc(classes)
    return Job("intersect", ["intersect"], doc, 0,
               lambda payload: oracles.check_intersect(doc, payload))


def job_caratheodory_1d(rng, level):
    while True:
        classes = small_numerical_classes(rng, 2 + level % 3, 30)
        if gcd(*(a for cls in classes for a in cls)) == 1:
            break
    doc = numerical_doc(classes)
    return Job("caratheodory", ["caratheodory"], doc, 0,
               lambda payload: oracles.check_caratheodory(doc, payload))


# ---------------------------------------------------------------------------
# membership: small nonnegative generators in dimension 2-3


def nonneg_vector(rng, dim, hi):
    while True:
        v = tuple(rng.randint(0, hi) for _ in range(dim))
        if any(v):
            return v


def vector_classes(rng, dim, ell, per, hi):
    return [[nonneg_vector(rng, dim, hi) for _ in range(rng.randint(1, per))]
            for _ in range(ell)]


def random_combination(rng, gens, terms):
    dim = len(gens[0])
    total = [0] * dim
    for _ in range(terms):
        g = rng.choice(gens)
        total = [a + b for a, b in zip(total, g)]
    return tuple(total)


# Two generators per class: with three, a few percent of draws send the
# pointedness LP after large intersection images for minutes, past the
# per-job cap (the named criterion-10 and EXAMPLE_32 rows keep those).
def job_intersect(rng, level):
    # two classes: the CLI chains pairwise intersections, and a third class
    # sends some draws past ten seconds
    doc = vector_doc(vector_classes(rng, 2 + level % 2, 2, 2, 4))
    return Job("intersect", ["intersect"], doc, 0,
               lambda payload: oracles.check_intersect(doc, payload))


def job_caratheodory(rng, level):
    # at most three classes: four-class documents reach tens of seconds
    dim = 2 + level % 2
    doc = vector_doc(vector_classes(rng, dim, 2 + level // 2 % 2, 2, 4))
    return Job("caratheodory", ["caratheodory"], doc, 0,
               lambda payload: oracles.check_caratheodory(doc, payload))


def job_member(rng, level):
    # true and false targets take turns, two size levels each
    want_member = level % 4 < 2
    dim = 2 + level % 2
    while True:
        classes = vector_classes(rng, dim, 2 + level // 2 % 3, 3, 5)
        gens = [g for cls in classes for g in cls]
        b = random_combination(rng, gens, 20)
        if want_member:
            break
        box = oracles.Box([c + 3 for c in b])
        reach = box.closure(gens)
        misses = [v for v in (tuple(max(c + rng.randint(-3, 3), 0) for c in b)
                              for _ in range(40))
                  if any(v) and not box.has(reach, v)]
        if misses:
            b = misses[0]
            break
    doc = vector_doc(classes)

    def check(payload):
        expect(payload["member"] == want_member and
               payload["target"] == list(b), "membership answer")
        if want_member:
            oracles.solves(gens, payload["witness"], b)
        else:
            expect(payload["witness"] is None, "witness for a non-member")
    return Job("member", ["member", "--target", ",".join(map(str, b))], doc,
               0 if want_member else 1, check)


def job_helly(rng, level):
    doc = vector_doc(vector_classes(rng, 2, 2 + level % 3, 2, 5))
    return Job("helly-audit", ["helly-audit", "--case", "noncover"], doc, 0,
               lambda payload: oracles.check_helly(doc, payload))


def job_tverberg(rng, level):
    while True:
        classes = vector_classes(rng, 2, 4, 2, 5)
        k = len({g for cls in classes for g in cls})
        if k >= 7:
            break
    r = 3
    doc = vector_doc(classes)
    return Job("tverberg", ["tverberg", "--r", str(r)], doc, 0,
               lambda payload: oracles.check_tverberg(doc, r, payload))


# ---------------------------------------------------------------------------
# enumeration: whole search trees and output-heavy reports


def shape_classes(rng):
    """Three colors shaped like the 3-color, 3-D counterexample document:
    each color holds (0, a, a+1), (1, b, b+2) and (2, c, c)."""
    out = []
    for _ in range(3):
        a, b, c = rng.randint(0, 8), rng.randint(20, 40), rng.randint(45, 70)
        out.append([(0, a, a + 1), (1, b, b + 2), (2, c, c)])
    return out


def solve_doc(rng, level):
    """Colors and several targets; random documents are redrawn until the
    targets have 10-400 solutions in all, which keeps reports (and peak
    RSS) from swinging with the draw."""
    if level % 2 == 0:
        classes = shape_classes(rng)
        gens = [g for cls in classes for g in cls]
        return classes, sorted({random_combination(rng, gens, rng.randint(3, 6))
                                for _ in range(rng.randint(3, 5))})
    dim = 2 + level // 2 % 2
    while True:
        classes = vector_classes(rng, dim, 2 + level // 4 % 3, 3, 6)
        gens = [g for cls in classes for g in cls]
        targets = sorted({random_combination(rng, gens, rng.randint(3, 7))
                          for _ in range(rng.randint(3, 5))})
        total = sum(len(oracles.solutions_nonneg(gens, b, limit=400))
                    for b in targets)
        if 10 <= total <= 400:
            return classes, targets


def job_solve(rng, level):
    classes, targets = solve_doc(rng, level)
    doc = vector_doc(classes, targets)

    def check(payload):
        equals(oracles.solve_payload(doc, targets))(payload)
    return Job("solve", ["solve"], doc, 0, check)


def job_count_vec(rng, level):
    classes, targets = solve_doc(rng, level)
    b = targets[-1]
    k = rng.randint(1, len(classes))
    doc = vector_doc(classes)

    def check(payload):
        equals(oracles.count_payload(doc, b, k))(payload)
    return Job("count", ["count", "--target", ",".join(map(str, b)),
                         "--k", str(k)], doc, 0, check)


def job_hilbert(rng, level):
    dim = 2 + level % 2
    n = 4 + level // 2 % 2
    cols = []
    while len(cols) < n:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(v):
            cols.append(v)
    doc = vector_doc(split(rng, cols, 2) if level // 4 % 2 else [cols])
    return Job("hilbert", ["hilbert"], doc, 0,
               lambda payload: oracles.check_hilbert(doc, payload))


def job_cteg(rng, level):
    n = 6

    def check(payload):
        equals(oracles.cteg_payload(n))(payload)
    return Job("cteg", ["cteg", "--n", str(n), "--verify"], None, 0, check)


CYCLES = {
    "numerical": [job_frobenius, job_gaps, job_chromatic_frobenius,
                  job_count, job_quasipoly, job_intersect_1d,
                  job_caratheodory_1d],
    "membership": [job_intersect, job_caratheodory, job_member, job_helly,
                   job_tverberg],
    "enumeration": [job_solve, job_count_vec, job_hilbert, job_cteg],
}


def job(workload, seed, i):
    """Job i of a seed: kind i mod the cycle, size level i div the cycle."""
    cycle = CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}:{i}")
    return cycle[i % len(cycle)](rng, i // len(cycle))


# ---------------------------------------------------------------------------
# named known-slow rows


EXAMPLE_32_COLUMNS = ((0, 0, 1), (1, 32, 34), (2, 63, 63),
                      (0, 1, 2), (1, 33, 35), (2, 61, 61),
                      (0, 3, 4), (1, 35, 37), (2, 57, 57))


def criterion10_pairs():
    """The 100 random pairs of the intersection-oracle acceptance criterion
    (seed 31337), drawn with the same calls as the test."""
    rng = random.Random(31337)
    pairs = []
    for _ in range(100):
        dim = rng.randint(1, 2)
        if dim == 1:
            s1 = [(v,) for v in rng.sample(range(1, 13), rng.randint(1, 3))]
            s2 = [(v,) for v in rng.sample(range(1, 13), rng.randint(1, 3))]
        else:
            s1 = _pointed_gens(rng)
            s2 = _pointed_gens(rng)
        pairs.append((s1, s2))
    return pairs


def _pointed_gens(rng):
    # mirrors the rejection sampler of the test suite: with entries in
    # [0, 6] every nonempty draw is pointed, so the first one is kept
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(0, 6) for _ in range(2))
            if any(v):
                gens.append(v)
        if gens:
            return sorted(set(gens))


def named_rows():
    """(workload, name, job) for the slow cases ROADMAP names."""
    rows = []
    big = [10007, 10009, 10037]
    rows.append(("numerical", "frobenius(10007,10009,10037)", Job(
        "frobenius", ["frobenius"], numerical_doc([[a] for a in big]), 0,
        equals({"subcommand": "frobenius", "generators": big,
                "frobenius": oracles.frobenius(big)}))))
    singles = [[a] for a in big]
    rows.append(("numerical", "CF3(10007|10009|10037)", Job(
        "chromatic-frobenius", ["chromatic-frobenius", "--k", "3"],
        numerical_doc(singles), 0,
        lambda payload: equals(oracles.chromatic_frobenius(singles, 3))(
            payload))))
    primes = [[p] for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]
    rows.append(("numerical", "count(14 classes, b=500, k=1)", Job(
        "count", ["count", "--target", "500", "--k", "1"],
        numerical_doc(primes), 0,
        lambda payload: equals({
            "subcommand": "count", "target": [500], "k": 1,
            "count": oracles.count_at_least(primes, 500, 1)})(payload))))
    for i, (s1, s2) in enumerate(criterion10_pairs()):
        doc = vector_doc([s1, s2])
        rows.append(("membership", f"criterion10.pair{i:02d}", Job(
            "intersect", ["intersect"], doc, 0,
            lambda payload, doc=doc: oracles.check_intersect(doc, payload))))
    e32 = vector_doc([EXAMPLE_32_COLUMNS[3 * j:3 * j + 3] for j in range(3)])
    rows.append(("membership", "intersect(EXAMPLE_32)", Job(
        "intersect", ["intersect"], e32, 0,
        lambda payload: oracles.check_intersect(e32, payload))))
    return rows


def self_test_generation(seed, count):
    """Digest of the first `count` jobs per workload, for determinism checks."""
    out = {}
    for name in CYCLES:
        out[name] = [(j.kind, j.args, j.doc) for j in
                     (job(name, seed, i) for i in range(count))]
    return out

