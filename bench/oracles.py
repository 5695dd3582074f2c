"""Independent answers for benchmark jobs.

Nothing here imports chromatic_semigroups.  Every expected answer comes
from arithmetic done without the program: Apéry sets by shortest paths,
bitset closures of generator sets, a per-color counting DP, exhaustive
enumeration, or a certificate checked directly (A x = b).  Closures in
dimension > 1 need nonnegative generators, so the job generators draw only
those outside the `hilbert` and `cteg` jobs.
"""

import heapq
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm

ZERO_NOTE = ("0 is counted as a chromatic gap: the empty solution uses no "
             "colors")
CARATHEODORY_NOTE = ("zero target excluded by convention (empty solution "
                     "uses no colors)")


class Mismatch(Exception):
    """A report disagrees with the independent answer."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# numerical semigroups (dimension 1)


def apery(gens):
    """Smallest representable value in each residue class mod min(gens)."""
    a = min(gens)
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in gens:
            nd = d + g
            nr = nd % a
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def frobenius(gens):
    ap = apery(gens)
    return max(ap) - min(gens)


def gaps(gens):
    ap = apery(gens)
    a = min(gens)
    return [v for v in range(max(ap) - a + 1) if v < ap[v % a]]


def reach_bits(gens, bound):
    """Bitset of the values in [0, bound] that the generators represent."""
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for a in gens:
        step = a
        while step <= bound:
            bits |= (bits << step) & mask
            step *= 2
    return bits


def zero_positions(bits, bound):
    text = format(bits, "b").zfill(bound + 1)[::-1]
    return [i for i, ch in enumerate(text) if ch == "0"]


def offsets(classes, k):
    return sorted({sum(pick) for chosen in combinations(classes, k)
                   for pick in product(*chosen)})


def chromatic_frobenius(classes, k):
    """Expected `chromatic-frobenius` payload.

    A target has a solution touching at least k classes exactly when it is
    one generator from each of k distinct classes plus a semigroup element,
    so the k-chromatic set is a union of shifted copies of the reach bitset.
    """
    gens = sorted(a for cls in classes for a in cls)
    offs = offsets(classes, k)
    upper = offs[0] + frobenius(gens)
    mask = (1 << (upper + 1)) - 1
    reach = reach_bits(gens, upper)
    hit = 0
    for v in offs:
        if v <= upper:
            hit |= (reach << v) & mask
    gap_list = zero_positions(hit, upper)
    return {
        "subcommand": "chromatic-frobenius",
        "classes": [list(cls) for cls in classes],
        "k": k,
        "value": max(gap_list),
        "bounds": [offs[0] - 1, upper],
        "offsets": offs,
        "gap_set": gap_list,
        "note": ZERO_NOTE,
    }


def color_counts(classes, horizon):
    """exact[j][b]: solutions of b (b <= horizon) using exactly j classes.

    Classes are folded in one at a time: a solution either avoids the new
    class or uses it at least once, and the latter are (all solutions over
    the class) minus (those using none of it).
    """
    ell = len(classes)
    exact = [[0] * (horizon + 1) for _ in range(ell + 1)]
    exact[0][0] = 1
    for cls in classes:
        for j in range(ell, 0, -1):
            prev = exact[j - 1]
            spread = list(prev)
            for a in cls:
                for v in range(a, horizon + 1):
                    spread[v] += spread[v - a]
            row = exact[j]
            for v in range(horizon + 1):
                row[v] += spread[v] - prev[v]
    return exact


def count_at_least(classes, b, k):
    exact = color_counts(classes, b)
    return sum(exact[j][b] for j in range(k, len(classes) + 1))


def check_quasipoly(classes, k, payload):
    """The fitted constituents reproduce every exact count from the reported
    threshold through the validation window, and miss just below it."""
    gens = sorted(a for cls in classes for a in cls)
    period = lcm(*gens)
    expect(payload["period"] == period, f"period {payload['period']} != {period}")
    expect(payload["k"] == k, "k echoed wrongly")
    cons = payload["constituents"]
    expect(len(cons) == period, "one constituent per residue expected")
    start = offsets(classes, k)[0] + frobenius(gens) + 1
    end = start + len(gens) * period + period
    exact = color_counts(classes, end)
    want = [sum(exact[j][b] for j in range(k, len(classes) + 1))
            for b in range(end + 1)]
    coeffs = [[Fraction(str(c)) for c in row] for row in cons]

    def value(b):
        acc = Fraction(0)
        for c in reversed(coeffs[b % period]):
            acc = acc * b + c
        return acc

    t = payload["threshold"]
    expect(0 <= t <= start, f"threshold {t} outside [0, {start}]")
    for b in range(t, end + 1):
        expect(value(b) == want[b], f"constituent wrong at b={b}")
    if t > 0:
        expect(value(t - 1) != want[t - 1], f"threshold {t} is not minimal")


def numerical_intersection(blocks):
    """Minimal generators of the common monoid of several numerical monoids."""
    period = lcm(*(gcd(*block) for block in blocks))
    bound = 4 * period + 4 * max(v for b in blocks for v in b)
    while True:
        common = (1 << (bound + 1)) - 1
        for block in blocks:
            common &= reach_bits(block, bound)
        members = [v for v in range(period, bound + 1, period)
                   if common >> v & 1]
        if not members:
            bound *= 2
            continue
        smallest = members[0]
        last_gap = max((v for v in range(period, bound + 1, period)
                        if not common >> v & 1), default=0)
        if last_gap + smallest + period <= bound:
            break
        bound *= 2
    top = last_gap + smallest
    inner = [v for v in members if v <= top]
    inner_bits = 0
    for v in inner:
        inner_bits |= 1 << v
    reducible = 0
    for u in inner:
        reducible |= inner_bits << u
    return [v for v in inner if not reducible >> v & 1]


# ---------------------------------------------------------------------------
# closures in a box, dimension >= 1, nonnegative generators


class Box:
    """Lattice points of [0, hi_1] x ... x [0, hi_d] packed into one integer.

    Each axis gets twice its range as pitch, so adding a vector that fits in
    the box never carries into the next axis; the valid-cell mask then
    drops whatever left the box.
    """

    def __init__(self, hi):
        self.hi = tuple(max(int(h), 0) for h in hi)
        self.strides = []
        stride = 1
        for h in self.hi:
            self.strides.append(stride)
            stride *= 2 * (h + 1)
        row = 1
        for h, s in zip(self.hi, self.strides):
            block = 0
            for x in range(h + 1):
                block |= row << (x * s)
            row = block
        self.mask = row

    def fits(self, v):
        return all(0 <= c <= h for c, h in zip(v, self.hi))

    def index(self, v):
        return sum(c * s for c, s in zip(v, self.strides))

    def has(self, bits, v):
        return self.fits(v) and bits >> self.index(v) & 1 == 1

    def closure(self, gens, start=1):
        """Semigroup (or `start` + semigroup) generated inside the box."""
        bits = start
        for g in gens:
            if not self.fits(g) or not any(g):
                continue
            shift = self.index(g)
            mult = 1
            while all(mult * c <= h for c, h in zip(g, self.hi)):
                bits |= (bits << (mult * shift)) & self.mask
                mult *= 2
        return bits

    def shift_union(self, bits, vectors):
        out = 0
        for v in vectors:
            if self.fits(v):
                out |= (bits << self.index(v)) & self.mask
        return out


def top_corner(vectors, dim):
    return tuple(max((v[j] for v in vectors), default=0) for j in range(dim))


def _rref(rows):
    """Reduced row echelon form over the rationals: (nonzero rows, pivots)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def extreme_rays(rows, n):
    """Primitive extreme rays of the cone {z >= 0 : rows . z = 0} in R^n.

    The support of an extreme ray is a column set whose kernel is a line
    (rank one less than its size) spanned by a vector of one sign.
    """
    rays = set()
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            red, pivots = _rref([[row[j] for j in support] for row in rows])
            if len(pivots) != size - 1:
                continue
            free = next(j for j in range(size) if j not in pivots)
            vec = [Fraction(0)] * size
            vec[free] = Fraction(1)
            for row, p in zip(red, pivots):
                vec[p] = -row[free]
            if not (all(v > 0 for v in vec) or all(v < 0 for v in vec)):
                continue
            scale = lcm(*(v.denominator for v in vec))
            ints = [abs(int(v * scale)) for v in vec]
            g = gcd(*ints)
            z = [0] * n
            for j, v in zip(support, ints):
                z[j] = v // g
            rays.add(tuple(z))
    return sorted(rays)


def hilbert_bounds(rows, n, functionals):
    """For each functional (nonnegative on the cone), an upper bound on its
    value over the Hilbert basis of {z in N^n : rows . z = 0}.

    Computed from the system alone: a basis element is an extreme ray or
    lies in the half-open parallelepiped of at most d linearly independent
    extreme rays (d the cone's dimension), because a ray taken with
    coefficient >= 1 could be split off.  Its value is thus at most the sum
    of the d largest values on the rays.
    """
    rays = extreme_rays(rows, n)
    d = len(_rref(rays)[1])
    out = []
    for f in functionals:
        vals = sorted((sum(a * b for a, b in zip(f, r)) for r in rays),
                      reverse=True)
        out.append(sum(vals[:d]))
    return out


def intersection_corner(blocks, dim):
    """A box corner that holds every minimal generator of the intersection
    of the monoids the (nonnegative) blocks generate.

    Each minimal generator is the image B_1 x of a Hilbert basis element
    (x, y, ...) of B_1 x = B_2 y = ..., so `hilbert_bounds` of the image
    coordinates bound it."""
    n = sum(len(b) for b in blocks)
    first = len(blocks[0])
    rows = []
    pos = first
    for block in blocks[1:]:
        for j in range(dim):
            row = [0] * n
            for i, g in enumerate(blocks[0]):
                row[i] = g[j]
            for i, g in enumerate(block):
                row[pos + i] = -g[j]
            rows.append(row)
        pos += len(block)
    functionals = [[g[j] for g in blocks[0]] + [0] * (n - first)
                   for j in range(dim)]
    return tuple(hilbert_bounds(rows, n, functionals))


def semigroup_closure_matches(blocks, reported, dim):
    """Check reported minimal generators of the intersection of `blocks`.

    The box holds every true minimal generator (`intersection_corner`) and
    every reported one, so equal closures in it prove that the reported
    set generates the intersection and lies in it."""
    vecs = [tuple(g) for g in reported]
    expect(vecs == sorted(set(vecs)), "generators not sorted and distinct")
    corner = top_corner(vecs + [intersection_corner(blocks, dim)], dim)
    box = Box(corner)
    common = box.mask
    for block in blocks:
        common &= box.closure(block)
    expect(box.closure(vecs) == common,
           "reported generators do not generate the intersection")
    for i, g in enumerate(vecs):
        small = Box(g)
        others = [h for j, h in enumerate(vecs) if j != i]
        expect(not small.has(small.closure(others), g),
               f"generator {list(g)} is generated by the others")


def is_member(gens, b):
    box = Box(b)
    return box.has(box.closure(gens), b)


def solves(cols, x, b):
    expect(len(x) == len(cols) and all(isinstance(v, int) and v >= 0
                                       for v in x), "witness malformed")
    got = [sum(x[i] * cols[i][j] for i in range(len(cols)))
           for j in range(len(b))]
    expect(got == list(b), f"witness reaches {got}, not {list(b)}")


def intersection_generators(blocks, dim, reported):
    if dim == 1 and all(g[0] > 0 for b in blocks for g in b):
        want = [[v] for v in numerical_intersection(
            [[g[0] for g in b] for b in blocks])]
        expect(reported == want, f"generators {reported} != {want}")
    else:
        semigroup_closure_matches(blocks, reported, dim)


def check_intersect(doc, payload):
    blocks = [[tuple(g) for g in c["generators"]] for c in doc["colors"]]
    dim = doc["dimension"]
    expect(payload["subcommand"] == "intersect" and payload["dimension"] == dim,
           "header fields")
    intersection_generators(blocks, dim, payload["generators"])
    expect(payload["trivial"] == (not payload["generators"]), "trivial flag")


def check_caratheodory(doc, payload):
    dim = doc["dimension"]
    classes = [[tuple(g) for g in c["generators"]] for c in doc["colors"]]
    cols = [g for cls in classes for g in cls]
    ell = len(classes)
    gens = [tuple(g) for g in payload["intersection_generators"]]
    intersection_generators(classes, dim, [list(g) for g in gens])
    cands = set()
    for size in range(1, ell):
        for combo in combinations_with_replacement(gens, size):
            cands.add(tuple(map(sum, zip(*combo))))
    cands = sorted(cands)
    expect([tuple(b) for b in payload["candidates_checked"]] == cands,
           "candidate list differs")
    box = Box(top_corner(cands, dim))
    chromatic = box.closure(cols)
    for cls in classes:
        chromatic = box.shift_union(chromatic, cls)
    want = [b for b in cands if not box.has(chromatic, b)]
    got = [tuple(e["target"]) for e in payload["exceptions"]]
    expect(got == want, f"exceptions {got} != {want}")
    for e in payload["exceptions"]:
        wits = e["monochromatic_witnesses"]
        expect(len(wits) == ell, "one witness per color expected")
        pos = 0
        for cls, x in zip(classes, wits):
            solves(cols, x, e["target"])
            expect(all(v == 0 for i, v in enumerate(x)
                       if not pos <= i < pos + len(cls)),
                   "witness leaves its color")
            pos += len(cls)
    expect(payload["note"] == CARATHEODORY_NOTE, "note text")


# ---------------------------------------------------------------------------
# two-dimensional cones in the first quadrant, as angular intervals


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def angular_interval(gens):
    lo = hi = gens[0]
    for g in gens[1:]:
        if _cross(lo, g) < 0:
            lo = g
        if _cross(hi, g) > 0:
            hi = g
    return lo, hi


def cones_meet(members):
    """Whether cones of nonnegative 2-D generator sets share a nonzero point."""
    ivs = [angular_interval(m) for m in members]
    lo = ivs[0][0]
    hi = ivs[0][1]
    for a, b in ivs[1:]:
        if _cross(lo, a) > 0:
            lo = a
        if _cross(hi, b) < 0:
            hi = b
    return _cross(lo, hi) >= 0


def check_helly(doc, payload):
    members = [sorted(set(tuple(g) for g in c["generators"]))
               for c in doc["colors"]]
    n = len(members)
    size = min(2, n)
    first_bad = ()
    for idxs in combinations(range(n), size):
        if not cones_meet([members[i] for i in idxs]):
            first_bad = idxs
            break
    conclusion = cones_meet(members)
    want = {
        "subcommand": "helly-audit",
        "case_assertion": "pointed-noncover",
        "case_size": size,
        "subset_size": size,
        "premise_holds": not first_bad,
        "conclusion_holds": conclusion,
        "counterexample_subset": list(first_bad),
        "sampled": False,
        "seed": None,
        "note": "",
    }
    got = {k: v for k, v in payload.items() if k != "witness"}
    expect(got == want, f"audit fields {got} != {want}")
    w = payload["witness"]
    if conclusion:
        expect(any(w), "zero witness")
        for m in members:
            expect(is_member(m, w), f"witness {w} outside member {m}")
    else:
        expect(w == [], "witness without a common element")


def growth_strings(k, r):
    """Labelings of k items with exactly r blocks, block i first used before
    block i + 1, in lexicographic order."""
    labels = [0] * k

    def rec(i, used):
        if used + (k - i) < r:
            return
        if i == k:
            yield tuple(labels)
            return
        for lab in range(min(used + 1, r)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


def check_tverberg(doc, r, payload):
    gens = sorted(set(tuple(g) for c in doc["colors"] for g in c["generators"]))
    expect([tuple(g) for g in payload["generators"]] == gens, "generator list")
    k = len(gens)
    want_blocks = None
    for labels in growth_strings(k, r):
        blocks = [[i for i, lab in enumerate(labels) if lab == b]
                  for b in range(r)]
        if cones_meet([[gens[i] for i in blk] for blk in blocks]):
            want_blocks = blocks
            break
    expect(payload["partition"] == want_blocks,
           f"partition {payload['partition']} != {want_blocks}")
    p = payload["common_element"]
    expect(any(p), "zero common element")
    for blk, x in zip(want_blocks, payload["block_witnesses"]):
        solves([gens[i] for i in blk], x, p)
    expect(payload["hypothesis_met"] == (k >= 2 * (r - 1) + 1), "hypothesis flag")


# ---------------------------------------------------------------------------
# exhaustive enumeration


def solutions_nonneg(cols, b, limit=None):
    """All x >= 0 with sum x_i cols_i = b, for nonnegative nonzero columns
    (only the first limit + 1 of them when `limit` is given).

    The search only enters a branch whose residual the remaining columns
    can still reach, read off a bitset closure of each column suffix.
    """
    n = len(cols)
    box = Box(b)
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = box.closure([cols[i]], start=suffix[i + 1])
    out = []
    x = [0] * n

    def rec(i, res):
        if i == n:
            out.append(tuple(x))
            return
        col = cols[i]
        m = 0
        while all(r >= 0 for r in res) and not (
                limit is not None and len(out) > limit):
            if box.has(suffix[i + 1], res):
                x[i] = m
                rec(i + 1, res)
            res = [r - c for r, c in zip(res, col)]
            m += 1
        x[i] = 0

    if box.has(suffix[0], b):
        rec(0, list(b))
    return sorted(out)


def classify(classes, x):
    support = {i for i, v in enumerate(x) if v}
    used = [ci for ci, cls in enumerate(classes) if support & set(cls)]
    return {
        "solution": list(x),
        "colors_used": used,
        "chromatic_level": len(used),
        "monochromatic": len(used) <= 1,
        "chromatic": len(used) == len(classes),
        "colorful": all(len(support & set(cls)) <= 1 for cls in classes),
    }


def column_classes(doc):
    cols, classes = [], []
    for c in doc["colors"]:
        idxs = []
        for g in c["generators"]:
            cols.append(tuple(g))
            idxs.append(len(cols) - 1)
        classes.append(idxs)
    return cols, classes


def solve_payload(doc, targets):
    cols, classes = column_classes(doc)
    results = []
    for b in targets:
        sols = solutions_nonneg(cols, b)
        results.append({"target": list(b), "solution_count": len(sols),
                        "solutions": [classify(classes, x) for x in sols]})
    return {"subcommand": "solve", "results": results}


def count_payload(doc, b, k):
    cols, classes = column_classes(doc)
    n = sum(1 for x in solutions_nonneg(cols, b)
            if classify(classes, x)["chromatic_level"] >= k)
    return {"subcommand": "count", "target": list(b), "k": k, "count": n}


def kernel_minimal(cols, tops):
    """Componentwise-minimal nonzero z, 0 <= z_i <= tops[i], with
    sum z_i cols_i = 0.

    These are exactly the Hilbert basis elements inside the box; the two
    halves of the columns meet in the middle on their partial sums.
    """
    n = len(cols)
    half = n // 2
    d = len(cols[0])

    def sums(part, part_tops):
        table = {}
        for z in product(*(range(t + 1) for t in part_tops)):
            s = tuple(sum(z[i] * part[i][j] for i in range(len(part)))
                      for j in range(d))
            table.setdefault(s, []).append(z)
        return table

    left = sums(cols[:half], tops[:half])
    right = sums(cols[half:], tops[half:])
    sols = []
    for s, zs in left.items():
        for z2 in right.get(tuple(-c for c in s), ()):
            for z1 in zs:
                z = z1 + z2
                if any(z):
                    sols.append(z)
    basis = []
    for z in sorted(sols, key=lambda v: (sum(v), v)):
        if not any(all(a >= b for a, b in zip(z, m)) for m in basis):
            basis.append(z)
    return sorted(basis)


def check_hilbert(doc, payload):
    cols = [tuple(g) for c in doc["colors"] for g in c["generators"]]
    expect(payload["columns"] == [list(c) for c in cols], "column echo")
    basis = [tuple(z) for z in payload["basis"]]
    n = len(cols)
    rows = [[c[j] for c in cols] for j in range(len(cols[0]))]
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    want = kernel_minimal(cols, hilbert_bounds(rows, n, unit))
    expect(basis == want, f"basis {basis} != {want}")


def cteg_rows(n):
    rows = []
    for i in range(1, n + 1):
        rows.append(((0, 2 ** i - 1, 2 ** i),
                     (1, n + 2 ** i - 1, n + 2 ** i + 1),
                     (2, 2 * (n - 2 ** i) + 1, 2 * (n - 2 ** i) + 1)))
    return rows


def cteg_expressions(n):
    """All ways to reach (3, 3n-1, 3n+2) over the pooled family columns.

    The first coordinate forces either three columns of the middle kind or
    one middle and one last column; what remains must come from columns
    (0, 2^i - 1, 2^i), which a bounded search finishes.
    """
    rows = cteg_rows(n)
    target = (3, 3 * n - 1, 3 * n + 2)
    mids = [(3 * i + 1, rows[i][1]) for i in range(n)]
    lasts = [(3 * i + 2, rows[i][2]) for i in range(n)]
    firsts = [(3 * i, rows[i][0]) for i in range(n)]
    picks = [list(c) for c in combinations_with_replacement(mids, 3)]
    picks += [[m, l] for m in mids for l in lasts]
    out = set()
    for pick in picks:
        res = list(target)
        x = [0] * (3 * n)
        for idx, v in pick:
            x[idx] += 1
            res = [a - b for a, b in zip(res, v)]

        def rec(i, y, z, left):
            # every first-kind column adds exactly 1 more to z than to y,
            # so z - y of them remain to be placed
            if i == len(firsts):
                if y == 0 and z == 0:
                    out.add(tuple(x))
                return
            idx, (_, dy, dz) = firsts[i]
            for m in range(left + 1):
                if y - m * dy < 0 or z - m * dz < 0:
                    break
                x[idx] = m
                rec(i + 1, y - m * dy, z - m * dz, left - m)
            x[idx] = 0

        if res[0] == 0 and res[2] >= res[1]:
            rec(0, res[1], res[2], res[2] - res[1])
    return sorted(out)


def cteg_payload(n):
    rows = cteg_rows(n)
    exprs = cteg_expressions(n)
    classes = [[3 * j, 3 * j + 1, 3 * j + 2] for j in range(n)]
    diag = sorted(tuple(1 if i // 3 == j else 0 for i in range(3 * n))
                  for j in range(n))
    return {
        "subcommand": "cteg",
        "n": n,
        "target": [3, 3 * n - 1, 3 * n + 2],
        "rows": [[list(v) for v in row] for row in rows],
        "verified": exprs == diag,
        "expression_count": len(exprs),
        "all_monochromatic": all(
            classify(classes, x)["chromatic_level"] <= 1 for x in exprs),
        "expressions": [list(x) for x in exprs],
    }
