"""Discrete minimum-boundary search and convergence experiments.

Finite sets are compared up to translation: the canonical form of a set
translates its lexicographically smallest point to the origin.  Exhaustive
search enumerates canonical forms directly (origin plus points that are
lexicographically positive), which quotients translation exactly.  All
counting is exact; enumeration sizes are guarded by a budget
(`lattice.default_budget`: ISOZONO_BUDGET, default 10 million) and oversized
instances raise BudgetExceededError rather than truncating silently.

Lattice points of a scaled zonotope alpha Z + c are found one line at a
time by the integer line scan of `lattice.lattice_lines`, with one slab per
facet pair (a row of the facet table), which charges its lines times the
facet pairs to the budget before its first line.  The point count is
the sum of hi - lo + 1, and the edge boundary is 2k|S| minus twice the edges
inside S, where the edges along v from line y are the overlap of its interval
with the next line's interval shifted back by v; convergence tables use both
when 2 alpha is not an integer, without building a point list.  When 2 alpha
is an integer they scan nothing: the count and the boundary are read off the
zonotope's table of flats (`Zonotope.flat_table`, `_flat_row`), and at an
integer alpha they are its Ehrhart polynomial at 2 alpha and the derivative
in alpha.  A point has gauge at most alpha about c exactly when it lies in
alpha Z + c, so the gauge prefixes behind the family catalog and the
local-search start come from the same scan at doubling alpha.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, product

from .catalog import _apply_hint, check_symmetry_hints
from .errors import BudgetExceededError, InvalidArgumentError
from .geometry import _vector, convex_hull
from .intmat import (_bit_indices, _norm_num, _rational, common_length, dot, dots, int_point,
                     pack, unpack, vadd, vneg)
from .lattice import default_budget, lattice_lines
from .plgraph import PLGraph, edge_boundary_direct
from .zonotope import Zonotope, zonotope_of_graph

_GROUP_CAP = 4096  # signed permutations in a closed symmetry group


def canonical_set(points):
    """Translate so the lexicographically smallest point is the origin; sort.
    The empty set is its own canonical form, ()."""
    pts = sorted(map(int_point, points))
    common_length(pts)
    if not pts:
        return ()
    base = pts[0]
    return tuple(tuple(a - b for a, b in zip(p, base)) for p in pts)


@dataclass(frozen=True)
class SearchResult:
    """Minimum edge boundary over m-point sets, with canonical witnesses."""

    cardinality: int
    min_boundary: int
    witnesses: tuple
    exhaustive: bool
    witnesses_truncated: bool = False
    evaluated: int = 0


def _signed_permutation_closure(graph: PLGraph, hints):
    """Close the symmetry hints of `graph` under composition.

    Each element is a tuple of (source_index, sign) pairs: the image point has
    y[i] = sign * x[source_index].  Every hint must be a signed permutation
    fixing the generator set (`catalog.check_symmetry_hints`).
    """
    dim = graph.dim
    identity = tuple((i, 1) for i in range(dim))
    group = {identity}
    frontier = [identity]
    gens = [tuple(map(int_point, h)) for h in hints]
    check_symmetry_hints(dim, graph.generators, gens)
    while frontier:
        g = frontier.pop()
        for h in gens:
            comp = tuple((g[j][0], g[j][1] * s) for j, s in h)
            if comp not in group:
                if len(group) >= _GROUP_CAP:
                    raise InvalidArgumentError(f"symmetry closure exceeds {_GROUP_CAP} elements")
                group.add(comp)
                frontier.append(comp)
    return group


def _orbit_canonical(points, group):
    return min(canonical_set(_apply_hint(g, p) for p in points) for g in group)


def _candidate_masks(graph: PLGraph, box_radius: int):
    """Canonical-form candidate points and their in-box adjacency bitmasks."""
    origin = (0,) * graph.dim
    # product lists the box in lexicographic order, the order of tuples.
    box = product(range(-box_radius, box_radius + 1), repeat=graph.dim)
    candidates = [origin] + [p for p in box if p > origin]
    index = {p: i for i, p in enumerate(candidates)}
    masks = []
    for p in candidates:
        m = 0
        for v in graph.generators:
            for q in (vadd(p, v), vadd(p, vneg(v))):
                j = index.get(q)
                if j is not None:
                    m |= 1 << j
        masks.append(m)
    return candidates, masks


def _box_subsets(n: int, m: int, box_radius: int):
    """(pool, subsets) of the box search: the ((2r+1)^n - 1)/2 candidates after
    the origin, and the C(pool, m-1) canonical m-sets (0 when none fits)."""
    npool = ((2 * box_radius + 1) ** n - 1) // 2
    return npool, math.comb(npool, m - 1)


def exhaustive_min_boundary(graph: PLGraph, m: int, box_radius: int, *,
                            witness_cap: int = 100, budget: int | None = None,
                            symmetry_hints=None) -> SearchResult:
    """Provably minimal edge boundary over canonical m-sets in a box.

    Enumerates every m-point set, up to translation, whose canonical form
    lies in [-box_radius, box_radius]^n.  Minimality is relative to that box.
    `symmetry_hints` (signed permutations fixing the graph) deduplicate
    witnesses modulo the hinted group; they are checked against the graph.

    Every minimiser over all of Z^n is connected, so no connectivity filter
    is needed.  Let S be the union of disjoint nonempty sets A and B with no
    edge between them.  Translate B by a lattice vector so that it meets A,
    then slide it along a generator v to one step past its last overlap with
    A.  The result B' is disjoint from A, and some point of B' is adjacent
    (along v) to A, so |d(A u B')| = |dA| + |dB| - 2e(A, B') <= |dS| - 2.
    Hence whenever the window holds a global minimiser, every witness is
    connected.

    The canonical m-sets are the origin plus m - 1 of the candidates, which
    are in lexicographic order; they are walked depth first, prefix by
    prefix, in the order `itertools.combinations` lists them.  A prefix
    carries `inner`, twice its edge count: adding candidate j adds
    2|N(j) & prefix|, so a leaf costs one popcount.  Every neighbour of j in
    the prefix is lexicographically smaller, and of p + v and p - v only one
    is, so a point added when k points are present adds at most
    2 min(k, #generators).  A prefix is cut when its boundary minus the most
    its remaining points can add still exceeds the best so far; the test is
    strict, so every m-set that ties the minimum is visited and `witnesses`
    keeps the first `witness_cap` of them.  `evaluated` counts the
    C(npool, m - 1) canonical m-sets covered, visited or cut.
    """
    if m < 1:
        raise InvalidArgumentError(f"cardinality must be >= 1, got {m}")
    if box_radius < 0:
        raise InvalidArgumentError(f"box radius must be >= 0, got {box_radius}")
    if witness_cap < 1:
        raise InvalidArgumentError(f"witness cap must be >= 1, got {witness_cap}")
    budget = default_budget(budget)
    npool, count = _box_subsets(graph.dim, m, box_radius)
    if not count:
        raise InvalidArgumentError(
            f"no canonical {m}-set fits in a radius-{box_radius} box "
            f"({npool} candidate points)")
    if count > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {count} subsets, budget is {budget} "
            "(raise ISOZONO_BUDGET or shrink the instance)")
    candidates, masks = _candidate_masks(graph, box_radius)
    gens = len(graph.generators)
    const = 2 * gens * m
    # tail[k]: the most the m - k points still to come add to `inner` once
    # k points are present.
    tail = [0] * (m + 1)
    for k in range(m - 1, 0, -1):
        tail[k] = tail[k + 1] + 2 * min(gens, k)
    best = const + 1  # above every boundary: the first leaf sets it
    witnesses = []  # selection bitmasks, bit 0 the origin
    truncated = False
    # (points k, least free index lo, inner, selection bitmask, union of the
    # selection's neighbour masks); children go on in reverse, so they come
    # off in increasing order.  An explicit stack: prefixes can be npool deep.
    stack = [(1, 1, 0, 1, masks[0])]
    while stack:
        k, lo, inner, sel, nbr = stack.pop()
        base = const - inner
        if base - tail[k] > best:
            continue
        if k < m - 1:
            for j in range(npool - m + k + 1, lo - 1, -1):
                stack.append((k + 1, j + 1, inner + 2 * (masks[j] & sel).bit_count(),
                              sel | 1 << j, nbr | masks[j]))
            continue
        if k == m:  # m = 1: the origin alone
            best, witnesses = base, [sel]
            continue
        # A leaf j not adjacent to the prefix has boundary base, so once
        # base > best only the prefix's neighbours can tie or beat best.
        leaves = range(lo, npool + 1) if base <= best else _bit_indices(nbr >> lo << lo)
        for j in leaves:
            b = base - 2 * (masks[j] & sel).bit_count()
            if b < best:
                best = b
                witnesses = [sel | 1 << j]
                truncated = False
            elif b == best:
                if len(witnesses) < witness_cap:
                    witnesses.append(sel | 1 << j)
                else:
                    truncated = True
    # Increasing indices into the sorted candidates, origin first: canonical.
    # The leaves come off in combinations order, so the sets are sorted.
    sets = [tuple(candidates[i] for i in _bit_indices(w)) for w in witnesses]
    if symmetry_hints:
        group = _signed_permutation_closure(graph, symmetry_hints)
        orbits = {}
        for s in sets:
            orbits.setdefault(_orbit_canonical(s, group), s)
        sets = orbits.values()
    return SearchResult(m, best, tuple(sets), True,
                        witnesses_truncated=truncated, evaluated=count)


def _gauge(rows, points, center):
    """(keys, E): the Minkowski gauge about `center` (a tuple of Fractions) in
    the zonotope with the given facet-table rows, the largest
    |<u, p - c>| / h(u), is keys[i] / E for the i-th of `points`.

    The key is an int: with D the common denominator of the centre and
    L = lcm h(u), key(p) = max_u |<u, D(p - c)>| (L / h(u)) and E = L D, so
    keys compare as the gauges do.  Each row takes one `dots` pass of D u
    over the points, in small ints, and only |<D u, p> - <u, D c>| is
    scaled by L / h(u).
    """
    D = math.lcm(*(c.denominator for c in center))
    dc = tuple(c.numerator * (D // c.denominator) for c in center)
    L = math.lcm(*(row.offset for row in rows))
    cols = []
    for row in rows:
        w, k = L // row.offset, dot(row.normal, dc)
        cols.append([abs(x - k) * w for x in dots(tuple(D * a for a in row.normal), points)])
    return list(map(max, zip(*cols))), L * D


def _smallest_gauges(Z: Zonotope, count: int, center, budget=None):
    """The `count` lattice points of smallest gauge about `center`, as
    (gauge, p) pairs sorted by gauge, then p.

    A point has gauge at most alpha about c exactly when it lies in
    alpha Z + c, so the line scan of alpha Z + c holds the points of gauge
    <= alpha and no others.  Once it holds `count` points, every point outside
    it sorts after all of them, so its first `count` are the prefix.  alpha
    doubles from 1 / max h(u), below which no nonzero lattice point has gauge
    <= alpha about the origin.  The points are sorted by the int keys of
    `_gauge`, and only the prefix's keys become Fractions.  `budget`
    (ISOZONO_BUDGET when None) caps each scan's lines, and the scored scan's
    points, times the facet normals.
    """
    budget = default_budget(budget)
    rows = Z.facet_table
    alpha = Fraction(1, max(row.offset for row in rows))
    while True:
        lines = _lattice_lines(Z, alpha, center, budget)
        size = sum(hi - lo + 1 for lo, hi in lines.values())
        if size * len(rows) > budget:
            raise BudgetExceededError(
                f"alpha = {alpha} holds {size} lattice points to score against "
                f"{len(rows)} facet normals, budget is {budget}")
        if size >= count:
            points = [(t,) + y for y, (lo, hi) in lines.items() for t in range(lo, hi + 1)]
            keys, E = _gauge(rows, points, center)
            return [(Fraction(k, E), p) for k, p in sorted(zip(keys, points))[:count]]
        alpha *= 2


def local_search_min_boundary(graph: PLGraph, m: int, iterations: int = 20000,
                              seed: int = 0) -> SearchResult:
    """Best-found edge boundary via swap moves with annealing acceptance.

    One move removes a random point and adds a random neighbor of the
    remaining set.  Acceptance is simulated-annealing style with a geometric
    temperature schedule; the reported value is the best state ever visited,
    so the result never degrades with more iterations.  Deterministic for a
    fixed seed.  The start is the m lattice points of smallest gauge about
    the origin; the enumeration budget caps m and that start's line scans.
    Points are `intmat.pack` codes: a neighbour is one int addition, and
    sorted codes are sorted points.

    A table nb holds, for every point in or next to the set S, its number
    of neighbours in S; a point it lacks has none, and |dS| is the sum of
    2k - nb[p] over S.  A move from S to S' u {cand}, with S' = S - {out},
    changes |dS| by 2|N(out) & S'| - 2|N(cand) & S'|: out's edges into S'
    become boundary edges and cand's stop being ones.  That is
    2(nb[out] - nb[cand] + [cand - out is a step]), since out is no
    neighbour of itself and is one of cand's exactly when they differ by a
    step.  An accepted move updates the table in 2k steps; a rejected one
    touches nothing, and cand in S (cand = out included) changes nothing.
    Each index is drawn as `random.Random.choice` draws it: getrandbits of
    n's bit length, again until below n, so a seed takes the same path as
    the three `choice` calls it replaces.
    """
    if m < 1:
        raise InvalidArgumentError(f"cardinality must be >= 1, got {m}")
    if iterations < 0:
        raise InvalidArgumentError(f"iterations must be >= 0, got {iterations}")
    budget = default_budget()
    if m > budget:
        raise BudgetExceededError(f"local search of {m} points, budget is {budget}")
    rng = random.Random(seed)
    origin = (Fraction(0),) * graph.dim
    start = [p for _, p in _smallest_gauges(zonotope_of_graph(graph), m, origin, budget)]
    gens = graph.generators
    # Each move lands one generator step from the set and each lookup one
    # step further, so no point met has a coordinate beyond R // 2.
    R = 2 * (max(map(abs, chain.from_iterable(start)))
             + (iterations + 1) * max(map(abs, chain.from_iterable(gens)))) + 1
    order = sorted(pack(p, R) for p in start)  # tuple order, so each seed draws as before
    current = set(order)
    codes = [pack(v, R) for v in gens]
    steps = [*codes, *(-c for c in codes)]
    adjacent = frozenset(steps)
    nb = {}
    for c in order:
        for s in steps:
            nb[c + s] = nb.get(c + s, 0) + 1
    cur_b = graph.degree * m - sum(nb.get(c, 0) for c in order)
    best_b = cur_b
    best_set = frozenset(current)
    temperature = float(graph.degree)
    cooling = 0.999
    getrandbits = rng.getrandbits

    def below(n):
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    for _ in range(iterations if m > 1 else 0):  # m = 1 leaves no anchor to draw
        k = below(m)
        out = order[k]
        i = below(m - 1)
        anchor = order[i + (i >= k)]
        v = codes[below(len(codes))]
        cand = anchor + v if rng.random() < 0.5 else anchor - v
        if cand not in current:
            delta = 2 * (nb.get(out, 0) - nb[cand] + (cand - out in adjacent))
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                current.remove(out)
                current.add(cand)
                for s in steps:
                    x = out + s
                    if nb[x] == 1:
                        del nb[x]
                    else:
                        nb[x] -= 1
                    x = cand + s
                    nb[x] = nb.get(x, 0) + 1
                del order[k]
                insort(order, cand)
                cur_b += delta
                if cur_b < best_b:
                    best_b = cur_b
                    best_set = frozenset(current)
        temperature *= cooling
    witness = canonical_set(unpack(best_set, R, graph.dim))
    return SearchResult(m, best_b, (witness,), False, evaluated=iterations)


@dataclass(frozen=True)
class ZonotopePointSet:
    """Lattice points of a scaled (optionally shifted) zonotope."""

    points: tuple
    cardinality: int
    edge_boundary: int
    alpha: Fraction
    center: tuple


def _lattice_lines(Z: Zonotope, alpha: Fraction, center, budget=None):
    """{y: (lo, hi)}: the points (t, y) of Z^n cap (alpha Z + center), lo <= t <= hi.

    With D the common denominator of alpha and center, facet normal u gives
    the slab |D <u, x> - <u, D center>| <= D alpha h(u), divided by D and
    rounded inward.  `budget` (ISOZONO_BUDGET when None) caps the lines
    scanned times the facet normals, charged by the scan before its first line.
    """
    n = Z.dim
    ranges = []
    for i in range(1, n):
        e = tuple(1 if j == i else 0 for j in range(n))
        h = alpha * Z.support(e)
        ranges.append(range(math.ceil(center[i] - h), math.floor(center[i] + h) + 1))
    D = math.lcm(alpha.denominator, *(c.denominator for c in center))
    dc = tuple(c.numerator * (D // c.denominator) for c in center)
    scale = D // alpha.denominator * alpha.numerator
    slabs = []
    for row in Z.facet_table:
        k, H = dot(row.normal, dc), scale * row.offset
        slabs.append((row.normal, -((H - k) // D), (k + H) // D))
    return lattice_lines(f"alpha = {alpha}", slabs, ranges, budget)


def _lines_boundary(lines, generators) -> int:
    """Edge boundary of the set the line intervals describe, without its points.

    Every point has 2k edges; an edge along v joins (t, y) and
    (t + v_0, y + v') when both lie in the set, and the overlap of [lo, hi]
    with the neighbouring line's interval shifted by -v_0 counts those edges.
    """
    size = sum(hi - lo + 1 for lo, hi in lines.values())
    inner = 0
    for v in generators:
        v0, w = v[0], v[1:]
        for y, (lo, hi) in lines.items():
            nb = lines.get(vadd(y, w))
            if nb is not None:
                inner += max(0, min(hi, nb[1] - v0) - max(lo, nb[0] - v0) + 1)
    return 2 * (len(generators) * size - inner)


def zonotope_point_set(graph: PLGraph, alpha, center=None) -> ZonotopePointSet:
    """Z^n intersected with alpha * Z(G) + center, with its edge boundary.

    More lattice lines times facet normals than the enumeration budget,
    counted before the scan, or more points than the budget, raises
    BudgetExceededError before any point is listed."""
    alpha = _rational(alpha, "alpha")
    if alpha <= 0:
        raise InvalidArgumentError(f"alpha must be positive, got {alpha}")
    n = graph.dim
    center = (Fraction(0),) * n if center is None else tuple(
        map(Fraction, _vector(center, n, "center")))
    budget = default_budget()
    lines = _lattice_lines(zonotope_of_graph(graph), alpha, center, budget)
    count = sum(hi - lo + 1 for lo, hi in lines.values())
    if count > budget:
        raise BudgetExceededError(f"alpha = {alpha} holds {count} lattice points, "
                                  f"budget is {budget}")
    pts = tuple(sorted((t,) + y for y, (lo, hi) in lines.items()
                       for t in range(lo, hi + 1)))
    return ZonotopePointSet(pts, count, _lines_boundary(lines, graph.generators),
                            alpha, center)


def _flat_row(Z: Zonotope, t: int, center):
    """(points, edge boundary) of Z^n cap (alpha Z + center) at alpha = t / 2
    for an integer t >= 1, read off `Zonotope.flat_table` with no scan: the
    counted flats' weights, summed by rank, are the coefficients c_k of the
    proof in `convergence_experiment`, tested in ints as <y, D x> = 0 mod D."""
    D = 2 * math.lcm(*(c.denominator for c in center))
    X = [c.numerator * (D // c.denominator) - D // 2 * t * s
         for c, s in zip(center, map(sum, zip(*Z.generators)))]
    if all(a % D == 0 for a in X):
        coeffs = Z.ehrhart_coefficients
    else:
        coeffs = [0] * (Z.dim + 1)
        for flat in Z.flat_table:
            if all(dot(y, X) % D == 0 for y in flat.basis):
                coeffs[flat.rank] += flat.weight
    return (sum(c * t ** k for k, c in enumerate(coeffs)),
            2 * sum(k * c * t ** (k - 1) for k, c in enumerate(coeffs) if k))


@dataclass(frozen=True)
class ConvergenceRow:
    """One scale of the volume/point-count and boundary-ratio limits."""

    alpha: Fraction
    points: int
    volume: object
    discrete_boundary: int
    continuous_boundary: object
    vol_ratio: Fraction
    boundary_ratio: Fraction


def convergence_experiment(graph: PLGraph, alphas, *, budget: int | None = None):
    """Exact convergence table for X = Z(G) at increasing scales alpha.

    When t = 2 alpha is an integer the row is read off the table of flats
    (`_flat_row`) and scans nothing.  Let S = Z^n cap (alpha Z + c) for a
    rational centre c (c = 0 in this table) and x = c - alpha sum_i v_i, so
    alpha Z + c = x + sum_i [0, t v_i].  Let c_k sum c_F over the flats F of
    rank k with x in Z^n + F.  Then S has P(t) = sum_k c_k t^k points and
    edge boundary d/d alpha P(2 alpha) = 2 sum_k k c_k t^(k-1):

    * Indicator.  Stanley's proof splits a lattice zonotope into translates,
      by lattice vectors, of the half-open parallelepipeds on t X for the
      linearly independent sets X of generators.  Such a parallelepiped is a
      fundamental domain of the lattice t Z X in span X, and Z^n cap span X
      holds Z X with index g(X), the gcd of X's maximal minors.  So its
      translate by x holds t^|X| g(X) lattice points if x lies in
      Z^n + span X, and none otherwise.  That is <y, x> integral for each y
      in the flat's basis of Z^n cap F^perp, a saturated lattice; with D the
      denominator of x, <y, D x> = 0 mod D, tested in ints.  Grouping the
      sets X by span gives P(t).  When D x = 0 mod D, as at every integer
      alpha about the origin, every flat counts and c_k is
      `Zonotope.ehrhart_coefficients`.
    * Lines.  S is the lattice points of a convex body, so every lattice line
      along a generator v_i meets it in a run with no gap, and the run costs
      two boundary edges: |dS| = 2 sum_i lines_i(S).  Every fibre of
      alpha Z + c along v_i holds a segment of length t >= 1 in steps of
      v_i, so lines_i(S) is the number of points of the lattice pi_i(Z^n) in
      the projection pi_i(alpha Z + c) along v_i: the zonotope of the
      projected generators, moved by pi_i(x).  The same count in pi_i(Z^n)
      gives lines_i(S) = sum_Y [x in Z^n + span(Y u {v_i})] g(Y u {v_i}) t^|Y|
      over the sets Y of the other generators with Y u {v_i} independent:
      the index of pi_i(Y) is g(Y u {v_i}), since v_i is primitive, and
      pi_i(x) lies in pi_i(Z^n) + span pi_i(Y) exactly when x lies in
      Z^n + span(Y u {v_i}).
    * Regrouping.  Summed over i, each independent set X of k generators
      appears once for each of its k elements v_i, as Y = X - {v_i}, with
      the indicator of span X.  So |dS| = 2 sum_k k c_k t^(k-1).

    Any other alpha counts Z^n cap alpha Z from the integer line intervals
    of `_lattice_lines` (the sum of hi - lo + 1) and takes the edge boundary
    from the overlaps of neighbouring intervals, so no point list is built.
    The budget caps those scans' lattice lines times the facet normals, per
    scale; a scale over it raises BudgetExceededError before any row is
    returned.  A closed-form row charges nothing.
    """
    alphas = [_rational(a, "alpha") for a in alphas]
    if not alphas:
        raise InvalidArgumentError("at least one alpha is required")
    if any(a <= 0 for a in alphas):
        raise InvalidArgumentError("alphas must be positive")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidArgumentError("alphas must be strictly increasing")
    budget = default_budget(budget)
    Z = zonotope_of_graph(graph)
    n = graph.dim
    vol_z = Z.volume()
    b_z = n * vol_z
    origin = (Fraction(0),) * n
    rows = []
    for a in alphas:
        if (2 * a).denominator == 1:
            points, boundary = _flat_row(Z, int(2 * a), origin)
        else:
            lines = _lattice_lines(Z, a, origin, budget)
            points = sum(hi - lo + 1 for lo, hi in lines.values())
            boundary = _lines_boundary(lines, graph.generators)
        volume = _norm_num(a ** n * vol_z)
        cont = _norm_num(a ** (n - 1) * b_z)
        rows.append(ConvergenceRow(
            alpha=a,
            points=points,
            volume=volume,
            discrete_boundary=boundary,
            continuous_boundary=cont,
            vol_ratio=Fraction(volume, points),
            boundary_ratio=Fraction(cont, boundary),
        ))
    return tuple(rows)


def hull_direction_count(points) -> int:
    """Number of supporting facet directions of the convex hull, counted in
    its affine span (on the chart body `convex_hull` builds when it is flat):
    0 for a single point, 2 for a segment, the edge count for a polygon."""
    hull = convex_hull(list(points))
    return len((hull.chart.body if hull.chart else hull).facets)


@dataclass(frozen=True)
class LimitingShapeRow:
    """Per-cardinality comparison of exhaustive optima with the zonotope family."""

    cardinality: int
    exhaustive: bool
    min_boundary: int | None
    witness_count: int
    witness_hull_directions: tuple
    family_sets: tuple  # ZonotopePointSet members with this cardinality
    family_match: bool | None  # None when either side is unavailable
    nearest_cardinalities: tuple  # (below, above) members when no match


def _family_catalog(graph: PLGraph, m_max: int):
    """{m: members}: the sets Z^n cap (g Z + c) of m <= m_max points, c in {0, 1/2}^n,
    read from the gauge prefixes where the gauge jumps (the origin alone has
    g = 0); the first in (g, c) order of each canonical form is kept.  The
    prefixes are scanned under ISOZONO_BUDGET, as the local-search start is."""
    Z = zonotope_of_graph(graph)
    sets = {}
    for center in product((Fraction(0), Fraction(1, 2)), repeat=graph.dim):
        gauges = _smallest_gauges(Z, m_max + 1, center)
        prefix = [p for _, p in gauges]
        for cum in range(1, m_max + 1):
            g = gauges[cum - 1][0]
            if gauges[cum][0] != g:  # the gauge-g ball holds exactly cum points
                sets.setdefault(cum, []).append((g, center, tuple(sorted(prefix[:cum]))))
    catalog = {}
    for m, entries in sets.items():
        uniq = {}
        for g, center, member in sorted(entries):
            uniq.setdefault(canonical_set(member), (member, g, center))
        catalog[m] = tuple(ZonotopePointSet(s, m, edge_boundary_direct(graph, s), g, c)
                           for s, g, c in uniq.values())
    return catalog


def limiting_shape_report(graph: PLGraph, m_max: int, *, box_radius: int | None = None,
                          budget: int | None = None):
    """Compare exhaustive optima with the shifted-zonotope lattice family.

    For each m <= m_max: run exhaustive search (when it fits the budget) and
    collect the family sets Z^n cap (alpha Z + c) of cardinality m over
    half-integer centers c in {0, 1/2}^n, reporting whether some optimal
    witness equals a family set up to translation, and each witness's number
    of supporting hull directions.  When no family set has cardinality m, the
    nearest realizable cardinalities are reported instead.

    The search window is at least `box_radius` but grows per row to contain
    that row's family sets, so an `exhaustive` row's minimum is always <= the
    family boundaries listed beside it.  Rows whose (possibly enlarged) window
    exceeds the budget report family data only, with `exhaustive=False`.
    `budget` (ISOZONO_BUDGET when None) also caps m_max, as local search caps
    m, since the family catalog lists m_max + 1 points about each centre; the
    catalog's own scans run under ISOZONO_BUDGET (`_family_catalog`).
    """
    if m_max < 1:
        raise InvalidArgumentError(f"m_max must be >= 1, got {m_max}")
    budget = default_budget(budget)
    if m_max > budget:
        raise BudgetExceededError(f"limiting-shape report up to m = {m_max}, "
                                  f"budget is {budget}")
    n = graph.dim
    if box_radius is None:  # the least r with r^n >= m_max, then one more
        box_radius = 1 + next(r for r in count(1) if r ** n >= m_max)
    catalog = _family_catalog(graph, m_max)
    all_cards = sorted(catalog)
    rows = []
    for m in range(1, m_max + 1):
        family = catalog.get(m, ())
        canons = {canonical_set(f.points) for f in family}
        # Enlarge the window to contain every same-cardinality family set:
        # otherwise a small window could report a "minimum" that one of the
        # family sets printed next to it visibly beats.
        radius = max([box_radius] + [abs(c) for s in canons for p in s for c in p])
        result = None
        if 0 < _box_subsets(n, m, radius)[1] <= budget:
            result = exhaustive_min_boundary(graph, m, radius, budget=budget)
        directions, match = (), None
        if result is not None:
            directions = tuple(hull_direction_count(w) for w in result.witnesses)
            if family:
                match = any(w in canons for w in result.witnesses)
        nearest = ()
        if not family:
            below = max((c for c in all_cards if c < m), default=None)
            above = min((c for c in all_cards if c > m), default=None)
            nearest = tuple(catalog[c][0] for c in (below, above) if c is not None)
        rows.append(LimitingShapeRow(
            cardinality=m,
            exhaustive=result is not None,
            min_boundary=None if result is None else result.min_boundary,
            witness_count=0 if result is None else len(result.witnesses),
            witness_hull_directions=directions,
            family_sets=family,
            family_match=match,
            nearest_cardinalities=nearest,
        ))
    return tuple(rows)
