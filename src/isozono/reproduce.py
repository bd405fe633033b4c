"""The regression suite behind ``isozono reproduce``.

Each item recomputes one published or derived result from scratch and
returns (ok, detail).  The items are the only copy of the acceptance checks:
``tests/test_acceptance.py`` runs each one as the test of its clause.  Items
2c and 10c check two supplied reference values in corrected form (see the
README's "Reference data erratum"): 2c takes its facet offsets from the
reference vertex orbit of item 2a, and 10c asserts the 5%/1% volume-ratio
tolerances at alpha = 20 and 100, where they first hold.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations, product

from .boundary import brunn_minkowski_certificate, zonotope_boundary_identity
from .catalog import BUILTIN_NAMES, builtin_graph
from .errors import InvalidArgumentError
from .geometry import convex_hull
from .intmat import canonical_sign, content, gram_det, kernel_basis, vadd, vsub
from .lattice import (boundary_lattice_points, count_lattice_points, pick_area,
                      projection_lattice_det_squared)
from .plgraph import boundary_identity_report, edge_boundary_direct
from .search import (canonical_set, convergence_experiment,
                     exhaustive_min_boundary, hull_direction_count,
                     limiting_shape_report, local_search_min_boundary,
                     zonotope_point_set)
from .zonotope import Zonotope, f_vector, facet_polytope, homothety_check, hyperplane_section

_SEED = 20240811


def _check_fvectors():
    bounds = {"linf:2": ((8, 8), 1.0), "linf:3": ((96, 144, 50), 10.0),
              "linf:4": ((5376, 11328, 7312, 1360), 600.0)}
    details = []
    for name, (want, limit) in bounds.items():
        spec = builtin_graph(name)
        t0 = time.monotonic()
        got = f_vector(Zonotope(spec.dim, spec.generators)).counts
        dt = time.monotonic() - t0
        if got != want:
            return False, f"{name}: f-vector {got}, expected {want}"
        if dt >= limit:
            return False, f"{name}: took {dt:.1f}s, limit {limit:.0f}s"
        details.append(f"{name} {' '.join(map(str, got))} ({dt:.2f}s)")
    return True, "; ".join(details)


def _zc_orbit():
    """The reference vertex set: all signed permutations of (0, 2, 4, 6)."""
    return {tuple(s * a for s, a in zip(signs, perm))
            for perm in permutations((0, 2, 4, 6))
            for signs in product((-1, 1), repeat=4)}


def _check_zc_vertices():
    Z = builtin_graph("d4cross").original_zonotope()
    t0 = time.monotonic()  # a fresh body: original_zonotope() is memoised
    got = Zonotope(Z.dim, Z.generators).polytope().vertices
    dt = time.monotonic() - t0
    if len(got) != 192 or set(got) != _zc_orbit():
        return False, f"{len(got)} vertices, expected the 192-point orbit of (0,2,4,6)"
    if dt >= 60:
        return False, f"vertex enumeration took {dt:.1f}s, limit 60s"
    return True, f"192 vertices = signed permutations of (0,2,4,6) ({dt:.2f}s)"


def _check_zc_fvector():
    got = f_vector(builtin_graph("d4cross").original_zonotope()).counts
    want = (192, 384, 240, 48)
    return got == want, f"f-vector {got}" + ("" if got == want else f", expected {want}")


def _reference_zc_facets():
    """The 48 facet normals, each with its support value over the orbit.

    The supplied offsets 12/20/24 are those of twice the orbit (the sum of
    [-w, w] over all 24 roots); the body is the sum of [0, w] over the 24
    one-sided segments, whose vertices are the orbit itself.
    """
    normals = {u for u in product((-1, 0, 1), repeat=4)
               if sum(map(abs, u)) in (1, 2, 4)}
    orbit = _zc_orbit()
    return {u: max(sum(a * b for a, b in zip(u, v)) for v in orbit)
            for u in normals}


def _check_zc_facets():
    got = {n: int(c) for n, c in builtin_graph("d4cross").original_zonotope().polytope().facets}
    want = _reference_zc_facets()
    if len(want) != 48 or got.keys() != want.keys():
        return False, "facet normal sets differ"
    wrong = sorted((n, c, want[n]) for n, c in got.items() if c != want[n])
    if not wrong:
        return True, ("48 facets; offsets 6/10/12 = support values of the "
                      "(0,2,4,6) orbit")
    return False, ("offsets differ from the orbit's support values (normal, "
                   "computed, expected): "
                   + ", ".join(f"{n}: {a} vs {b}" for n, a, b in wrong))


def _check_identity_fuzz():
    rng = random.Random(_SEED)
    total = 0
    for name in BUILTIN_NAMES:
        g = builtin_graph(name).graph()
        span = {1: 25, 2: 6, 3: 4, 4: 4}[g.dim]
        for _ in range(1000):
            m = rng.randint(1, 40)
            pts = set()
            while len(pts) < m:
                pts.add(tuple(rng.randint(-span, span) for _ in range(g.dim)))
            rep = boundary_identity_report(g, pts)
            if not rep.identity_holds:
                return False, f"{name}: identity failed on a {m}-point set"
            total += 1
    return total == 10_000, f"{total} random sets, zero identity failures"


def _check_projection_lattice_fuzz():
    rng = random.Random(_SEED + 1)
    done = 0
    while done < 200:
        n = rng.randint(2, 4)
        a = tuple(rng.randint(-9, 9) for _ in range(n))
        if not any(a) or content(a) != 1:
            continue
        basis = kernel_basis([a], n)
        gram = gram_det(basis)
        norm2 = sum(c * c for c in a)
        if gram != norm2:
            return False, f"vector {a}: Gram determinant {gram}, expected {norm2}"
        if projection_lattice_det_squared(a) != Fraction(1, norm2):
            return False, f"vector {a}: squared determinant mismatch"
        done += 1
    return True, "200 primitive vectors, Gram determinant = squared norm"


def _check_boundary_identity_catalog():
    values = {}
    for name in BUILTIN_NAMES:
        bv, rhs, ok = zonotope_boundary_identity(builtin_graph(name).graph())
        if not ok:
            return False, f"{name}: b(Z) = {bv.value}, n*vol = {rhs}"
        values[name] = bv.value
    if values["l1:2"] != 8 or values["linf:2"] != 56:
        return False, f"expected b = 8 (l1:2) and 56 (linf:2), got {values}"
    return True, "; ".join(f"{k} b={v}" for k, v in sorted(values.items()))


def _random_full_dim_hull(rng, dim, span, npts):
    while True:
        pts = {tuple(rng.randint(-span, span) for _ in range(dim))
               for _ in range(npts)}
        hull = convex_hull(sorted(pts))
        if hull.is_full_dimensional():
            return hull


def _check_bm_fuzz():
    rng = random.Random(_SEED + 2)
    names = ("l1:2", "linf:2", "tri", "l1:3", "linf:3")
    checked = 0
    for name in names:
        spec = builtin_graph(name)
        g = spec.graph()
        Z = spec.zonotope().polytope()
        for i in range(100):
            if i % 20 == 19:
                lam = Fraction(rng.randint(1, 4), rng.randint(1, 2))
                t = tuple(rng.randint(-3, 3) for _ in range(g.dim))
                A = Z.scale(lam).translate(t)
                expect_equality = True
            else:
                span = 6 if g.dim == 2 else 4
                npts = rng.randint(g.dim + 2, 12 if g.dim == 2 else 10)
                A = _random_full_dim_hull(rng, g.dim, span, npts)
                expect_equality = None
            cert = brunn_minkowski_certificate(A, g)
            if not cert.holds:
                return False, f"{name}: inequality violated (lhs {cert.lhs} < rhs {cert.rhs})"
            if not cert.consistent:
                return False, (f"{name}: equality/homothety mismatch "
                               f"(equality {cert.is_equality}, homothetic {cert.homothetic})")
            if expect_equality and not cert.is_equality:
                return False, f"{name}: homothet of Z missed equality"
            checked += 1
    return True, f"{checked} certificates, zero violations, equality iff homothety"


def _check_sections():
    z3 = builtin_graph("linf:3").zonotope()
    z2 = builtin_graph("linf:2").zonotope().polytope()
    fs = facet_polytope(z3, 0)
    hc = homothety_check(fs.face, z2)
    if not (fs.is_facet and hc is not None and hc[0] == 1):
        return False, f"coordinate facet vs one-lower zonotope: {hc}"
    mid = hyperplane_section(z3, 0, 0)
    hc0 = homothety_check(z2, mid)
    if hc0 != (3, (0, 0)):
        return False, f"central section should be 3x the one-lower zonotope, got {hc0}"
    off = hyperplane_section(z3, 0, 3)
    hc3 = homothety_check(off, z2)
    if hc3 is not None or len(off.vertices) != 16:
        return False, (f"level-3 section should be a 16-gon with no homothety, got "
                       f"{len(off.vertices)} vertices, homothety {hc3}")
    return True, (f"facet = one-lower zonotope (scale 1); central section = 3x; "
                  f"level-3 section has {len(off.vertices)} vertices, no homothety")


def _independent_min_boundary(graph, m, box_radius):
    """Brute-force recount over canonical sets, via plain set membership: depth
    first in `combinations` order with no cut, each prefix carrying its inner
    edges (boundary = 2km - 2 * inner edges)."""
    n = graph.dim
    origin = tuple([0] * n)
    pts = [origin] + sorted(p for p in product(range(-box_radius, box_radius + 1), repeat=n)
                            if p > origin and canonical_sign(p) == p)
    index = {p: i for i, p in enumerate(pts)}
    back = [[index[q] for v in graph.generators for q in (vadd(p, v), vsub(p, v))
             if index.get(q, i) < i] for i, p in enumerate(pts)]
    member = [True] + [False] * (len(pts) - 1)

    def most_edges(start, left, edges):
        if not left:
            return edges
        best = -1
        for i in range(start, len(pts) - left + 1):
            member[i] = True
            best = max(best, most_edges(i + 1, left - 1, edges + sum(member[j] for j in back[i])))
            member[i] = False
        return best

    edges = most_edges(1, m - 1, 0)
    return None if edges < 0 else 2 * len(graph.generators) * m - 2 * edges


def _check_desk_scale():
    linf2 = builtin_graph("linf:2").graph()
    t0 = time.monotonic()
    mins = {}
    for m in range(1, 11):
        res = exhaustive_min_boundary(linf2, m, 3)
        if not res.exhaustive:
            return False, f"linf:2 m={m}: search not exhaustive"
        recount = _independent_min_boundary(linf2, m, 3)
        if res.min_boundary != recount:
            return False, f"linf:2 m={m}: engine {res.min_boundary}, recount {recount}"
        for w in res.witnesses:
            if edge_boundary_direct(linf2, w) != res.min_boundary:
                return False, f"linf:2 m={m}: witness recount mismatch"
        mins[m] = res.min_boundary
    seq = " ".join(str(mins[m]) for m in range(1, 11))
    if seq != "8 14 18 20 24 26 28 30 32 34":
        return False, f"linf:2 minima m=1..10: {seq}, expected 8 14 18 20 24 26 28 30 32 34"
    l1 = builtin_graph("l1:2").graph()
    for s in (0, 1, 2):
        m = (s + 1) ** 2
        res = exhaustive_min_boundary(l1, m, 3)
        if res.min_boundary != 4 * (s + 1):
            return False, f"l1:2 m={m}: min {res.min_boundary}, expected {4*(s+1)}"
        box = canonical_set([(i, j) for i in range(s + 1) for j in range(s + 1)])
        if box not in res.witnesses:
            return False, f"l1:2 m={m}: {s+1}x{s+1} box not among witnesses"
    dt = time.monotonic() - t0
    if dt > 300:
        return False, f"took {dt:.0f}s, limit 300s"
    return True, f"linf:2 minima m=1..10: {seq}; box witnesses verified ({dt:.0f}s)"


def _check_limiting_shape():
    linf2 = builtin_graph("linf:2").graph()
    octagon = zonotope_point_set(linf2, 1)
    if octagon.cardinality != 37 or octagon.edge_boundary != 64:
        return False, f"lattice octagon: {octagon.cardinality} points, boundary {octagon.edge_boundary}"
    for seed in range(5):
        res = local_search_min_boundary(linf2, 37, iterations=6000, seed=seed)
        if res.min_boundary != 64:
            return False, f"seed {seed}: best-found {res.min_boundary}, expected 64"
    row = limiting_shape_report(linf2, 37, budget=150_000)[36]
    if row.exhaustive:
        return False, "m=37 row is exhaustive, expected beyond the enumeration budget"
    fam = [f for f in row.family_sets if f.cardinality == 37]
    if not fam:
        return False, "no 37-point member in the scaled-zonotope family"
    dirs = hull_direction_count(fam[0].points)
    if dirs != 8:
        return False, f"37-point family hull has {dirs} directions, expected 8"
    if all(f.edge_boundary != 64 for f in fam):
        return False, "no 37-point family set has boundary 64"
    tri = builtin_graph("tri").graph()
    b1 = canonical_set([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])
    for r in (2, 3):
        res7 = exhaustive_min_boundary(tri, 7, r)
        if res7.min_boundary != 18 or b1 not in res7.witnesses:
            return False, (f"tri m=7, r={r}: min {res7.min_boundary}, expected 18 "
                           "with the radius-1 ball")
    return True, ("37-point octagon best-found across 5 seeds; family hull has 8 "
                  "directions and boundary 64; tri m=7 minimum 18 at r = 2 and 3")


def _l1_rows(alpha_max):
    """The l1:2 rows at alpha = 1..alpha_max, read off the Ehrhart polynomial."""
    return convergence_experiment(builtin_graph("l1:2").graph(), range(1, alpha_max + 1))


def _check_convergence_closed_forms():
    for row in _l1_rows(50):
        a = int(row.alpha)
        want = ((2 * a + 1) ** 2, 4 * a * a, 8 * a + 4, 8 * a,
                Fraction(4 * a * a, (2 * a + 1) ** 2), Fraction(2 * a, 2 * a + 1))
        got = (row.points, row.volume, row.discrete_boundary, row.continuous_boundary,
               row.vol_ratio, row.boundary_ratio)
        if got != want:
            return False, f"alpha={a}: got {got}, expected {want}"
    return True, "alpha = 1..50 match the closed forms exactly"


def _check_convergence_boundary_tolerance():
    rows = {int(r.alpha): r for r in _l1_rows(50)}
    d10 = abs(1 - rows[10].boundary_ratio)
    d50 = abs(1 - rows[50].boundary_ratio)
    ok = d10 <= Fraction(5, 100) and d50 <= Fraction(1, 100)
    return ok, (f"|boundary_ratio - 1| = {d10} (~{float(d10):.3%}) at alpha=10, "
                f"{d50} (~{float(d50):.3%}) at alpha=50")


def _check_convergence_volume_tolerance():
    # |vol_ratio - 1| = (4a+1)/(2a+1)^2 ~ 1/a for l1:2, so 5% first holds at
    # a = 20 and 1% at a = 100 (at a = 10 and 50 no exact count meets them).
    rows = {int(r.alpha): r for r in _l1_rows(100)}
    for a in (20, 100):
        if rows[a].vol_ratio != Fraction(4 * a * a, (2 * a + 1) ** 2):
            return False, f"alpha={a}: vol_ratio {rows[a].vol_ratio}, expected (2a)^2/(2a+1)^2"
    d20 = abs(1 - rows[20].vol_ratio)
    d100 = abs(1 - rows[100].vol_ratio)
    ok = d20 <= Fraction(5, 100) and d100 <= Fraction(1, 100)
    return ok, (f"|vol_ratio - 1| = {d20} (~{float(d20):.3%}) at alpha=20, "
                f"{d100} (~{float(d100):.3%}) at alpha=100")


def _check_convergence_trend():
    for name in ("linf:2", "tri"):
        rows = convergence_experiment(builtin_graph(name).graph(),
                                      list(range(1, 21)))
        for prev, cur in zip(rows, rows[1:]):
            if abs(1 - cur.vol_ratio) > abs(1 - prev.vol_ratio):
                return False, f"{name}: |vol_ratio - 1| increased at alpha={cur.alpha}"
            if abs(1 - cur.boundary_ratio) > abs(1 - prev.boundary_ratio):
                return False, f"{name}: |boundary_ratio - 1| increased at alpha={cur.alpha}"
    return True, "both ratio deviations non-increasing over alpha = 1..20 (linf:2, tri)"


def _check_pick():
    rng = random.Random(_SEED + 3)
    done = 0
    while done < 100:
        pts = {(rng.randint(-7, 7), rng.randint(-7, 7))
               for _ in range(rng.randint(3, 10))}
        hull = convex_hull(sorted(pts))
        if not hull.is_full_dimensional():
            continue
        if pick_area(hull) != hull.volume():
            return False, f"Pick mismatch on polygon with vertices {hull.vertices}"
        done += 1
    P = builtin_graph("linf:2").zonotope().polytope()
    area = P.volume()
    total = count_lattice_points(P)
    b = boundary_lattice_points(P)
    got = (area, pick_area(P), total - b, b, total)
    if got != (28, 28, 21, 16, 37):
        return False, f"octagon data (area, Pick area, I, B, points) = {got}"
    return True, "100 random polygons; octagon area 28, I = 21, B = 16, 37 points"


ITEMS = (
    ("1", "f-vector regression (dimensions 2, 3, 4)", _check_fvectors),
    ("2a", "cross-tessellation zonotope vertex orbit", _check_zc_vertices),
    ("2b", "cross-tessellation zonotope f-vector", _check_zc_fvector),
    ("2c", "cross-tessellation facet offsets vs the vertex orbit", _check_zc_facets),
    ("3", "edge-boundary identity fuzz (1000 sets per builtin graph)", _check_identity_fuzz),
    ("4", "projection-lattice determinant fuzz (200 vectors)", _check_projection_lattice_fuzz),
    ("5", "b(Z) = n*vol(Z) across the catalog", _check_boundary_identity_catalog),
    ("6", "isoperimetric certificate fuzz (equality iff homothety)", _check_bm_fuzz),
    ("7", "facet and section homothety suite", _check_sections),
    ("8", "desk-scale exhaustive optimality with independent recount", _check_desk_scale),
    ("9", "limiting-shape evidence (octagon and triangular ball)", _check_limiting_shape),
    ("10a", "convergence closed forms (alpha = 1..50)", _check_convergence_closed_forms),
    ("10b", "boundary-ratio tolerances (5% at 10, 1% at 50)", _check_convergence_boundary_tolerance),
    ("10c", "volume-ratio tolerances (5% at 20, 1% at 100)", _check_convergence_volume_tolerance),
    ("10d", "ratio trend non-increasing (linf:2, tri)", _check_convergence_trend),
    ("11", "Pick cross-check (100 polygons and the octagon)", _check_pick),
)


def run(only=None, emit=print) -> int:
    """Run the suite; print one PASS/FAIL line per item; 0 iff all pass."""
    selected = [item for item in ITEMS if only is None or item[0] in only]
    if only is not None:
        missing = set(only) - {i[0] for i in ITEMS}
        if missing:
            raise InvalidArgumentError(f"unknown item ids: {sorted(missing)}")
    failures = 0
    for item_id, label, func in selected:
        try:
            ok, detail = func()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"crashed: {exc!r}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        emit(f"{status} {item_id:>3} {label}: {detail}")
    emit(f"{len(selected) - failures}/{len(selected)} items passed")
    return 0 if failures == 0 else 1
