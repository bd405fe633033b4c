"""Zonotope V-rep/H-rep, f-vectors, facet slices, sections, homothety."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isozono import intmat, zonotope
from isozono.boundary import brunn_minkowski_certificate
from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import (
    AntipodalGeneratorError,
    DimensionDeficiencyError,
    DimensionMismatchError,
    DuplicateGeneratorError,
    EmptySectionError,
    FormatError,
    IsozonoError,
    RankDeficientError,
    UnpairedSegmentError,
)
from isozono.geometry import _hrep_rays, convex_hull
from isozono.intmat import (_bit_indices, _norm_num, canonical_sign, det, dot, independent_rows,
                            primitive_part, rank, vadd, vneg, vsub)
from isozono.plgraph import PLGraph, canonicalize_generators
from isozono.zonotope import (
    FVector,
    build_zonotope,
    build_zonotope_from_segments,
    f_vector,
    facet_polytope,
    homothety_check,
    hyperplane_section,
    zonotope_of_graph,
)
from test_intmat import leibniz_det, signed_minors

OCTAGON = {(3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1)}


def Z(name):
    return builtin_graph(name).zonotope()


FIVE = build_zonotope(5, [tuple(int(i == j) for j in range(5)) for i in range(5)]
                      + [(1, 1, 1, 1, 1)])


def test_octagon_vertices_hrep_volume():
    z = Z("linf:2")
    assert set(z.polytope().vertices) == OCTAGON
    assert z.volume() == 28
    facets = {(n, c) for n, c in z.polytope().facets}
    assert ((1, 0), 3) in facets
    assert ((0, 1), 3) in facets
    assert ((1, 1), 4) in facets
    assert ((1, -1), 4) in facets
    assert len(facets) == 8
    assert z.support((1, 0)) == 3
    assert z.support((1, 1)) == 4


def test_triangular_zonotope_hexagon():
    z = Z("tri")
    assert set(z.polytope().vertices) == {(2, 0), (2, 2), (0, 2), (-2, 0), (-2, -2), (0, -2)}
    assert z.volume() == 12
    assert tuple(f_vector(z)) == (6, 6)


def test_volume_is_determinant_sum():
    # 2^n * sum over n-subsets of |det| — recomputed here from scratch.
    for name in ("linf:2", "tri", "l1:3", "linf:3", "d4cross"):
        z = Z(name)
        total = 0
        for sub in combinations(z.generators, z.dim):
            total += abs(leibniz_det([list(v) for v in sub]))
        assert z.volume() == 2 ** z.dim * total


def test_linf4_volume_is_pinned():
    g = builtin_graph("linf:4")
    assert zonotope.Zonotope(g.dim, g.generators).volume() == 2623760


def _random_4d_sets(count, seed):
    """`count` canonical spanning 4-D generator sets, k = 4..12, entries -3..3."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        k = rng.randint(4, 12)
        gens = {canonical_sign(tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(k)}
        gens = {primitive_part(g) for g in gens if any(g)}
        if rank(list(gens), 4) == 4:
            sets.append(canonicalize_generators(4, gens))
    return sets


def test_volume_shares_nothing_with_the_minor_table(monkeypatch):
    """b(Z) = n vol(Z) compares two routes only while the volume reads
    neither the (n-1)-subset cross products nor the minor weights summed
    from them: on fresh zonotopes, volume() must run with `cross_nd` raising
    and must leave `facet_table`, which holds the weights, unbuilt."""
    def refuse(*args):
        raise AssertionError("the volume called cross_nd")

    monkeypatch.setattr(intmat, "cross_nd", refuse)
    monkeypatch.setattr(zonotope, "cross_nd", refuse)
    random_sets = _random_4d_sets(12, 24)
    cases = [(builtin_graph(name).dim, builtin_graph(name).generators) for name in BUILTIN_NAMES]
    for dim, gens in cases + [(4, gens) for gens in random_sets]:
        z = zonotope.Zonotope(dim, gens)
        vol = z.volume()
        assert "facet_table" not in vars(z)
        if gens in random_sets:
            assert vol == 16 * sum(abs(leibniz_det(s)) for s in combinations(gens, 4))


def test_shape_and_certificate_work_leaves_the_flat_table_unbuilt():
    """Only the convergence rows read the table of flats: the volume, the
    facet table, the faces, the sweeps, the sections and a certificate on
    fresh zonotopes must leave it unbuilt."""
    for name in BUILTIN_NAMES:
        spec = builtin_graph(name)
        z = zonotope.Zonotope(spec.dim, spec.generators)
        z.volume()
        f_vector(z)
        for g in z.generators:
            z.sweep(g)
        if z.dim >= 2:
            facet_polytope(z, 0)
            hyperplane_section(z, 0, Fraction(1, 2))
        brunn_minkowski_certificate(z.polytope(), spec.graph())
        assert "facet_table" in vars(z) and "flat_table" not in vars(z)


def test_support_function_is_sum_of_abs():
    z = Z("linf:3")
    assert z.support((1, 0, 0)) == 9
    assert z.support((1, 1, 1)) == sum(abs(dot((1, 1, 1), g)) for g in z.generators)


@pytest.mark.parametrize("u", [(1,), (1, 0, 0), (0, 0, 1)])
def test_support_and_sweep_reject_a_vector_of_another_length(u):
    # `dot` zips: on l1:2, (1, 0, 0) read as (1, 0) gave support 1 and sweep 2.
    z = Z("l1:2")
    with pytest.raises(DimensionMismatchError):
        z.support(u)
    with pytest.raises(DimensionMismatchError):
        z.sweep(u)


def test_support_and_sweep_read_their_vector_as_exact_rationals():
    # A float coordinate enters as its exact Fraction, so no float comes out,
    # and text is refused rather than added.
    z = Z("l1:2")
    assert repr(z.sweep((0.5, 0))) == "1"
    assert repr(z.support((0.5, 0))) == repr(Fraction(1, 2))
    assert repr(z.sweep((Fraction(4, 2), 0))) == "4"
    for method in (z.sweep, z.support):
        with pytest.raises(FormatError):
            method((1, "a"))


def test_f_vector_oracles_2d_3d():
    assert tuple(f_vector(Z("linf:2"))) == (8, 8)
    assert tuple(f_vector(Z("l1:2"))) == (4, 4)
    assert tuple(f_vector(Z("l1:3"))) == (8, 12, 6)  # the cube [-1,1]^3
    assert tuple(f_vector(Z("linf:3"))) == (96, 144, 50)


def test_f_vector_euler_and_structure():
    fv = f_vector(Z("linf:3"))
    assert isinstance(fv, FVector)
    assert fv.euler_ok
    v, e, f = fv.counts
    assert v - e + f == 2
    # The facet centres recorded by the face recursion, against the vertex
    # mean of a brute scan {v in V : <u, v> = h(u)} of every facet.
    for z in (Z("tri"), Z("linf:3"), Z("l1:4"), Z("d4cross"), FIVE):
        P = z.polytope()
        centres = set(intmat.unpack([c for c, k in z._faces.items() if k == z.dim - 1],
                                    z._radix, z.dim))
        means = set()
        for u, h in P.facets:
            tight = [v for v in P.vertices if dot(u, v) == h]
            means.add(tuple(Fraction(sum(c), len(tight)) for c in zip(*tight)))
        assert centres == means and len(centres) == len(P.facets)
        assert f_vector(z).euler_ok


def _walk_f_vector(P):
    """Face counts by a top-down walk over the brute incidence
    {v in V : <u, v> = h(u)}: the (d-1)-faces of a d-face are its maximal
    proper intersections with facets."""
    facet_mask = [sum(1 << i for i, v in enumerate(P.vertices) if sum(map(mul, u, v)) == h)
                  for u, h in P.facets]
    vertex_mask = [0] * len(P.vertices)
    for j, m in enumerate(facet_mask):
        for i in _bit_indices(m):
            vertex_mask[i] |= 1 << j
    counts = [len(facet_mask)]
    current = set(facet_mask)
    for _ in range(P.dim - 2):
        nxt = set()
        for face in current:
            cand = 0
            for vi in _bit_indices(face):
                cand |= vertex_mask[vi]
            children = {face & facet_mask[fj] for fj in _bit_indices(cand)} - {0, face}
            kept = []
            for c in sorted(children, key=lambda m: -m.bit_count()):
                if not any(c & k == c for k in kept):
                    kept.append(c)
            nxt.update(kept)
        counts.append(len(nxt))
        current = nxt
    return (len(P.vertices), *reversed(counts))[:P.dim]


def _zaslavsky_f_vector(z):
    """f_k = sum of r(M/F) over the rank-k flats F of the generator matroid M,
    where r(M/F) = sum_{G >= F} |mu(F, G)| is Zaslavsky's region count of the
    contracted arrangement.  Flats are generator bitmasks, found from integer
    ranks alone: each cover of F is the closure of F plus one generator."""
    gens, n = z.generators, z.dim
    levels = [{0: []}]  # rank k: {flat mask: a basis of its span}
    for k in range(n):
        covers = {}
        for F, basis in levels[k].items():
            rest = ((1 << len(gens)) - 1) & ~F
            while rest:
                span = basis + [gens[(rest & -rest).bit_length() - 1]]
                G = sum(1 << i for i, v in enumerate(gens) if rank(span + [v], n) == k + 1)
                covers[G] = span
                rest &= ~G
        levels.append(covers)
    flats = [(k, F) for k, level in enumerate(levels) for F in level]
    counts = [0] * n
    for k, F in flats[:-1]:
        up = [G for _, G in flats if G & F == F]
        mu = {F: 1}
        for G in up[1:]:
            mu[G] = -sum(m for H, m in mu.items() if H & G == H)
        counts[k] += sum(abs(m) for m in mu.values())
    return tuple(counts)


def _assert_f_vector_oracles(z):
    fv = tuple(f_vector(z))
    assert fv == _walk_f_vector(z.polytope()) == _zaslavsky_f_vector(z), fv


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_f_vector_matches_walk_and_zaslavsky_oracles(name):
    _assert_f_vector_oracles(Z(name))


def test_f_vector_oracles_original_coordinates_and_5d():
    _assert_f_vector_oracles(builtin_graph("d4cross").original_zonotope())
    _assert_f_vector_oracles(FIVE)


@st.composite
def _generator_sets(draw):
    """3-D and 4-D generator sets with small entries, some with a + b added
    for drawn a and b, so coplanar triples are common."""
    n = draw(st.sampled_from((3, 4)))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    base = draw(st.lists(vec, min_size=n, max_size=n + 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.integers(0, len(base) - 1)), max_size=3))
    raw = base + [vadd(base[i], base[j]) for i, j in pairs]
    gens = {canonical_sign(primitive_part(v)) for v in raw if any(v)}
    assume(len(gens) >= n and rank(list(gens), n) == n)
    return build_zonotope(n, gens)


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_f_vector_oracles_on_random_generator_sets(z):
    _assert_f_vector_oracles(z)


@settings(max_examples=40, deadline=None)
@given(_generator_sets())
def test_face_centres_on_random_generator_sets(z):
    # The vertices against the brute hull of all 2^k signed sums; every face
    # centre against the vertex mean of the smallest face through it, the
    # vertices on every facet through the centre, which must span its dimension.
    P = z.polytope()
    if len(z.generators) <= 8:
        sums = {tuple(map(sum, zip(*(g if s else tuple(-a for a in g)
                                     for g, s in zip(z.generators, signs)))))
                for signs in product((0, 1), repeat=len(z.generators))}
        assert P.vertices == convex_hull(sums).vertices
    on = [sum(1 << j for j, (u, h) in enumerate(P.facets) if dot(u, v) == h)
          for v in P.vertices]
    for code, k in z._faces.items():
        (c,) = intmat.unpack([code], z._radix, z.dim)
        through = sum(1 << j for j, (u, h) in enumerate(P.facets) if dot(u, c) == h)
        face = [v for v, m in zip(P.vertices, on) if m & through == through]
        assert tuple(Fraction(sum(x), len(face)) for x in zip(*face)) == c
        assert rank([tuple(a - b for a, b in zip(v, face[0])) for v in face], z.dim) == k


def _chart_faces(flat, n, code):
    """{code: dimension} of the proper faces of Z(flat), by a face recursion
    that shares no helper with `zonotope._table_faces`: every flat,
    parallelepipeds included, is read in a coordinate chart on which it
    projects injectively, its relative facet normals are the Leibniz signed
    minors (`signed_minors`) of its (r-1)-subsets there, and each facet is
    split by the signs of fresh dot products.  `code` maps a generator to
    its packed code."""
    if not flat:
        return {}
    basis = [flat[i] for i in independent_rows(flat, n)]
    r = len(basis)
    coords = next(c for c in combinations(range(n), r)
                  if leibniz_det([[b[i] for i in c] for b in basis]))
    chart = [tuple(g[i] for i in coords) for g in flat]
    normals = {canonical_sign(primitive_part(m))
               for m in (signed_minors(S, r) for S in combinations(chart, r - 1)) if any(m)}
    faces = {}
    for u in normals:
        pairings = [dot(u, p) for p in chart]
        shift = sum(code[g] if s > 0 else -code[g] for g, s in zip(flat, pairings) if s)
        faces[shift] = faces[-shift] = r - 1
        tight = tuple(g for g, s in zip(flat, pairings) if s == 0)
        for c, k in _chart_faces(tight, n, code).items():
            faces[shift + c] = faces[-shift - c] = k
    return faces


def _assert_faces_match_the_chart_route(z):
    assert z._faces == _chart_faces(z.generators, z.dim, dict(zip(z.generators, z._codes)))


@st.composite
def _generic_sets(draw):
    """3-D and 4-D generator sets in general position (every n-subset has a
    nonzero determinant): drawn vectors are kept in order while they stay so."""
    n = draw(st.sampled_from((3, 4)))
    gens = []
    for v in draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 2, max_size=n + 5)):
        if any(v):
            v = canonical_sign(primitive_part(v))
            if v not in gens and all(leibniz_det(s + (v,)) for s in combinations(gens, n - 1)):
                gens.append(v)
    assume(len(gens) > n)
    return build_zonotope(n, gens)


@settings(max_examples=60, deadline=None)
@given(_generic_sets())
def test_f_vector_of_generic_sets_matches_the_general_position_formula(z):
    # Zaslavsky: k generators in general position in R^n give
    # f_j = 2 C(k, j) sum_{i=0}^{n-1-j} C(k-j-1, i); every facet of such a
    # zonotope is a parallelepiped, so the closed form builds all of them.
    n, k = z.dim, len(z.generators)
    assert tuple(f_vector(z)) == tuple(
        2 * comb(k, j) * sum(comb(k - j - 1, i) for i in range(n - j)) for j in range(n))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_generator_sets(), _generic_sets()))
def test_faces_match_the_chart_route(z):
    _assert_faces_match_the_chart_route(z)


@st.composite
def _sign_sets(draw):
    """Degenerate 3-D to 5-D generator sets with entries in {-1, 0, 1}: many
    lower flats hold more generators than their rank, and from 5-D on some
    hold dependent triples, whose rows can pick a lower face than a facet."""
    n = draw(st.sampled_from((3, 4, 5)))
    vec = st.tuples(*[st.integers(-1, 1)] * n).filter(any)
    gens = {canonical_sign(v) for v in draw(st.lists(vec, min_size=n + 1, max_size=n + 5))}
    assume(rank(list(gens), n) == n)
    return build_zonotope(n, gens)


@settings(max_examples=80, deadline=None)
@given(_sign_sets())
def test_faces_of_sign_sets_match_the_chart_route(z):
    _assert_faces_match_the_chart_route(z)


def _stirling2(m, j):
    """S(m, j), the partitions of an m-set into j blocks."""
    row = [1] + [0] * j  # S(0, .)
    for i in range(1, m + 1):
        row = [0] + [row[b - 1] + b * row[b] for b in range(1, j + 1)]
    return row[j]


def _b_n_f_vector(n):
    """f_k = sum |W| / |W_J| over the k-subsets J of the B_n diagram's nodes,
    node n - 1 the short root: a run of m nodes in J is a parabolic factor
    of type B_m, of order 2^m m!, when it ends at node n - 1, and of type
    A_m, of order (m + 1)!, otherwise."""
    counts = [0] * n
    for J in range((1 << n) - 1):  # every subset but the whole diagram
        order, run = 1, 0
        for i in range(n + 1):
            if i < n and J >> i & 1:
                run += 1
                continue
            order *= 2 ** run * factorial(run) if i == n else factorial(run + 1)
            run = 0
        counts[bin(J).count("1")] += 2 ** n * factorial(n) // order
    return tuple(counts)


@pytest.mark.parametrize("n", range(2, 7))
def test_f_vector_of_a_n_counts_ordered_set_partitions(n):
    # The interval vectors 1_[i..j] span the permutohedron: its k-faces are
    # the ordered partitions of {0, ..., n} into n + 1 - k blocks.
    z = build_zonotope(n, [tuple(int(i <= c <= j) for c in range(n))
                           for i in range(n) for j in range(i, n)])
    assert tuple(f_vector(z)) == tuple(factorial(n + 1 - k) * _stirling2(n + 1, n + 1 - k)
                                       for k in range(n))


@pytest.mark.parametrize("n", range(2, 6))
def test_f_vector_of_b_n_counts_parabolic_cosets(n):
    e = [tuple(int(i == c) for c in range(n)) for i in range(n)]
    z = build_zonotope(n, e + [g for a, b in combinations(e, 2) for g in (vadd(a, b), vsub(a, b))])
    assert tuple(f_vector(z)) == _b_n_f_vector(n)


def _packing_edge_cases():
    """3-D and 4-D generator sets with entries of 10^6..10^7, and small ones
    whose generators are all positive in x_1."""
    rng = random.Random(41)
    sets = []
    for n, k in ((3, 5), (3, 8), (4, 6), (4, 8)):
        gens = set()
        while len(gens) < k:
            v = tuple(rng.choice((-1, 1)) * rng.randint(10 ** 6, 10 ** 7) for _ in range(n))
            gens.add(canonical_sign(primitive_part(v)))
        sets.append(build_zonotope(n, gens))
    sets.append(build_zonotope(3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, -1, 2), (2, 1, -1)]))
    sets.append(build_zonotope(4, [(1, 0, 0, 0), (3, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                                   (2, -1, 1, 1), (1, 1, -1, 2)]))
    return sets


@pytest.mark.parametrize("z", _packing_edge_cases())
def test_packed_centres_at_the_radix_edges(z):
    # Every vertex coordinate reaches +-h(e_i), the extreme balanced digit of
    # the packed centres; a radix one too small aliases these.
    P = z.polytope()
    sums = {tuple(map(sum, zip(*(g if s else tuple(-a for a in g)
                                 for g, s in zip(z.generators, signs)))))
            for signs in product((0, 1), repeat=len(z.generators))}
    assert P.vertices == convex_hull(sums).vertices
    for i in range(z.dim):
        h = z.support(tuple(int(j == i) for j in range(z.dim)))
        assert max(v[i] for v in P.vertices) == h == -min(v[i] for v in P.vertices)
    assert f_vector(z).euler_ok
    # Every generator here is positive in x_1, so the x_1-maximal face's
    # centre is the sum of all generators and reaches h(e_1).
    assert facet_polytope(z, 0).translation == tuple(map(sum, zip(*z.generators)))


def test_vertices_match_support_maximizers():
    # Every enumerated vertex attains the support function in some direction,
    # and every facet's tight-vertex count is at least dim.
    z = Z("linf:3")
    P = z.polytope()
    verts = set(P.vertices)
    for normal, offset in P.facets:
        tight = [v for v in verts if dot(normal, v) == offset]
        assert len(tight) >= z.dim
        assert max(dot(normal, v) for v in verts) == offset == z.support(normal)


def test_vertex_coordinates_are_integers():
    for name in ("linf:2", "tri", "linf:3", "d4cross"):
        for v in Z(name).polytope().vertices:
            assert all(isinstance(c, int) for c in v)


def test_d4cross_original_coordinates():
    spec = builtin_graph("d4cross")
    zo = spec.original_zonotope()
    P = zo.polytope()
    orbit = set()
    for perm in permutations((0, 2, 4, 6)):
        for signs in range(16):
            orbit.add(tuple(c * (1 - 2 * ((signs >> i) & 1)) for i, c in enumerate(perm)))
    assert set(P.vertices) == orbit
    assert len(P.vertices) == 192
    assert zo.volume() == 10176
    assert tuple(f_vector(zo)) == (192, 384, 240, 48)
    # support offsets per normal type
    assert zo.support((1, 0, 0, 0)) == 6
    assert zo.support((1, -1, 0, 0)) == 10
    assert zo.support((1, 1, 1, 1)) == 12


def test_d4cross_chart_volume_ratio():
    spec = builtin_graph("d4cross")
    # |det(basis)| = 2, so the chart body has half the original volume.
    assert spec.zonotope().volume() * 2 == spec.original_zonotope().volume()
    assert tuple(f_vector(spec.zonotope())) == (192, 384, 240, 48)


def test_build_from_segments_pairs_and_rejects():
    z = build_zonotope_from_segments(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert z.generators == ((0, 1), (1, 0))
    with pytest.raises(UnpairedSegmentError, match=r"\(1, 0\) has no matching \(-1, 0\)"):
        build_zonotope_from_segments(2, [(1, 0), (0, 1), (0, -1)])


def test_build_zonotope_rejects_antipodal():
    with pytest.raises(AntipodalGeneratorError):
        build_zonotope(2, [(1, 0), (-1, 0), (0, 1)])


def test_facet_polytope_of_linf3_is_one_lower_zonotope():
    fs = facet_polytope(Z("linf:3"), 0)
    assert fs.is_facet
    # The facet lives in the (x2,x3) chart and equals the linf:2 zonotope.
    target = Z("linf:2").polytope()
    hom = homothety_check(target, fs.face)
    assert hom is not None
    scale, _ = hom
    assert scale == 1
    # translation = sum of sign-adjusted generators hits the support value
    assert fs.translation[0] == 9


def test_facet_polytope_low_rank_flag():
    # l1:2 generators (1,0),(0,1): the face maximizing x has no orthogonal
    # spanning generators beyond (0,1) — still a facet (1-dim in 2d).
    fs = facet_polytope(Z("l1:2"), 0)
    assert fs.is_facet
    fs3 = facet_polytope(Z("l1:3"), 0)
    # For the cube only (0,1,0),(0,0,1) are orthogonal to e1: facet, 2-dim.
    assert fs3.is_facet


def _sign_sum_face(z, axis):
    """Slow oracle: the hull of all 2^k signed sums of the generators with
    vanishing `axis` coordinate, in the chart that drops that coordinate."""
    chart = [tuple(a for i, a in enumerate(g) if i != axis)
             for g in z.generators if g[axis] == 0]
    pts = [tuple(sum(s * g[i] for s, g in zip(signs, chart)) for i in range(z.dim - 1))
           for signs in product((-1, 1), repeat=len(chart))]
    return convex_hull(pts or [(0,) * (z.dim - 1)])


def _plane_zonotope(k):
    """4-D zonotope whose x1-maximal face is spanned by k >= 2 generators
    (0, 1, b, 0) of one plane: a 2k-gon, flat in the 3-D chart."""
    plane = [(0, 1, b, 0) for b in range(-(k // 2), k - k // 2)]
    return build_zonotope(4, plane + [(1, 0, 0, 0), (1, 0, 0, 1)])


def test_facet_polytope_flat_face_matches_sign_sum_oracle():
    for k in range(2, 11):
        z = _plane_zonotope(k)
        fs = facet_polytope(z, 0)
        assert not fs.is_facet
        assert fs.translation == (2, 0, 0, 1)
        assert len(fs.face.vertices) == 2 * k
        assert fs.face == _sign_sum_face(z, 0)
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        n = rng.choice((3, 4))
        gens = {tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n + 3)}
        try:
            z = build_zonotope(n, [g for g in gens if any(g)])
        except (RankDeficientError, AntipodalGeneratorError):
            continue
        for axis in range(n):
            fs = facet_polytope(z, axis)
            oracle = _sign_sum_face(z, axis)
            assert fs.face == oracle and fs.face.facets == oracle.facets
            assert fs.is_facet == oracle.is_full_dimensional()
        checked += 1


def test_facet_polytope_flat_face_of_24_plane_generators_is_fast():
    # 2^24 signed sums would take minutes; the face is a 48-gon.
    start = time.perf_counter()
    fs = facet_polytope(_plane_zonotope(24), 0)
    assert time.perf_counter() - start < 5
    assert not fs.is_facet
    assert len(fs.face.vertices) == 48


def _top_vertices_face(z, axis):
    """The face maximising coordinate `axis` the direct way, the oracle of the
    top section: the hull of the vertices of Z at the top level, moved by
    -t and read in the dropped-axis chart."""
    t = tuple(map(sum, zip(*(g if g[axis] > 0 else vneg(g) for g in z.generators if g[axis]))))
    return convex_hull([tuple(a - b for i, (a, b) in enumerate(zip(v, t)) if i != axis)
                        for v in z.polytope().vertices if v[axis] == t[axis]])


def _assert_faces_match_the_vertex_route(z):
    for axis in range(z.dim):
        face, oracle = facet_polytope(z, axis).face, _top_vertices_face(z, axis)
        assert (face.vertices, face.facets) == (oracle.vertices, oracle.facets)
        assert (face.chart is None) == (oracle.chart is None)
        if oracle.chart is not None:
            got, want = face.chart, oracle.chart
            assert (got.base, got.basis, got.left, got.body.vertices, got.body.facets) == (
                want.base, want.basis, want.left, want.body.vertices, want.body.facets)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if builtin_graph(n).dim >= 2])
def test_facet_polytope_matches_the_top_vertices_of_builtins(name):
    _assert_faces_match_the_vertex_route(Z(name))


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_facet_polytope_matches_the_top_vertices_of_random_sets(z):
    _assert_faces_match_the_vertex_route(z)


def _full_rank_face(z, axis):
    """Oracle for a face that spans the hyperplane: the (n-1)-zonotope of the
    generators with vanishing `axis` coordinate, built in the dropped-axis
    chart; None when they do not span it."""
    chart = [tuple(a for i, a in enumerate(g) if i != axis)
             for g in z.generators if g[axis] == 0]
    if not chart or rank(chart, z.dim - 1) < z.dim - 1:
        return None
    return zonotope.Zonotope(z.dim - 1, canonicalize_generators(z.dim - 1, chart)).polytope()


def test_facet_polytope_full_rank_faces_match_the_sub_zonotope_oracle():
    zs = [builtin_graph(name).zonotope() for name in BUILTIN_NAMES]
    zs.append(builtin_graph("d4cross").original_zonotope())
    rng = random.Random(11)
    while len(zs) < len(BUILTIN_NAMES) + 61:
        n = rng.choice((2, 3, 4))
        gens = {tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n + 3)}
        try:
            zs.append(build_zonotope(n, [g for g in gens if any(g)]))
        except IsozonoError:  # rank-deficient, antipodal or non-primitive
            continue
    full = 0
    for z in zs:
        for axis in range(z.dim):
            fs = facet_polytope(z, axis)
            oracle = _full_rank_face(z, axis)
            assert fs.is_facet == (oracle is not None)
            h = z.support(tuple(int(i == axis) for i in range(z.dim)))
            assert fs.translation[axis] == h
            assert fs.translation == tuple(map(sum, zip(*(
                g if g[axis] > 0 else tuple(-a for a in g) for g in z.generators if g[axis]))))
            if oracle is not None:
                assert (fs.face.vertices, fs.face.facets) == (oracle.vertices, oracle.facets)
                full += 1
    assert full > len(zs)  # the oracle saw more faces than there are sets


def test_hyperplane_section_central_is_scaled_copy():
    sec = hyperplane_section(Z("linf:3"), 0, 0)
    target = Z("linf:2").polytope()
    hom = homothety_check(target, sec)
    assert hom == (3, (0, 0))


def test_hyperplane_section_interior_level():
    sec = hyperplane_section(Z("linf:3"), 0, 3)
    assert len(sec.vertices) == 16
    assert homothety_check(Z("linf:2").polytope(), sec) is None


def test_hyperplane_section_at_support_level_is_facet():
    z = Z("linf:3")
    sec = hyperplane_section(z, 0, 9)
    fs = facet_polytope(z, 0)
    assert set(sec.vertices) == set(fs.face.vertices)


def test_hyperplane_section_matches_built_polytope_facets():
    # The section takes its facets from the minor table; the oracle reads
    # them off the built polytope, face recursion included.
    for name in ("l1:3", "linf:3", "d4cross"):
        z = Z(name)
        for axis, level in product(range(z.dim), (0, 1, Fraction(5, 2))):
            if level > z.support(tuple(int(i == axis) for i in range(z.dim))):
                continue
            ineqs = [(tuple(a for i, a in enumerate(u) if i != axis),
                      Fraction(c) - u[axis] * level) for u, c in z.polytope().facets]
            oracle = convex_hull([v for v, _ in _hrep_rays(ineqs, z.dim - 1)[1]])
            sec = hyperplane_section(z, axis, level)
            assert sec == oracle and sec.facets == oracle.facets


def test_hyperplane_section_errors():
    z = Z("linf:3")
    with pytest.raises(EmptySectionError):
        hyperplane_section(z, 0, 10)
    with pytest.raises(EmptySectionError):
        hyperplane_section(z, 0, Fraction(91, 10))
    for level in ("x", "1/0", None):
        with pytest.raises(FormatError, match="not a rational number"):
            hyperplane_section(z, 0, level)
    for axis in (-1, 3):
        with pytest.raises(DimensionMismatchError):
            hyperplane_section(z, axis, 0)
        with pytest.raises(DimensionMismatchError):
            facet_polytope(z, axis)


_ZONOTOPES = st.one_of(  # the builtins memoised, so linf:4 is built once
    st.sampled_from(BUILTIN_NAMES).map(lambda n: zonotope_of_graph(builtin_graph(n).graph())),
    _generator_sets())


@st.composite
def _five_d_sets(draw):
    """5-D generator sets of 6 to 8 vectors with entries in {-1, 0, 1}: their
    4-D sections often have an inequality tight on 4 or more vertices that
    is not a facet."""
    vec = st.tuples(*[st.integers(-1, 1)] * 5).filter(any)
    gens = {canonical_sign(v) for v in draw(st.lists(vec, min_size=6, max_size=8))}
    assume(rank(list(gens), 5) == 5)
    return build_zonotope(5, gens)


@st.composite
def _section_cases(draw):
    """(Z, axis, level): a builtin or random zonotope, 3-D to 5-D, an axis
    and a rational level in [-h, h], h the support value along the axis; the
    ends are drawn as often as the inside."""
    z = draw(st.one_of(_ZONOTOPES, _five_d_sets()))
    axis = draw(st.integers(0, z.dim - 1))
    h = z.support(tuple(int(i == axis) for i in range(z.dim)))
    level = draw(st.one_of(st.sampled_from((-h, h)), st.fractions(-h, h, max_denominator=7)))
    return z, axis, level


@settings(max_examples=60, deadline=None)
@given(_section_cases())
def test_hyperplane_section_is_nonempty_up_to_the_support_value(case):
    # |level| <= h puts the hyperplane through Z, so the section has a vertex;
    # its first and last vertices, lifted back to the axis, lie in Z.
    z, axis, level = case
    sec = hyperplane_section(z, axis, level)
    assert sec.vertices
    for v in (sec.vertices[0], sec.vertices[-1]):
        x = v[:axis] + (level,) + v[axis:]
        assert all(abs(dot(row.normal, x)) <= row.offset for row in z.facet_table)


# A 4-D section with inequalities tight on 4 coplanar vertices that are not
# facets, so a vertex count cannot stand in for the maximal tight sets.
_COPLANAR = (build_zonotope(5, [(0, 0, 1, 1, -1), (1, -1, 1, -1, -1), (1, -1, 1, 0, 0),
                                (1, 0, 1, 1, -1), (1, 0, 1, 1, 1), (1, 1, 0, 1, 0)]), 4, 2)


@settings(max_examples=80, deadline=None)
@given(_section_cases())
@example(_COPLANAR)
def test_hyperplane_section_matches_the_unfiltered_double_description(case):
    # The section cuts only the facets that meet the hyperplane and reads its
    # facets off that one double description; the oracle runs the double
    # description on both inequalities of every facet normal, then hulls its
    # vertices.  A flat section (|level| = h, or a 1-D zonotope's point) must
    # carry the oracle's chart.
    z, axis, level = case
    ineqs = [(normal[:axis] + normal[axis + 1:], row.offset - normal[axis] * level)
             for row in z.facet_table for normal in (row.normal, vneg(row.normal))]
    oracle = convex_hull([v for v, _ in _hrep_rays(ineqs, z.dim - 1)[1]])
    sec = hyperplane_section(z, axis, level)
    assert sec == oracle and sec.facets == oracle.facets
    assert (sec.chart is None) == (oracle.chart is None)
    if oracle.chart is not None:
        got, want = sec.chart, oracle.chart
        assert (got.base, got.basis, got.left, got.body.vertices) == (
            want.base, want.basis, want.left, want.body.vertices)


def _coordinate_shift(z, row, axis):
    """t_u[axis] = sum_i sign(<u, v_i>) v_i[axis], summed generator by
    generator from the row's pairings: the oracle for the digit of the packed
    shift that `hyperplane_section` reads."""
    return sum(g[axis] if s > 0 else -g[axis] for g, s in zip(z.generators, row.pairings) if s)


def _assert_shift_digits_match_the_coordinate_split(z):
    shifts = intmat.unpack([row.shift for row in z.facet_table], z._radix, z.dim)
    for row, shift in zip(z.facet_table, shifts):
        assert shift == tuple(_coordinate_shift(z, row, axis) for axis in range(z.dim))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shift_digits_match_the_coordinate_split_on_builtins(name):
    _assert_shift_digits_match_the_coordinate_split(Z(name))


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_shift_digits_match_the_coordinate_split_on_random_generator_sets(z):
    _assert_shift_digits_match_the_coordinate_split(z)


def test_hyperplane_section_splits_no_facet(monkeypatch):
    # Sections read t_u off the facet table, so once each table is built no
    # face split runs: with `_face_split` raising, every builtin's sections
    # at levels 0, 1/2 and h along each axis come out as before.
    def refuse(*args):
        raise AssertionError("a facet was split again")

    cases = [(z, axis, level) for z in map(Z, BUILTIN_NAMES) for axis in range(z.dim)
             for level in (0, Fraction(1, 2), z.support(zonotope._axis_unit(z, axis)))]
    expected = [(s.vertices, s.facets) for s in (hyperplane_section(*c) for c in cases)]
    monkeypatch.setattr(zonotope, "_face_split", refuse)
    assert [(s.vertices, s.facets) for s in (hyperplane_section(*c) for c in cases)] == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(_generator_sets(), _sign_sets(),
                 st.sampled_from([n for n in BUILTIN_NAMES if n != "linf:4"]).map(Z)))
def test_facet_table_matches_support_and_the_face_split(z):
    # Each row against the support function, the face split of freshly
    # computed pairings, T_u against the bitmask of the generators with
    # dot(u, v_i) == 0 (the sign sets give 5-D rows whose T_u holds
    # dependent generators), and the facet pair itself: t_u is the vertex mean
    # of the facet {<u, x> = h(u)} of the built polytope, -t_u that of its
    # opposite.  The weight w(u) is checked by determinants instead of cross
    # products: an (n-1)-subset S has cross_nd(S) = +-w_S u exactly when S
    # lies in T_u, and then |det(S + [u])| = |<cross_nd(S), u>| = w_S <u, u>.
    # A generator's sweep, read off the table's columns, equals that of its
    # negation, which takes the weighted sum over the rows.  linf:4 (5,376
    # vertices, 680 normals) would take seconds here; the golden digests
    # cover its facet offsets.
    normals = [row.normal for row in z.facet_table]
    assert normals == sorted(set(normals))
    P = z.polytope()
    for u, pairings, h, shift, tight, weight in z.facet_table:
        assert pairings == tuple(dot(u, g) for g in z.generators)
        assert h == z.support(u)
        assert (shift, tight) == zonotope._face_split(pairings, z._codes)
        assert tight == sum(1 << i for i, g in enumerate(z.generators) if dot(u, g) == 0)
        tight_gens = [g for i, g in enumerate(z.generators) if tight >> i & 1]
        assert weight * dot(u, u) == sum(abs(det(list(S) + [u]))
                                         for S in combinations(tight_gens, z.dim - 1))
        for sign in (1, -1):
            face = [v for v in P.vertices if sign * dot(u, v) == h]
            mean = tuple(Fraction(sign * sum(x), len(face)) for x in zip(*face))
            assert [mean] == intmat.unpack([shift], z._radix, z.dim)
    for g in z.generators:
        assert z.sweep(g) == z.sweep(vneg(g))


def _brute_flats(z):
    """{generators in F: (rank F, c_F)} over every flat F spanned by
    generators, from each independent subset X (Leibniz minors, gcd g(X)) and
    the generators that leave its rank unchanged."""
    n, gens = z.dim, z.generators
    flats = {}
    for k in range(n + 1):
        for X in combinations(gens, k):
            g = gcd(*(leibniz_det([[v[c] for c in cols] for v in X])
                      for cols in combinations(range(n), k)))
            if g:
                closure = tuple(v for v in gens if rank(list(X) + [v], n) == k)
                flats[closure] = (k, flats.get(closure, (k, 0))[1] + g)
    return flats


@settings(max_examples=40, deadline=None)
@given(st.one_of(_generator_sets(),
                 st.sampled_from([n for n in BUILTIN_NAMES if n != "linf:4"]).map(Z)))
def test_flat_table_matches_the_brute_closures(z):
    # Each row's basis spans the saturated lattice Z^n cap F^perp: it has
    # n - rank F vectors, orthogonal to exactly the generators of F, whose
    # maximal minors have gcd 1.  The rows are the brute closures, each once.
    n = z.dim
    got = {}
    for flat in z.flat_table:
        inside = tuple(g for g in z.generators if all(dot(y, g) == 0 for y in flat.basis))
        assert inside not in got
        got[inside] = (flat.rank, flat.weight)
        assert len(flat.basis) == n - flat.rank == rank(list(flat.basis), n)
        if flat.basis:
            assert gcd(*(leibniz_det([[y[c] for c in cols] for y in flat.basis])
                         for cols in combinations(range(n), len(flat.basis)))) == 1
    assert got == _brute_flats(z)
    assert [sum(c for k, c in got.values() if k == r) for r in range(n + 1)] == \
        list(z.ehrhart_coefficients)


@settings(max_examples=60, deadline=None)
@given(_ZONOTOPES, st.data())
def test_a_repeated_or_negated_generator_is_refused_by_the_pairwise_check(z, data):
    # The input signs are drawn, then one vector is added again, as itself
    # or negated; that pair is the only clash, and the error names it.
    vecs = [data.draw(st.sampled_from((g, vneg(g)))) for g in z.generators]
    i = data.draw(st.integers(0, len(vecs) - 1))
    j = data.draw(st.integers(0, len(vecs)))
    vecs.insert(j, data.draw(st.sampled_from((vecs[i], vneg(vecs[i])))))
    v, w = (vecs[k] for k in sorted((i + (j <= i), j)))
    if v == w:
        error, message = DuplicateGeneratorError, f"generator {v} appears twice"
    else:
        error, message = AntipodalGeneratorError, f"generators {v} and {w} are antipodal"
    with pytest.raises(error) as exc:
        canonicalize_generators(z.dim, vecs)
    assert str(exc.value) == message


def test_section_at_rational_level():
    sec = hyperplane_section(Z("linf:2"), 0, Fraction(5, 2))
    # x = 5/2 cuts the octagon between x=1 and x=3: a vertical segment... in 1d chart
    assert sec.dim == 1
    lo = min(v[0] for v in sec.vertices)
    hi = max(v[0] for v in sec.vertices)
    assert hi - lo == 3  # y from -3/2 to 3/2


def test_homothety_check_basic():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    Q = convex_hull([(1, 1), (5, 1), (1, 5), (5, 5)])
    assert homothety_check(P, Q) == (2, (1, 1))
    assert homothety_check(P, P) == (1, (0, 0))


def test_homothety_check_negative_cases():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    R = convex_hull([(0, 0), (4, 0), (0, 2), (4, 2)])  # anisotropic stretch
    assert homothety_check(P, R) is None
    T = convex_hull([(0, 0), (2, 0), (1, 2)])  # different vertex count
    assert homothety_check(P, T) is None
    S = convex_hull([(0, 0), (2, 0), (2, 2), (0, 1)])  # same counts, not similar
    assert homothety_check(P, S) is None


def test_homothety_check_rational_scale():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    Q = P.scale(Fraction(3, 2)).translate((Fraction(1, 2), 0))
    hom = homothety_check(P, Q)
    assert hom == (Fraction(3, 2), (Fraction(1, 2), 0))


def _homothety_oracle(P, Q):
    """The per-axis route: equal extent ratios on every axis fix the scale,
    the centroids fix the translation, and the image of P's vertex set must
    be Q's."""
    if len(P.vertices) != len(Q.vertices):
        return None
    scales = {Fraction(max(v[i] for v in Q.vertices) - min(v[i] for v in Q.vertices))
              / (max(v[i] for v in P.vertices) - min(v[i] for v in P.vertices))
              for i in range(P.dim)}
    if len(scales) != 1:
        return None
    s, = scales
    m = len(P.vertices)
    cp = [Fraction(sum(v[i] for v in P.vertices), m) for i in range(P.dim)]
    cq = [Fraction(sum(v[i] for v in Q.vertices), m) for i in range(P.dim)]
    t = tuple(b - s * a for a, b in zip(cp, cq))
    if {tuple(s * a + b for a, b in zip(v, t)) for v in P.vertices} != set(Q.vertices):
        return None
    return _norm_num(s), tuple(map(_norm_num, t))


_COORD = st.fractions(-4, 4, max_denominator=3)


@st.composite
def _homothety_pairs(draw):
    """(P, Q, the homothety (s, t) expected or None) on full-dimensional
    hulls in dims 2..4: Q a positive homothet, a negative one, a positive one
    with one vertex moved, or another body with P's vertex count."""
    dim = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=dim + 1, max_size=10 - dim))
    P = convex_hull(pts)
    assume(P.chart is None)
    s = draw(st.fractions(Fraction(1, 5), 5, max_denominator=5).filter(bool))
    t = draw(st.tuples(*[_COORD] * dim))
    kind = draw(st.sampled_from(["positive", "negative", "moved", "other"]))
    if kind == "other":
        others = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=dim + 1, max_size=10 - dim))
        Q = convex_hull(others)
        assume(Q.chart is None and len(Q.vertices) == len(P.vertices))
        return P, Q, _homothety_oracle(P, Q)
    sign = -1 if kind == "negative" else 1
    image = [tuple(sign * s * a + b for a, b in zip(v, t)) for v in P.vertices]
    if kind == "moved":
        i = draw(st.integers(0, len(image) - 1))
        move = draw(st.tuples(*[_COORD] * dim).filter(any))
        image[i] = tuple(a + b for a, b in zip(image[i], move))
    Q = convex_hull(image)
    assume(Q.chart is None)
    return P, Q, (s, t) if kind == "positive" else _homothety_oracle(P, Q)


@settings(max_examples=80, deadline=None)
@given(_homothety_pairs())
def test_homothety_check_matches_the_per_axis_oracle(case):
    P, Q, want = case
    got = homothety_check(P, Q)
    assert repr(got) == repr(_homothety_oracle(P, Q))
    assert got == want
    if got is not None:
        s, t = got
        assert s > 0
        assert {tuple(s * a + b for a, b in zip(v, t)) for v in P.vertices} == set(Q.vertices)


def test_homothety_check_requires_full_dimensional():
    seg = convex_hull([(0, 0), (1, 1)])
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(DimensionDeficiencyError):
        homothety_check(seg, P)
    with pytest.raises(DimensionMismatchError):
        homothety_check(P, convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_zonotope_of_graph_shares_generators():
    g = builtin_graph("tri").graph()
    z = zonotope_of_graph(g)
    assert z.generators == g.generators
    assert z.dim == g.dim


def test_zonotope_of_graph_is_memoised_per_graph(monkeypatch):
    g = builtin_graph("l1:3").graph()
    assert zonotope_of_graph(g) is zonotope_of_graph(PLGraph(g.dim, g.generators))
    assert build_zonotope(g.dim, reversed(g.generators)) is zonotope_of_graph(g)
    zonotope._zonotope.cache_clear()
    builds = []
    real = zonotope.Polytope
    monkeypatch.setattr(zonotope, "Polytope", lambda *a: builds.append(a) or real(*a))
    body = convex_hull([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1)])
    for k in range(1, 5):
        assert brunn_minkowski_certificate(body.scale(k), g).holds
    assert len(builds) == 1
