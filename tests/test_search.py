"""Discrete search: exhaustive, local, point sets, convergence, families."""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isozono import search
from isozono.catalog import BUILTIN_NAMES, builtin_graph
from isozono.errors import BudgetExceededError, DimensionMismatchError, IsozonoError
from isozono.geometry import convex_hull
from isozono.intmat import dot
from isozono.plgraph import boundary_identity_report, edge_boundary_direct, validate_pl_graph
from isozono.search import (
    SearchResult,
    _lattice_lines,
    _lines_boundary,
    canonical_set,
    convergence_experiment,
    default_budget,
    exhaustive_min_boundary,
    hull_direction_count,
    limiting_shape_report,
    local_search_min_boundary,
    zonotope_point_set,
)
from isozono.zonotope import zonotope_of_graph
from test_intmat import leibniz_det

L1 = builtin_graph("l1:2").graph()
LINF = builtin_graph("linf:2").graph()
TRI = builtin_graph("tri").graph()


def test_canonical_set_translates_lex_min_to_origin():
    assert canonical_set([(5, 7), (6, 7), (5, 8)]) == ((0, 0), (0, 1), (1, 0))
    assert canonical_set([(Fraction(5), 7.0)]) == ((0, 0),)
    with pytest.raises(IsozonoError, match=r"point \(0\.5, 0\)"):
        canonical_set([(0, 0), (0.5, 0)])
    assert canonical_set([(0, 0)]) == ((0, 0),)
    # translation-invariant
    assert canonical_set([(2, -3), (3, -3)]) == canonical_set([(0, 0), (1, 0)])


def test_exhaustive_small_oracles_l1():
    # l1:2 minima: boxes are optimal; m=1..4 -> 4, 6, 8, 8
    expected = {1: 4, 2: 6, 3: 8, 4: 8}
    for m, b in expected.items():
        res = exhaustive_min_boundary(L1, m, box_radius=2)
        assert res.min_boundary == b
        assert res.exhaustive
        assert res.cardinality == m
        for w in res.witnesses:
            assert edge_boundary_direct(L1, w) == b


def test_exhaustive_small_oracles_linf():
    expected = {1: 8, 2: 14, 3: 18, 4: 20}
    for m, b in expected.items():
        res = exhaustive_min_boundary(LINF, m, box_radius=2)
        assert res.min_boundary == b
        for w in res.witnesses:
            assert edge_boundary_direct(LINF, w) == b
    # m=4: the 2x2 block is a witness
    res4 = exhaustive_min_boundary(LINF, 4, box_radius=2)
    assert ((0, 0), (0, 1), (1, 0), (1, 1)) in res4.witnesses


def test_exhaustive_witnesses_are_canonical_and_sorted():
    res = exhaustive_min_boundary(LINF, 3, box_radius=2)
    for w in res.witnesses:
        assert w == canonical_set(w)
    assert list(res.witnesses) == sorted(res.witnesses)
    assert res.evaluated > 0


def test_exhaustive_budget_guard():
    with pytest.raises(BudgetExceededError):
        exhaustive_min_boundary(LINF, 12, box_radius=6, budget=1000)
    # explicit budget large enough works
    res = exhaustive_min_boundary(LINF, 2, box_radius=1, budget=1000)
    assert res.min_boundary == 14


def test_box_search_refuses_before_enumerating(monkeypatch):
    # Both refusals come from the closed-form pool size, not from the window.
    def enumerate_window(graph, box_radius):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(search, "_candidate_masks", enumerate_window)
    with pytest.raises(BudgetExceededError):
        exhaustive_min_boundary(LINF, 3, box_radius=10**9)
    with pytest.raises(ValueError, match="fits"):
        exhaustive_min_boundary(LINF, 6, box_radius=1)


def test_default_budget_env_override(monkeypatch):
    monkeypatch.setenv("ISOZONO_BUDGET", "123456")
    assert default_budget() == 123456
    monkeypatch.setenv("ISOZONO_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_budget()
    monkeypatch.delenv("ISOZONO_BUDGET")
    assert default_budget() == 10_000_000


def test_explicit_budget_must_be_positive(monkeypatch):
    # One rule for both sources: an explicit budget is checked like the
    # environment variable, before any work.
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            exhaustive_min_boundary(LINF, 3, box_radius=2, budget=budget)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            convergence_experiment(L1, [1], budget=budget)
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            limiting_shape_report(LINF, 3, budget=budget)
    monkeypatch.setenv("ISOZONO_BUDGET", "0")
    with pytest.raises(ValueError, match="ISOZONO_BUDGET must be a positive integer"):
        exhaustive_min_boundary(LINF, 3, box_radius=2)
    # An explicit budget overrides the environment variable.
    assert exhaustive_min_boundary(LINF, 2, box_radius=1, budget=1000).min_boundary == 14


def _components(points, graph):
    """Connected components of a finite set, by breadth-first search."""
    left = set(points)
    steps = list(graph.generators) + [tuple(-a for a in v) for v in graph.generators]
    parts = []
    while left:
        frontier = [left.pop()]
        part = set(frontier)
        while frontier:
            p = frontier.pop()
            for s in steps:
                q = tuple(a + b for a, b in zip(p, s))
                if q in left:
                    left.remove(q)
                    part.add(q)
                    frontier.append(q)
        parts.append(part)
    return parts


SKEW = validate_pl_graph(2, [(1, 0), (0, 1), (7, 2)])
GRAPHS_WITH_SKEW = (L1, LINF, TRI, SKEW, builtin_graph("l1:3").graph())


def test_exhaustive_witnesses_are_connected():
    cases = [(g, m, 2) for g in (L1, LINF, TRI) for m in range(1, 6)]
    cases += [(builtin_graph("l1:3").graph(), m, 1) for m in (1, 2, 3)]
    for graph, m, r in cases:
        res = exhaustive_min_boundary(graph, m, box_radius=r)
        for w in res.witnesses:
            assert len(_components(w, graph)) == 1, (graph.generators, m, w)


def _translate(points, t):
    return {tuple(a + b for a, b in zip(p, t)) for p in points}


def test_sliding_a_component_lowers_the_boundary_by_two():
    # The connectivity lemma of exhaustive_min_boundary, on random sets.
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        graph = rng.choice(GRAPHS_WITH_SKEW)
        box = list(product(range(-3, 4), repeat=graph.dim))
        S = set(rng.sample(box, rng.randint(2, 8)))
        parts = _components(S, graph)
        if len(parts) < 2:
            continue
        A = parts[0]
        B = set().union(*parts[1:])
        v = rng.choice(graph.generators)
        b = rng.choice(sorted(B))
        B = _translate(B, tuple(x - y for x, y in zip(rng.choice(sorted(A)), b)))
        while B & A:
            B = _translate(B, v)
        assert any(_translate([p], v) & B for p in A)
        assert edge_boundary_direct(graph, A | B) <= edge_boundary_direct(graph, S) - 2
        checked += 1


def test_exhaustive_witness_cap_truncation():
    res = exhaustive_min_boundary(LINF, 3, box_radius=3, witness_cap=1)
    assert res.witnesses_truncated
    assert len(res.witnesses) == 1


def test_symmetry_hint_must_fix_the_graph():
    # The swap maps (1, 2) to (2, 1), which is no generator: folding by it
    # would merge the witnesses {(0,0),(1,0)} and {(0,0),(0,1)}.
    graph = validate_pl_graph(2, [(1, 0), (0, 1), (1, 2)])
    assert len(exhaustive_min_boundary(graph, 2, box_radius=2).witnesses) == 3
    with pytest.raises(ValueError, match="does not preserve"):
        exhaustive_min_boundary(graph, 2, box_radius=2, symmetry_hints=[((1, 1), (0, 1))])


def test_symmetry_hints_collapse_witness_orbits():
    spec = builtin_graph("linf:2")
    plain = exhaustive_min_boundary(LINF, 3, box_radius=2)
    folded = exhaustive_min_boundary(LINF, 3, box_radius=2,
                                     symmetry_hints=spec.symmetry_hints)
    assert plain.min_boundary == folded.min_boundary
    assert len(folded.witnesses) <= len(plain.witnesses)


def _signed(g, p):
    """p under the signed permutation g: y[i] = s * p[j] for the pair (j, s) at i."""
    return tuple(s * p[j] for j, s in g)


def _coordinate_symmetries(graph):
    """Every signed permutation of the coordinates that maps the generator
    set onto itself up to sign (at most 2^n n! of them)."""
    n = graph.dim
    signed = set(graph.generators) | {tuple(-a for a in v) for v in graph.generators}
    group = set()
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            g = tuple(zip(perm, signs))
            if {_signed(g, v) for v in signed} == signed:
                group.add(g)
    return group


def _combinations_search(graph, m, r, witness_cap=100, symmetry_hints=None):
    """Slow oracle: the box search as one flat loop over
    combinations(range(1, npool + 1), m - 1), counting every m-set's inner
    edges afresh with m popcounts.  With hints, witnesses are deduplicated
    modulo the whole coordinate symmetry group of the graph, which the
    hints must generate."""
    candidates, masks = search._candidate_masks(graph, r)
    npool = len(candidates) - 1
    const = 2 * len(graph.generators) * m
    best, combos, truncated = None, [], False
    for combo in combinations(range(1, npool + 1), m - 1):
        sel = 1
        for i in combo:
            sel |= 1 << i
        b = const - sum((masks[i] & sel).bit_count() for i in (0, *combo))
        if best is None or b < best:
            best, combos, truncated = b, [combo], False
        elif b == best:
            if len(combos) < witness_cap:
                combos.append(combo)
            else:
                truncated = True
    sets = [canonical_set([candidates[0]] + [candidates[i] for i in c]) for c in combos]
    if symmetry_hints:
        group = _coordinate_symmetries(graph)
        generated = {tuple((j, 1) for j in range(graph.dim))}
        while True:  # compose with every hint until nothing new appears
            grown = generated | {tuple((g[j][0], g[j][1] * s) for j, s in h)
                                 for g in generated for h in symmetry_hints}
            if grown == generated:
                break
            generated = grown
        assert generated == group, "the hints do not generate the symmetry group"
        orbits = {}
        for w in sets:
            orbits.setdefault(min(canonical_set(_signed(g, p) for p in w) for g in group), w)
        sets = list(orbits.values())
    return SearchResult(m, best, tuple(sorted(sets)), True,
                        witnesses_truncated=truncated,
                        evaluated=math.comb(npool, m - 1))


def _box_cases():
    for name in BUILTIN_NAMES:
        graph = builtin_graph(name).graph()
        if graph.dim == 2:
            for r in (1, 2):
                npool = search._box_subsets(2, 1, r)[0]
                yield from ((graph, m, r) for m in range(1, min(6, npool + 1) + 1))
    l13 = builtin_graph("l1:3").graph()
    yield from ((l13, m, 1) for m in range(1, 15))


def test_depth_first_walk_matches_combinations_oracle():
    for graph, m, r in _box_cases():
        for cap in (1, 2, 100):
            assert (exhaustive_min_boundary(graph, m, r, witness_cap=cap)
                    == _combinations_search(graph, m, r, cap)), (graph.generators, m, r, cap)


@st.composite
def _box_search_cases(draw):
    """Skewed generator sets in 2-D and 3-D (long generators leave few in-box
    edges, so many sets tie), or linf:2 with its symmetry hints."""
    cap = draw(st.sampled_from([1, 2, 100]))
    if draw(st.booleans()):
        spec = builtin_graph("linf:2")
        r = draw(st.integers(1, 2))
        m = draw(st.integers(1, min(search._box_subsets(2, 1, r)[0] + 1, 7)))
        return spec.graph(), m, r, cap, spec.symmetry_hints
    dim = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-4, 4)] * dim)
    gens = draw(st.lists(vec, min_size=dim, max_size=dim + 2))
    try:
        graph = validate_pl_graph(dim, gens)
    except IsozonoError:
        graph = SKEW if dim == 2 else builtin_graph("l1:3").graph()
    r = draw(st.integers(1, 4 - dim))
    npool = search._box_subsets(dim, 1, r)[0]
    return graph, draw(st.integers(1, min(npool + 1, 7))), r, cap, None


@settings(max_examples=200, deadline=None)
@given(_box_search_cases())
# A non-adjacent leaf ties the minimum here, so the leaf shortcut must not
# be taken when the prefix's own boundary equals the best.
@example((validate_pl_graph(2, [(1, 0), (1, 2)]), 3, 1, 100, None))
def test_depth_first_walk_matches_oracle_on_skewed_graphs(case):
    graph, m, r, cap, hints = case
    assert (exhaustive_min_boundary(graph, m, r, witness_cap=cap, symmetry_hints=hints)
            == _combinations_search(graph, m, r, cap, hints))


@settings(max_examples=100, deadline=None)
@given(_box_search_cases())
def test_box_search_witnesses_are_canonical(case):
    graph, m, r, cap, hints = case
    for w in exhaustive_min_boundary(graph, m, r, witness_cap=cap,
                                     symmetry_hints=hints).witnesses:
        assert canonical_set(w) == w


def test_depth_first_walk_needs_no_recursion_on_a_deep_prefix():
    # r = 22 has 1,012 candidates: the prefixes are 1,011 and 1,010 deep,
    # beyond Python's default recursion limit.
    npool = search._box_subsets(2, 1, 22)[0]
    full = exhaustive_min_boundary(LINF, npool + 1, 22)
    assert (full.evaluated, len(full.witnesses), full.witnesses_truncated) == (1, 1, False)
    assert full.min_boundary == edge_boundary_direct(LINF, full.witnesses[0])
    one_out = exhaustive_min_boundary(LINF, npool, 22)
    assert one_out.evaluated == npool
    # Dropping a point of least degree, a corner of the upper half-box.
    assert one_out.min_boundary == full.min_boundary - 8 + 2 * 3
    for w in one_out.witnesses:
        assert edge_boundary_direct(LINF, w) == one_out.min_boundary


def test_local_search_matches_exhaustive_small():
    for g in (L1, LINF, TRI):
        for m in (1, 2, 3, 4, 5):
            exact = exhaustive_min_boundary(g, m, box_radius=2).min_boundary
            heur = local_search_min_boundary(g, m, iterations=3000, seed=0)
            assert not heur.exhaustive
            assert heur.min_boundary == exact, (g.generators, m)
            for w in heur.witnesses:
                assert edge_boundary_direct(g, w) == heur.min_boundary


def test_local_search_deterministic_per_seed():
    a = local_search_min_boundary(LINF, 6, iterations=2000, seed=42)
    b = local_search_min_boundary(LINF, 6, iterations=2000, seed=42)
    assert a == b


def test_local_search_start_scan_is_budgeted(monkeypatch):
    monkeypatch.setenv("ISOZONO_BUDGET", "2000")
    with pytest.raises(BudgetExceededError):
        local_search_min_boundary(builtin_graph("linf:3").graph(), 200)


def _full_recount_local_search(graph, m, iterations, seed):
    """Slow oracle: the annealing search recounting the whole boundary of
    every trial set, with the same random draws."""
    rng = random.Random(seed)
    origin = (Fraction(0),) * graph.dim
    current = {p for _, p in search._smallest_gauges(zonotope_of_graph(graph), m, origin)}
    gens = graph.generators
    degree = 2 * len(gens)

    def neighbour(p, v, sign):
        return tuple(a + sign * b for a, b in zip(p, v))

    def boundary(S):
        inner = sum(neighbour(p, v, sign) in S for p in S for v in gens for sign in (1, -1))
        return degree * len(S) - inner

    cur_b = best_b = boundary(current)
    best_set = frozenset(current)
    temperature = float(degree)
    for _ in range(iterations if m > 1 else 0):
        out = rng.choice(sorted(current))
        anchor = rng.choice(sorted(current - {out}))
        v = rng.choice(gens)
        cand = neighbour(anchor, v, 1 if rng.random() < 0.5 else -1)
        if cand not in current or cand == out:
            trial = (current - {out}) | {cand}
            delta = boundary(trial) - cur_b
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
                current, cur_b = trial, cur_b + delta
                if cur_b < best_b:
                    best_b, best_set = cur_b, frozenset(current)
        temperature *= 0.999
    return SearchResult(m, best_b, (canonical_set(best_set),), False, evaluated=iterations)


def test_local_search_boundary_delta_matches_full_recount():
    for graph, m, seed in product(GRAPHS_WITH_SKEW, (1, 2, 5, 9, 14), (0, 3, 8)):
        assert (local_search_min_boundary(graph, m, 400, seed)
                == _full_recount_local_search(graph, m, 400, seed)), (graph.generators, m, seed)
    # Long walks leave the start far behind: a pair stays adjacent and drifts
    # about sqrt(3000) steps, and at m = 14 the best set still changes late.
    for graph, m, seed in product((L1, SKEW), (2, 14), (0, 3, 8)):
        assert (local_search_min_boundary(graph, m, 3000, seed)
                == _full_recount_local_search(graph, m, 3000, seed)), (graph.generators, m, seed)


def _fraction_gauge(normals, p, center):
    """Slow oracle: one Fraction per normal."""
    q = tuple(Fraction(a) - c for a, c in zip(p, center))
    return max(Fraction(abs(dot(u, q)), h) for u, h in normals)


def test_integer_gauge_matches_fraction_oracle():
    rng = random.Random(4)
    for name, per_center in (("linf:3", 15), ("linf:4", 3)):
        Z = zonotope_of_graph(builtin_graph(name).graph())
        normals = Z.facet_offsets
        n = Z.dim
        for center in product((Fraction(0), Fraction(1, 2)), repeat=n):
            points = [(0,) * n, (1,) * n] + [tuple(rng.randint(-6, 6) for _ in range(n))
                                             for _ in range(per_center)]
            for p in points:
                expected = _fraction_gauge(normals, p, center)
                assert search._gauge(normals, p, center) == expected, (name, p, center)


def test_gauge_ball_start_is_the_smallest_gauge_prefix():
    # On this skewed graph a box sized by the point count alone ends at
    # |x| = 3 and misses a point of the true start.
    Z = zonotope_of_graph(SKEW)
    origin = (Fraction(0),) * 2
    box = product(range(-20, 21), repeat=2)
    expected = sorted(box, key=lambda p: (search._gauge(Z.facet_offsets, p, origin), p))[:10]
    start = [p for _, p in search._smallest_gauges(Z, 10, origin)]
    assert start == expected
    assert max(abs(p[0]) for p in start) == 4


@st.composite
def _gauge_cases(draw):
    """A random primitive 2-D or 3-D generator set (skewed ones included), a
    count 1..40 and a centre in {0, 1/2}^n."""
    dim = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 7 if dim == 2 else 3))
    vec = st.tuples(*[st.integers(-r, r)] * dim)
    gens = draw(st.lists(vec, min_size=dim, max_size=dim + 2))
    try:
        graph = validate_pl_graph(dim, gens)
    except IsozonoError:
        graph = SKEW if dim == 2 else builtin_graph("l1:3").graph()
    center = tuple(draw(st.sampled_from([Fraction(0), Fraction(1, 2)])) for _ in range(dim))
    return graph, draw(st.integers(1, 40)), center


@settings(max_examples=60, deadline=None)
@given(_gauge_cases())
@example((SKEW, 10, (Fraction(0), Fraction(0))))
@example((SKEW, 40, (Fraction(1, 2), Fraction(1, 2))))
def test_smallest_gauges_match_box_oracle(case):
    # Every point of gauge at most g about c in [0, 1/2]^n lies within
    # g * h(e_i) + 1/2 of the origin along axis i, so a box of radius
    # ceil(g * max_i h(e_i)) + 1 holds all points of the count-th gauge g or less.
    graph, count, center = case
    Z = zonotope_of_graph(graph)
    got = search._smallest_gauges(Z, count, center)
    n = graph.dim
    reach = max(Z.support(tuple(int(j == i) for j in range(n))) for i in range(n))
    radius = math.ceil(got[-1][0] * reach) + 1
    box = product(range(-radius, radius + 1), repeat=n)
    expected = sorted((_fraction_gauge(Z.facet_offsets, p, center), p) for p in box)[:count]
    assert got == expected


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES
                                  if builtin_graph(n).graph().dim in (2, 3)])
def test_zonotope_point_set_boundary_matches_direct_count(name):
    graph = builtin_graph(name).graph()
    for alpha in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        for center in (None, (Fraction(1, 2),) * graph.dim):
            ps = zonotope_point_set(graph, alpha, center)
            assert ps.edge_boundary == edge_boundary_direct(graph, ps.points), (alpha, center)


def test_zonotope_point_set_oracles():
    ps = zonotope_point_set(LINF, 1)
    assert ps.cardinality == 37
    ps_half = zonotope_point_set(LINF, Fraction(1, 2))
    assert ps_half.cardinality == 9
    tri_full = zonotope_point_set(TRI, 1)
    assert tri_full.cardinality == 19
    tri_half = zonotope_point_set(TRI, Fraction(1, 2))
    assert tri_half.cardinality == 7
    assert tri_half.edge_boundary == 18
    assert tri_half.edge_boundary == edge_boundary_direct(TRI, tri_half.points)


def test_zonotope_point_set_shifted_center():
    ps = zonotope_point_set(L1, Fraction(1, 2), center=(Fraction(1, 2), Fraction(1, 2)))
    assert ps.cardinality == 4
    assert canonical_set(ps.points) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_zonotope_point_set_rejects_center_of_wrong_length():
    with pytest.raises(DimensionMismatchError):
        zonotope_point_set(L1, 1, center=(0, 0, 7))
    with pytest.raises(DimensionMismatchError):
        zonotope_point_set(L1, 1, center=(0,))


def test_zonotope_point_set_refuses_more_points_than_the_budget(monkeypatch):
    monkeypatch.setenv("ISOZONO_BUDGET", "37")
    assert zonotope_point_set(LINF, 1).cardinality == 37
    monkeypatch.setenv("ISOZONO_BUDGET", "36")
    with pytest.raises(BudgetExceededError, match="37 lattice points"):
        zonotope_point_set(LINF, 1)


def _no_scan(slabs, ranges):
    raise AssertionError("the lattice lines were scanned")


def test_zonotope_point_set_refuses_more_lines_than_the_budget_before_the_scan(monkeypatch):
    monkeypatch.setenv("ISOZONO_BUDGET", "100")
    monkeypatch.setattr(search, "lattice_lines", _no_scan)
    # 2 * 3 * 10**5 + 1 lines across |y| <= alpha h(e_1), h(e_1) = 3.
    with pytest.raises(BudgetExceededError, match="scans 600001 lattice lines against 4 facet "
                       "normals, budget is 100 line-normal pairs"):
        zonotope_point_set(LINF, 10 ** 5)


@pytest.mark.parametrize("alpha, lines", [(1, 55 ** 3), (Fraction(1, 2), 27 ** 3)])
def test_zonotope_point_set_refuses_linf4_before_the_scan_under_the_default_budget(
        monkeypatch, alpha, lines):
    # Each scan is fewer lines than the budget but, against 680 facet normals,
    # more line-normal pairs: the bound convergence_experiment applies.
    monkeypatch.delenv("ISOZONO_BUDGET", raising=False)
    monkeypatch.setattr(search, "lattice_lines", _no_scan)
    with pytest.raises(BudgetExceededError) as err:
        zonotope_point_set(builtin_graph("linf:4").graph(), alpha)
    assert str(err.value) == (f"alpha = {alpha} scans {lines} lattice lines against 680 facet "
                              "normals, budget is 10000000 line-normal pairs")


def test_convergence_experiment_refuses_more_line_normal_pairs_than_the_budget_before_the_scan(
        monkeypatch):
    monkeypatch.setattr(search, "lattice_lines", _no_scan)
    with pytest.raises(BudgetExceededError) as err:
        convergence_experiment(LINF, [10 ** 5], budget=100)
    assert str(err.value) == ("alpha = 100000 scans 600001 lattice lines against 4 facet "
                              "normals, budget is 100 line-normal pairs")


def test_convergence_experiment_exact_rows():
    rows = convergence_experiment(L1, [1, 10, 50])
    by_alpha = {int(r.alpha): r for r in rows}
    r10 = by_alpha[10]
    assert r10.points == 441
    assert r10.volume == 400
    assert r10.discrete_boundary == 84
    assert r10.continuous_boundary == 80
    # ratios are continuous/discrete, approaching 1 from below
    assert r10.vol_ratio == Fraction(400, 441)
    assert r10.boundary_ratio == Fraction(80, 84)
    r50 = by_alpha[50]
    assert r50.points == 10201
    assert r50.discrete_boundary == 404
    assert r50.continuous_boundary == 400


def test_convergence_experiment_validates_input():
    with pytest.raises(ValueError):
        convergence_experiment(L1, [])
    with pytest.raises(ValueError):
        convergence_experiment(L1, [2, 1])
    with pytest.raises(ValueError):
        convergence_experiment(L1, [0, 1])
    with pytest.raises(BudgetExceededError):
        convergence_experiment(L1, [10 ** 6], budget=100)


@functools.cache
def _vertices_and_hull_facets(graph):
    verts = zonotope_of_graph(graph).polytope().vertices
    return verts, convex_hull(verts).facets


def _grid_scan_oracle(graph, alpha, center):
    """Z^n cap (alpha Z + center) by a Fraction scan of its bounding box: every
    grid point is tested against every facet of the hull of Z's vertices
    (facets from the double description, not from the minor table)."""
    verts, facets = _vertices_and_hull_facets(graph)
    ranges = []
    for i in range(graph.dim):
        h = alpha * max(v[i] for v in verts)
        ranges.append(range(math.ceil(center[i] - h), math.floor(center[i] + h) + 1))
    bounds = [(u, alpha * h + dot(u, center)) for u, h in facets]
    return tuple(p for p in product(*ranges) if all(dot(u, p) <= b for u, b in bounds))


# Largest alpha * h(e_i) per dimension: keeps the oracle's grid scan small.
_ORACLE_REACH = {1: 12, 2: 10, 3: 4}


@st.composite
def _line_cases(draw):
    """A graph in dims 1..3 (builtin, or random generators with entries up to
    3, whose slanted lines can miss their neighbours), a rational alpha and a
    rational or half-integer center."""
    dim = draw(st.integers(1, 3))
    names = [n for n in BUILTIN_NAMES if builtin_graph(n).graph().dim == dim]
    if draw(st.booleans()):
        graph = builtin_graph(draw(st.sampled_from(names))).graph()
    else:
        r = draw(st.integers(1, 3))
        vec = st.tuples(*[st.integers(-r, r)] * dim)
        gens = draw(st.lists(vec, min_size=dim, max_size=dim + 1))
        try:
            graph = validate_pl_graph(dim, gens)
        except IsozonoError:
            graph = builtin_graph(f"l1:{dim}").graph()
    reach = max(sum(abs(v[i]) for v in graph.generators) for i in range(dim))
    den = draw(st.integers(1, 7))
    top = max(1, _ORACLE_REACH[dim] * den // reach)
    alpha = Fraction(draw(st.integers(1, top)), den)
    cden = draw(st.sampled_from([1, 2, 2, 3, 5]))
    center = tuple(Fraction(draw(st.integers(-2 * cden, 2 * cden)), cden)
                   for _ in range(dim))
    return graph, alpha, center


@settings(max_examples=100, deadline=None)
@given(_line_cases())
def test_line_intervals_match_grid_scan_oracle(case):
    graph, alpha, center = case
    expected = _grid_scan_oracle(graph, alpha, center)
    ps = zonotope_point_set(graph, alpha, center)
    assert ps.points == expected
    lines = _lattice_lines(zonotope_of_graph(graph), alpha, center)
    assert sum(hi - lo + 1 for lo, hi in lines.values()) == len(expected)
    assert _lines_boundary(lines, graph.generators) == edge_boundary_direct(graph, expected)
    report = boundary_identity_report(graph, expected)
    assert report.identity_holds
    assert all(gaps == 0 for _, _, gaps in report.per_generator)


def test_lines_boundary_when_neighbouring_intervals_miss():
    # Slanted generators: some line's interval, shifted along a generator,
    # misses the neighbouring line's interval, so that overlap counts 0.
    graph = validate_pl_graph(3, [(1, -2, -2), (2, 1, 3), (3, -1, -2)])
    center = (Fraction(3, 2), Fraction(-3, 2), Fraction(-2))
    lines = _lattice_lines(zonotope_of_graph(graph), Fraction(1, 3), center)
    assert any(min(hi, nb[1] - v[0]) < max(lo, nb[0] - v[0])
               for v in graph.generators for y, (lo, hi) in lines.items()
               for nb in [lines.get(tuple(a + b for a, b in zip(y, v[1:])))] if nb)
    points = _grid_scan_oracle(graph, Fraction(1, 3), center)
    assert _lines_boundary(lines, graph.generators) == edge_boundary_direct(graph, points)


def test_l1_1_has_one_line_with_empty_key():
    lines = _lattice_lines(zonotope_of_graph(builtin_graph("l1:1").graph()),
                           Fraction(5, 2), (Fraction(1, 2),))
    assert lines == {(): (-2, 3)}


def _ehrhart_coefficients(graph):
    """Stanley's formula for the zonotope sum [0, 2 v_i]: the coefficient of
    t^j sums, over the linearly independent j-subsets S of {2 v_i}, the gcd
    m(S) of the j x j minors of S (Beck and Robins, Computing the Continuous
    Discretely, ch. 9)."""
    n = graph.dim
    ws = [tuple(2 * a for a in v) for v in graph.generators]
    coeffs = []
    for j in range(n + 1):
        total = 0
        for S in combinations(ws, j):
            total += math.gcd(*(leibniz_det([[w[c] for c in cols] for w in S])
                                for cols in combinations(range(n), j)))
        coeffs.append(total)
    return coeffs


def test_ehrhart_polynomial_of_l1_2():
    assert _ehrhart_coefficients(L1) == [1, 4, 4]  # (2t + 1)^2


# For integer alpha, alpha Z(G) = -alpha sum v_i + alpha sum [0, 2 v_i] is a
# lattice translate of alpha times the zonotope Stanley's formula counts.
# linf:4 is left out: L(1) is already 2.7 million points.
_EHRHART_ALPHAS = {1: 20, 2: 20, 3: 4, 4: 2}


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "linf:4"])
def test_point_counts_match_ehrhart_polynomial(name):
    graph = builtin_graph(name).graph()
    coeffs = _ehrhart_coefficients(graph)
    alphas = range(1, _EHRHART_ALPHAS[graph.dim] + 1)
    expected = [sum(c * t ** j for j, c in enumerate(coeffs)) for t in alphas]
    assert [r.points for r in convergence_experiment(graph, alphas)] == expected
    for t, count in zip(alphas, expected):
        if count <= 60_000:  # materialising larger sets only costs time
            assert zonotope_point_set(graph, t).cardinality == count


def test_convergence_alpha_1000_within_default_budget():
    # The budget counts lines x normals, so 2d tables reach alpha = 1000.
    for g in (L1, LINF, TRI):
        row, = convergence_experiment(g, [1000])
        assert row.points == sum(c * 1000 ** j for j, c in enumerate(_ehrhart_coefficients(g)))
        assert row.boundary_ratio < 1
    side = 2 * 1000 + 1
    row, = convergence_experiment(L1, [1000])
    assert (row.points, row.discrete_boundary) == (side * side, 4 * side)


def test_hull_direction_count_conventions():
    assert hull_direction_count([(0, 0)]) == 0
    assert hull_direction_count([(0, 0), (1, 0), (2, 0)]) == 2
    assert hull_direction_count([(0, 0), (1, 0), (0, 1), (1, 1)]) == 4
    octagon_pts = zonotope_point_set(LINF, 1).points
    assert hull_direction_count(octagon_pts) == 8


def _recursive_direction_count(points):
    """Oracle: hull the points, then hull a flat hull's chart body again."""
    hull = convex_hull(list(points))
    if hull.is_full_dimensional():
        return len(hull.facets)
    if hull.chart is None or not hull.chart.basis:
        return 0
    return _recursive_direction_count(hull.chart.body.vertices)


@st.composite
def _point_sets(draw):
    """Integer point sets in dims 1..4, flat ones included: a base plus
    integer combinations of k <= dim directions."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(0, dim))
    small = st.integers(-2, 2)
    dirs = draw(st.lists(st.tuples(*[small] * dim), min_size=k, max_size=k))
    base = draw(st.tuples(*[small] * dim))
    coeffs = draw(st.lists(st.tuples(*[small] * k), min_size=1, max_size=9))
    return [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
            for cs in coeffs]


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_hull_direction_count_matches_the_recursive_oracle(points):
    assert hull_direction_count(points) == _recursive_direction_count(points)


def test_limiting_shape_report_family_matches():
    rep = limiting_shape_report(L1, 6, box_radius=2)
    rows = {r.cardinality: r for r in rep}
    # m=1: the single point is the alpha->0 family member.
    assert rows[1].exhaustive and rows[1].family_match
    # m=4: the 2x2 block matches the half-shifted family set.
    assert rows[4].exhaustive and rows[4].family_match
    assert rows[4].min_boundary == 8
    # m=5: no family cardinality 5; nearest realizable are 4 and 6.
    assert rows[5].family_match is False or rows[5].family_match is None
    assert not rows[5].family_sets
    below, above = rows[5].nearest_cardinalities
    assert below.cardinality == 4
    assert above.cardinality == 6


@pytest.mark.parametrize("name, m_max", [("l1:2", 20), ("linf:2", 20), ("tri", 20),
                                         ("l1:3", 12)])
def test_family_members_are_the_scaled_zonotope_point_sets(name, m_max):
    # Two routes to Z^n cap (g Z + c): the gauge prefix of the catalog and the
    # line scan of zonotope_point_set at the member's own alpha and center.
    graph = builtin_graph(name).graph()
    catalog = search._family_catalog(graph, m_max)
    origin = catalog[1][0]
    assert (origin.alpha, origin.points, origin.edge_boundary) == (
        0, ((0,) * graph.dim,), 2 * len(graph.generators))
    members = [f for fam in catalog.values() for f in fam if f.alpha > 0]
    assert members
    for f in members:
        assert zonotope_point_set(graph, f.alpha, f.center) == f


def test_limiting_shape_report_refuses_m_max_over_the_budget(monkeypatch):
    assert len(limiting_shape_report(L1, 6, budget=6)) == 6
    with pytest.raises(BudgetExceededError):
        limiting_shape_report(L1, 6, budget=5)
    monkeypatch.setenv("ISOZONO_BUDGET", "36")
    with pytest.raises(BudgetExceededError):
        limiting_shape_report(LINF, 37)


def test_limiting_shape_report_scans_its_family_catalog_under_isozono_budget(monkeypatch):
    # The explicit budget caps m_max and each row's window; the gauge prefixes
    # behind the family catalog are scanned under ISOZONO_BUDGET, like the
    # local-search start, so no scan runs without a cap.
    monkeypatch.setenv("ISOZONO_BUDGET", "2000")
    with pytest.raises(BudgetExceededError, match="facet normals"):
        limiting_shape_report(builtin_graph("linf:3").graph(), 200, budget=10**6)


def test_limiting_shape_report_skips_over_budget_rows():
    rep = limiting_shape_report(LINF, 37, box_radius=4, budget=200_000)
    rows = {r.cardinality: r for r in rep}
    assert rows[2].exhaustive
    assert not rows[37].exhaustive
    assert rows[37].min_boundary is None
    fam = [f for f in rows[37].family_sets]
    assert fam and all(f.cardinality == 37 for f in fam)
    assert any(f.edge_boundary == 64 for f in fam)
    assert 8 in {hull_direction_count(f.points) for f in fam}
