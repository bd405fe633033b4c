"""Integer/rational linear algebra primitives."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isozono.errors import DimensionMismatchError
from isozono import intmat
from isozono.intmat import (
    abs_det_sum,
    canonical_sign,
    content,
    cross_nd,
    det,
    dot,
    dots,
    embed,
    gram_det,
    independent_rows,
    integerize,
    kernel_basis,
    kernel_chart,
    pack,
    primitive_part,
    rank,
    unpack,
    xgcd,
)


def test_content_and_primitive_part():
    assert content((6, -9, 15)) == 3
    assert primitive_part((6, -9, 15)) == (2, -3, 5)
    assert primitive_part((0, -4, 0)) == (0, -1, 0)
    assert content((0, 0)) == 0


def test_canonical_sign_flips_on_first_nonzero():
    assert canonical_sign((0, -2, 5)) == (0, 2, -5)
    assert canonical_sign((3, -1)) == (3, -1)
    assert canonical_sign((0, 0)) == (0, 0)


def test_integerize_clears_denominators():
    assert integerize((Fraction(1, 2), Fraction(2, 3))) == (3, 4)
    assert integerize((2, -4)) == (1, -2)  # result is primitive


def test_xgcd_bezout_identity():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_det_small_oracles():
    assert det([[3]]) == 3
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]]) == 12
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_random_row_expansion_consistency():
    # Multiplying one row by c multiplies det by c; swapping rows negates it.
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det(M)
        swapped = [M[1], M[0]] + M[2:]
        assert det(swapped) == -d
        scaled = [[3 * x for x in M[0]]] + M[1:]
        assert det(scaled) == 3 * d


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """(sign, p) for every permutation p of range(n), the sign by inversions."""
    return [((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)), p)
            for p in permutations(range(n))]


def leibniz_det(matrix):
    """Determinant oracle: the permutation sum of sign(p) prod_i m[i][p(i)],
    sharing no code with `isozono.intmat.det`."""
    total = 0
    for sign, p in _signed_permutations(len(matrix)):
        term = sign
        for row, j in zip(matrix, p):
            term *= row[j]
        total += term
    return total


def signed_minors(vectors, dim):
    """cross_nd oracle: (-1)^j times the Leibniz determinant of the rows
    with column j deleted."""
    return tuple((-1) ** j * leibniz_det([[row[i] for i in range(dim) if i != j]
                                          for row in vectors])
                 for j in range(dim))


_BIG = st.one_of(st.integers(-2, 2), st.integers(-10 ** 30, 10 ** 30))
_FRACTION = st.one_of(st.integers(-2, 2),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))


@st.composite
def _square_and_cross(draw):
    """An n x n matrix (n = 0..5) and dim - 1 rows in dim = 2..5, all entries
    ints up to 10^30 or all Fractions, small entries mixed in so that zero
    pivots and dependent rows occur."""
    entry = draw(st.sampled_from((_BIG, _FRACTION)))
    n = draw(st.integers(0, 5))
    matrix = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    dim = draw(st.integers(2, 5))
    rows = [tuple(draw(st.lists(entry, min_size=dim, max_size=dim))) for _ in range(dim - 1)]
    if dim > 2 and draw(st.booleans()):
        rows[-1] = rows[0]
    return matrix, dim, rows


@settings(max_examples=400, deadline=None)
@given(_square_and_cross())
@example(([[0, 1, 2, 3, 4], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
           [0, 0, 0, 0, 1]], 4, [(1, 2, 3, 4), (0, 1, 0, 0), (0, 0, 0, 1)]))
@example(([[Fraction(1, 2), 3, 0], [0, 0, Fraction(-2, 7)], [1, 1, 1]], 3,
          [(Fraction(1, 3), 0, 2), (1, Fraction(5, 2), -1)]))
def test_det_and_cross_nd_match_the_permutation_sum(data):
    matrix, dim, rows = data
    d = det(matrix)
    assert d == leibniz_det(matrix)
    if all(isinstance(a, int) for row in matrix for a in row):
        assert isinstance(d, int)
    c = cross_nd(rows, dim)
    assert c == signed_minors(rows, dim)
    assert all(dot(r, c) == 0 for r in rows)


@pytest.mark.parametrize("dim, count", [(2, 0), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4), (5, 3)])
def test_cross_nd_rejects_the_wrong_number_of_vectors(dim, count):
    vectors = [tuple(range(1 + i, 1 + i + dim)) for i in range(count)]
    with pytest.raises(DimensionMismatchError, match=f"takes {dim - 1} vectors, got {count}"):
        cross_nd(vectors, dim)


def test_kernel_basis_orthogonality_and_rank():
    rng = random.Random(13)
    for _ in range(100):
        dim = rng.randint(2, 5)
        nrows = rng.randint(1, dim - 1)
        rows = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(nrows)]
        basis = kernel_basis(rows, dim)
        r = rank(rows, dim)
        assert len(basis) == dim - r
        for b in basis:
            assert all(isinstance(c, int) for c in b)
            for row in rows:
                assert dot(row, b) == 0
        # Basis vectors are independent: rank of the basis equals its size.
        assert rank(basis, dim) == len(basis)


def test_cross_nd_is_orthogonal_integer_normal():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randint(2, 5)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim - 1)]
        normal = cross_nd(vecs, dim)
        if not any(normal):
            assert rank(vecs, dim) < dim - 1
            continue
        assert all(isinstance(c, int) for c in normal)
        for v in vecs:
            assert dot(v, normal) == 0


def test_cross_nd_3d_matches_cross_product():
    u, v = (1, 2, 3), (4, 5, 6)
    n = cross_nd([u, v], 3)
    expect = (-3, 6, -3)
    assert n in (expect, tuple(-c for c in expect))


def test_gram_det_is_squared_volume():
    vecs = [(1, 0, 0), (0, 2, 0)]
    assert gram_det(vecs) == 4
    assert gram_det([(1, 1, 0)]) == 2


def _rational_solve(basis, x):
    """y with sum_j y_j basis_j = x, by Fraction Gauss-Jordan elimination."""
    k = len(basis)
    aug = [[Fraction(b[i]) for b in basis] + [Fraction(x[i])] for i in range(len(x))]
    for col in range(k):  # the basis is independent, so every column has a pivot
        piv = next(i for i in range(col, len(aug)) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [a / aug[col][col] for a in aug[col]]
        for i in range(len(aug)):
            if i != col and aug[i][col]:
                aug[i] = [a - aug[i][col] * b for a, b in zip(aug[i], aug[col])]
    assert all(r[k] == 0 for r in aug[k:])  # x lies in the span
    return tuple(aug[j][k] for j in range(k))


@st.composite
def _chart_rows(draw):
    dim = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(*[entry] * dim), max_size=dim + 1))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim), min_size=1, max_size=3))
    return dim, rows, coeffs


@settings(max_examples=300, deadline=None)
@given(_chart_rows())
@example((3, [], [(1, -2, 3)]))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 0)]))
@example((3, [(2, -2, 1)], [(3, 1, 0), (-5, 2, 0)]))
@example((4, [(2, -2, 1, 0), (0, 3, 0, -3)], [(1, 1, 0, 0)]))
@example((1, [(2,)], [(1,)]))
def test_kernel_chart_left_inverse_and_coordinates(data):
    dim, rows, coeffs = data
    basis, left = kernel_chart(rows, dim)
    assert basis == kernel_basis(rows, dim)
    k = len(basis)
    assert len(left) == k
    if not rows:
        identity = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
        assert (basis, left) == (identity, identity)
    if rank(rows, dim) == dim:
        assert (basis, left) == ([], [])
    assert [[dot(l, b) for b in basis] for l in left] == [
        [int(i == j) for j in range(k)] for i in range(k)]
    for b in basis:
        assert all(dot(r, b) == 0 for r in rows)
    if not k:
        return
    for c in coeffs:
        for y in (c[:k], tuple(Fraction(a, 2) for a in c[:k])):
            x = embed(basis, y)
            coords = tuple(dot(l, x) for l in left)
            assert coords == y
            assert coords == _rational_solve(basis, x)


def _greedy_independent_rows(rows, dim):
    """Slow oracle: keep a row when it pairs nonzero with the kernel of the
    rows kept so far."""
    picked, perp = [], kernel_basis([], dim)
    for i, r in enumerate(rows):
        if perp and any(dot(r, k) for k in perp):
            picked.append(i)
            perp = kernel_basis([rows[j] for j in picked], dim)
    return picked


@st.composite
def _dependent_rows(draw):
    """Rows in dims 1..5, with integer combinations of earlier rows mixed in."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=dim + 2))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.insert(draw(st.integers(0, len(rows))),
                        tuple(s * x + t * y for x, y in zip(a, b)))
    return dim, rows


@settings(max_examples=300, deadline=None)
@given(_dependent_rows())
@example((3, [(2, 4, 6), (1, 2, 3), (0, 0, 0), (0, 5, 1), (2, 9, 7)]))
def test_rank_counts_pivots_like_the_kernel(data):
    dim, rows = data
    picked = independent_rows(rows, dim)
    assert picked == _greedy_independent_rows(rows, dim)
    assert rank(rows, dim) == len(picked) == dim - len(kernel_basis(rows, dim))


@st.composite
def _radix_and_vectors(draw):
    """An odd radix R = 2h + 1 (small or up to about 2 * 10^18) and three
    n-vectors, n = 1..5, with entries in [-h, h], extremes mixed in."""
    n = draw(st.integers(1, 5))
    h = draw(st.one_of(st.integers(1, 4), st.integers(1, 10 ** 18)))
    entry = st.one_of(st.sampled_from((-h, -h + 1, 0, h - 1, h)), st.integers(-h, h))
    u, w, x = (tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(3))
    return 2 * h + 1, u, w, x


@settings(max_examples=300, deadline=None)
@given(_radix_and_vectors())
@example((3, (1, -1), (-1, 1), (0, 0)))
@example((5, (2, -2, 2), (2, -2, 1), (-2, 2, -2)))
def test_pack_is_an_order_preserving_additive_bijection(data):
    R, u, w, x = data
    n, half = len(u), R // 2
    assert unpack([pack(v, R) for v in (u, w, x)], R, n) == [u, w, x]
    for a, b in ((u, w), (w, x), (u, x)):
        assert (pack(a, R) < pack(b, R)) == (a < b)
        assert (pack(a, R) == pack(b, R)) == (a == b)
        total = tuple(s + t for s, t in zip(a, b))
        if all(abs(c) <= half for c in total):
            assert pack(a, R) + pack(b, R) == pack(total, R)


@st.composite
def _vector_family(draw):
    """n = 1..5 and k = 0..9 n-vectors, all entries ints up to 10^30 or all
    Fractions, small entries mixed in so that dependent subsets occur."""
    entry = draw(st.sampled_from((_BIG, _FRACTION)))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 9))
    vectors = [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        vectors[-1] = vectors[0]
    return vectors, n


@settings(max_examples=150, deadline=None)
@given(_vector_family())
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)], 4))
@example(([(Fraction(1, 2), 0, 3, 1), (0, 1, 0, Fraction(-2, 3)), (1, 1, 1, 0), (0, 2, 1, 5)], 4))
@example(([(1, 2, 3), (0, 1, 4), (5, 6, 0), (1, 1, 1)], 3))
@example(([tuple(int(i == j) + j for j in range(5)) for i in range(6)], 5))
def test_abs_det_sum_matches_the_leibniz_sum(data):
    vectors, n = data
    assert abs_det_sum(vectors, n) == sum(abs(leibniz_det(s)) for s in combinations(vectors, n))


def test_abs_det_sum_reads_every_4_subset_once(monkeypatch):
    """The 4-D sum takes each 4-subset's signed determinant exactly once:
    the values `_laplace` hands back are the permutation sums of the subsets."""
    rng = random.Random(24)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(9)]
    seen = []
    real = intmat._laplace

    def recording(top, bottoms):
        values = real(top, bottoms)
        seen.extend(values)
        return values

    monkeypatch.setattr(intmat, "_laplace", recording)
    total = abs_det_sum(vectors, 4)
    want = [leibniz_det(s) for s in combinations(vectors, 4)]
    assert sorted(seen) == sorted(want)
    assert total == sum(map(abs, want))


_VECTORS = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(_BIG, _FRACTION), min_size=n, max_size=n),
    st.lists(st.lists(st.one_of(_BIG, _FRACTION), min_size=n, max_size=n), max_size=5)))


@settings(max_examples=200, deadline=None)
@given(_VECTORS)
@example(((), [(), ()]))
@example(((3,), [(Fraction(1, 2),), (-4,)]))
@example(((1, -2), [(3, 4), (Fraction(5, 3), 0)]))
@example(((1, 0, -2), [(3, 4, 5)]))
@example(((1, 2, 3, 4), [(0, -1, Fraction(1, 2), 7), (1, 1, 1, 1)]))
@example(((1, 2, 3, 4, 5), [(5, 4, 3, 2, 1)]))
@example(((1, 2, 3, 4, 5, 6), [(6, 5, 4, 3, 2, 1), (0,) * 6]))
def test_dots_matches_the_pairwise_products(data):
    u, vectors = data
    assert dots(tuple(u), [tuple(v) for v in vectors]) == [sum(map(mul, u, v)) for v in vectors]

