"""Integer/rational linear algebra primitives."""

import math
import random
from fractions import Fraction

import pytest

from isozono.intmat import (
    ChartSolver,
    canonical_sign,
    content,
    cross_nd,
    det,
    dot,
    gram_det,
    gram_matrix,
    integerize,
    kernel_basis,
    primitive_part,
    rank,
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
    assert gram_matrix(vecs) == [[1, 0], [0, 4]]
    assert gram_det(vecs) == 4
    assert gram_det([(1, 1, 0)]) == 2


def test_chart_solver_round_trip():
    basis = [(1, 1, 0), (0, 1, 2)]
    cs = ChartSolver(basis)
    for y in [(0, 0), (2, -1), (-3, 5)]:
        x = cs.embed(y)
        assert cs.coords(x) == tuple(y)
    # For a point off the span, embed(coords(x)) is a projection, not x.
    off = (1, 0, 1)
    assert cs.embed(cs.coords(off)) != off
