"""Exact linear algebra over Z and Q used by the geometry kernel.

Vectors are plain tuples of ints (or Fractions where noted); matrices are
lists/tuples of row vectors.  Everything here is exact: no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatchError, IsozonoError, ZeroVectorError


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def is_zero(u):
    return all(a == 0 for a in u)


def _norm_num(a):
    """An integral Fraction as an int; anything else unchanged."""
    if isinstance(a, Fraction) and a.denominator == 1:
        return int(a)
    return a


def _bit_indices(x: int):
    """Indices of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def content(v) -> int:
    """gcd of the entries; 0 for the zero vector."""
    return gcd(*v)


def primitive_part(v):
    """v divided by the gcd of its entries.  Raises on the zero vector."""
    g = content(v)
    if g == 0:
        raise ZeroVectorError(f"zero vector {v!r} has no primitive part")
    return tuple(a // g for a in v)


def canonical_sign(v):
    """Flip sign so the first nonzero entry is positive."""
    for a in v:
        if a > 0:
            return tuple(v)
        if a < 0:
            return vneg(v)
    return tuple(v)


def integerize(v):
    """Scale a rational vector by the lcm of its denominators (1 for an int)
    to a primitive int vector."""
    scale = lcm(*(a.denominator for a in v))
    return primitive_part(tuple(int(a * scale) for a in v))


def int_point(p):
    """p as a tuple of ints; raises if a coordinate is not integral."""
    q = tuple(map(int, p))
    if q != tuple(p):
        raise IsozonoError(f"point {tuple(p)} has a non-integer coordinate")
    return q


def pack(v, R: int) -> int:
    """sum_i v_i R^(n-1-i): one balanced digit per coordinate, the first the
    most significant.  For odd R and every |v_i| <= R // 2 this is injective
    and keeps tuple order, and pack(u) + pack(w) = pack(u + w)."""
    code = 0
    for a in v:
        code = code * R + a
    return code


def unpack(code: int, R: int, n: int):
    """The n-vector whose `pack` in the odd radix R is `code`."""
    half = R // 2
    code += half * (R ** n - 1) // (R - 1)  # the code of (half, ..., half)
    return tuple(code // R ** i % R - half for i in range(n - 1, -1, -1))


def xgcd(a: int, b: int):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def kernel_chart(rows, dim: int):
    """(basis, left): a basis of the saturated integer lattice
    {x in Z^dim : <r,x> = 0 for all rows}, and integer rows with left . basis = I.

    Unimodular column elimination: starting from the identity columns, each row
    is absorbed by gcd-combining columns so that at most one column keeps a
    nonzero pairing with the row; that column is dropped.  All updates are
    unimodular, so the surviving columns are a genuine lattice basis of the
    kernel (not merely a spanning set).  `left` starts as the identity rows
    and takes the inverse of every update: combining a column pair by
    E = [[x, -b/g], [y, a/g]] combines the matching row pair by
    E^-1 = [[a/g, b/g], [-y, x]], and a dropped column drops its row
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).  The
    chart coordinates of a point x in the span are <l, x> for l in left.
    """
    cols = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    left = list(cols)
    for r in rows:
        vals = [dot(r, c) for c in cols]
        pivot = None
        for j in range(len(cols)):
            if vals[j] == 0:
                continue
            if pivot is None:
                pivot = j
                continue
            a, b = vals[pivot], vals[j]
            g, x, y = xgcd(a, b)
            a, b = a // g, b // g
            cp, cj = cols[pivot], cols[j]
            cols[pivot] = tuple(x * p + y * q for p, q in zip(cp, cj))
            cols[j] = tuple(a * q - b * p for p, q in zip(cp, cj))
            lp, lj = left[pivot], left[j]
            left[pivot] = tuple(a * p + b * q for p, q in zip(lp, lj))
            left[j] = tuple(x * q - y * p for p, q in zip(lp, lj))
            vals[pivot], vals[j] = g, 0
        if pivot is not None:
            del cols[pivot], left[pivot], vals[pivot]
    return cols, left


def kernel_basis(rows, dim: int):
    """The basis half of `kernel_chart`."""
    return kernel_chart(rows, dim)[0]


def embed(basis, y):
    """The point sum_j y_j basis_j of chart coordinates y."""
    return tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(len(basis[0])))


def independent_rows(rows, dim: int):
    """Indices of the rows independent of the rows before them, first to last:
    the greedy basis of their span.

    Fraction-free elimination: each row is reduced by the earlier pivots
    (r <- e_c r - r_c e for a kept row e with pivot column c) and kept when
    something nonzero is left, its first nonzero entry the new pivot.
    """
    kept, picked = [], []
    for i, r in enumerate(rows):
        for c, e in kept:
            a, b = e[c], r[c]
            if b:
                r = [a * x - b * y for x, y in zip(r, e)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is not None:
            g = content(r)
            kept.append((c, [x // g for x in r]))
            picked.append(i)
            if len(picked) == dim:
                break
    return picked


def rank(rows, dim: int) -> int:
    return len(independent_rows(rows, dim))


def det(matrix) -> Fraction | int:
    """Determinant: closed form up to 4 x 4, fraction-free (Bareiss)
    elimination above; exact for int and Fraction input.

    The closed forms use only + - *: 3 x 3 by expansion along the first row,
    4 x 4 by Laplace expansion over the six 2 x 2 minors of the top row pair
    and the six of the bottom pair."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    if n == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = matrix
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if isinstance(num, int) and isinstance(prev, int):
                    m[i][j] = num // prev
                else:
                    m[i][j] = num / prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cross_nd(vectors, dim: int):
    """The vector of signed maximal minors of (dim-1) row vectors in R^dim.

    Orthogonal to every input row; zero iff the rows are linearly dependent.
    Generalizes the 3D cross product.  In 3-D it is that product; in 4-D the
    six 2 x 2 minors of the last two rows are combined with the first row.
    """
    if len(vectors) != dim - 1:
        raise DimensionMismatchError(
            f"cross_nd in dimension {dim} takes {dim - 1} vectors, got {len(vectors)}")
    if dim == 3:
        (a0, a1, a2), (b0, b1, b2) = vectors
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if dim == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = vectors
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        return (a1 * m23 - a2 * m13 + a3 * m12,
                -a0 * m23 + a2 * m03 - a3 * m02,
                a0 * m13 - a1 * m03 + a3 * m01,
                -a0 * m12 + a1 * m02 - a2 * m01)
    result = []
    for j in range(dim):
        minor = [[row[i] for i in range(dim) if i != j] for row in vectors]
        result.append((-1) ** j * det(minor))
    return tuple(result)


def gram_matrix(vectors):
    return [[dot(u, v) for v in vectors] for u in vectors]


def gram_det(vectors):
    return det(gram_matrix(vectors))
