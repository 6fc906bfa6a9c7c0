"""Exact linear algebra over Z on small dense matrices.

Everything works on lists/tuples of Python ints (Fractions only inside the
uncalled ``invert_fractions``); no floats.  Matrices are row-major.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_core(mat: list[list[int]], track: bool):
    """Row-style Hermite normal form by unimodular row operations.

    Returns (mat, u, npivots) where the first npivots rows of mat are the
    echelon basis, remaining rows are zero, and u @ input == mat when track.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    pr = 0
    for c in range(n):
        if pr == m:
            break
        piv = None
        for r in range(pr, m):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        if track:
            u[pr], u[piv] = u[piv], u[pr]
        for r in range(pr + 1, m):
            if mat[r][c] == 0:
                continue
            a, b = mat[pr][c], mat[r][c]
            g, x, y = ext_gcd(a, b)
            p_, q_ = a // g, b // g
            # [[x, y], [-q_, p_]] has determinant (x*a + y*b)/g == 1
            mat[pr], mat[r] = (
                [x * mat[pr][k] + y * mat[r][k] for k in range(n)],
                [-q_ * mat[pr][k] + p_ * mat[r][k] for k in range(n)],
            )
            if track:
                u[pr], u[r] = (
                    [x * u[pr][k] + y * u[r][k] for k in range(m)],
                    [-q_ * u[pr][k] + p_ * u[r][k] for k in range(m)],
                )
        if mat[pr][c] < 0:
            mat[pr] = [-v for v in mat[pr]]
            if track:
                u[pr] = [-v for v in u[pr]]
        piv_val = mat[pr][c]
        for r in range(pr):
            q = mat[r][c] // piv_val
            if q:
                mat[r] = [mat[r][k] - q * mat[pr][k] for k in range(n)]
                if track:
                    u[r] = [u[r][k] - q * u[pr][k] for k in range(m)]
        pr += 1
    return mat, u, pr


def row_hnf(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Nonzero rows of the row-style Hermite normal form (a lattice basis)."""
    mat, _, pr = _hnf_core([list(r) for r in rows], track=False)
    return [tuple(r) for r in mat[:pr]]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    if not rows:
        return 0
    mat, _, pr = _hnf_core([list(r) for r in rows], track=False)
    return pr


def transpose(rows: Sequence[Sequence]) -> list[tuple]:
    if not rows:
        return []
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^width : rows @ x == 0}.

    The result is a basis of a saturated sublattice (Z^width / kernel is
    torsion-free), so a rank-1 kernel basis vector is automatically primitive.
    """
    if not rows:
        return [tuple(int(i == j) for j in range(width)) for i in range(width)]
    at = [list(col) for col in transpose(rows)]  # width x m
    _, u, pr = _hnf_core(at, track=True)
    return [tuple(r) for r in u[pr:]]


def solve_integer(rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """One integer solution x of rows @ x == rhs, or None if none exists."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    if n == 0:
        return () if all(v == 0 for v in rhs) else None
    at = [list(col) for col in transpose(rows)]  # n x m
    h, u, pr = _hnf_core(at, track=True)
    # rows of h[:pr] form a basis of the column lattice of `rows`; express rhs.
    residual = list(rhs)
    coeffs = []
    for i in range(pr):
        c = next(k for k in range(m) if h[i][k])
        q, rem = divmod(residual[c], h[i][c])
        if rem:
            return None
        coeffs.append(q)
        if q:
            residual = [residual[k] - q * h[i][k] for k in range(m)]
    if any(residual):
        return None
    x = [0] * n
    for i, q in enumerate(coeffs):
        if q:
            x = [x[k] + q * u[i][k] for k in range(n)]
    return tuple(x)


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj, det) of a nonsingular square integer matrix, with adj @ rows == det * I.

    One fraction-free (Bareiss) Gauss-Jordan pass over [rows | I]: every
    division is exact, and at the end the left block is the last pivot times
    I and the right block is that pivot times the inverse.
    """
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if aug[r][k]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        pivot_row = aug[k]
        p = pivot_row[k]
        for i in range(n):
            f = aug[i][k]
            if i != k:
                aug[i] = [(p * a - f * b) // prev for a, b in zip(aug[i], pivot_row)]
        prev = p
    return [[sign * v for v in row[n:]] for row in aug], sign * prev


def invert_fractions(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse over Q; no caller in ``src/``, kept for ``bench/tracing.py``."""
    n = len(rows)
    aug = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
