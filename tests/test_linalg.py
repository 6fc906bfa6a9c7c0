import itertools
import random

from qtoric import linalg

from .oracles import (in_column_lattice, mat_mul, row_hnf_with_transform,
                      same_lattice, sympy_det, sympy_rank,
                      sympy_row_lattice_basis)


def test_ext_gcd_examples():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)]:
        g, x, y = linalg.ext_gcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
    assert linalg.ext_gcd(12, 18)[0] == 6
    assert linalg.ext_gcd(2, 3)[0] == 1


def test_row_hnf_examples():
    assert linalg.row_hnf([(1, 0), (1, 1), (1, 2)]) == [(1, 0), (0, 1)]
    assert linalg.row_hnf([(2,), (3,)]) == [(1,)]
    assert linalg.row_hnf([(2, 0), (0, 2), (1, 1)]) == [(1, 1), (0, 2)]
    assert linalg.row_hnf([]) == []
    assert linalg.row_hnf([(0, 0)]) == []


def test_row_hnf_shape():
    # pivots strictly move right, are positive, and entries above are reduced
    rng = random.Random(7)
    for _ in range(60):
        rows = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3)]
        h = linalg.row_hnf(rows)
        pivots = []
        for r in h:
            j = next(k for k, x in enumerate(r) if x != 0)
            assert r[j] > 0
            pivots.append(j)
        assert pivots == sorted(set(pivots))
        for i, j in zip(range(len(h)), pivots):
            for above in range(i):
                assert 0 <= h[above][j] < h[i][j]


def test_row_hnf_lattice_agrees_with_sympy():
    rng = random.Random(11)
    for _ in range(40):
        rows = [tuple(rng.randint(-6, 6) for _ in range(3))
                for _ in range(rng.randint(1, 4))]
        mine = linalg.row_hnf(rows)
        if not any(any(r) for r in rows):
            assert mine == []
            continue
        theirs = sympy_row_lattice_basis(rows)
        assert same_lattice(mine, theirs)
        assert len(mine) == sympy_rank(rows)


def test_transform_reproduces_input():
    rows = [(2, 6, 1), (4, 7, 2), (0, 0, 0)]
    h, u, npiv = row_hnf_with_transform(rows)
    assert npiv == 2
    assert abs(linalg.det_int(u)) == 1
    assert [tuple(r) for r in mat_mul(u, rows)] == list(h)


def test_kernel_basis_is_saturated():
    rows = [(1, 2, 3)]
    ker = linalg.kernel_basis(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0
    # a primitive rational-kernel vector must be an integer combination
    assert in_column_lattice(ker, (3, 0, -1))
    assert in_column_lattice(ker, (2, -1, 0))
    assert in_column_lattice(ker, (1, 1, -1))


def test_kernel_basis_random_saturation():
    rng = random.Random(3)
    for _ in range(30):
        rows = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)]
        ker = linalg.kernel_basis(rows, 4)
        assert len(ker) == 4 - sympy_rank(rows)
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
        for cand in itertools.product(range(-2, 3), repeat=4):
            if all(sum(a * b for a, b in zip(r, cand)) == 0 for r in rows):
                assert in_column_lattice(ker, cand) or not any(cand)


def test_solve_integer():
    assert linalg.solve_integer([(0, 1), (2, -1)], [1, 1]) == (1, 1)
    assert linalg.solve_integer([(2, 0), (0, 3)], [1, 1]) is None
    assert linalg.solve_integer([(0, 1), (3, -1)], [1, 1]) is None
    sol = linalg.solve_integer([(2, 3)], [1])
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1


def test_det_matches_sympy():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert linalg.det_int(m) == sympy_det(m)


def test_int_rank_matches_sympy():
    rng = random.Random(9)
    for _ in range(40):
        rows = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)]
        assert linalg.int_rank(rows) == sympy_rank(rows)


def test_invert_fractions():
    from fractions import Fraction
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = linalg.invert_fractions(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_adjugate_matches_sympy():
    import pytest
    import sympy
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if sympy_det(m) == 0:
            with pytest.raises(ZeroDivisionError):
                linalg.adjugate(m)
            continue
        adj, det = linalg.adjugate(m)
        assert det == sympy_det(m)
        assert adj == sympy.Matrix(m).adjugate().tolist()
    # a zero leading pivot forces a row swap, which flips the sign
    assert linalg.adjugate([[0, 1], [1, 0]]) == ([[0, -1], [-1, 0]], -1)
