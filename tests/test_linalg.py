import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from reference_exact import reference_invert, reference_rank

from coloredfans import linalg
from coloredfans.linalg import _scaled_inverse, dot, identity, mat, matmul, matvec, rank, vec


def test_rank():
    assert rank([vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])]) == 2
    assert rank([vec([1, 2, 3]), vec([2, 4, 6])]) == 1
    assert rank([]) == 0


def test_scaled_inverse_roundtrip():
    m = ((1, 2), (3, 5))
    inverse, d = _scaled_inverse(m)
    assert d == 1 and matmul(m, inverse) == identity(2)
    assert _scaled_inverse(((2, 0), (0, 1))) == ([(1, 0), (0, 2)], 2)
    assert _scaled_inverse(((1, 2), (2, 4))) is None


def test_matmul_and_identity_keep_ints():
    a = ((1, 2), (3, 5))
    assert matmul(a, identity(2)) == a
    assert all(type(x) is int for m in (matmul(a, a), identity(3)) for row in m for x in row)
    product = matmul(mat(a), a)
    assert product == matmul(a, a)
    assert all(type(x) is Fraction for row in product for x in row)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        matmul(a, identity(3))


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(vec([1, 2]), vec([1, 2, 3]))


def test_matvec():
    assert matvec(mat([[0, 1], [1, 0]]), vec([2, 3])) == vec([3, 2])


@pytest.mark.parametrize(
    "call",
    [
        lambda: rank([(3,), (1, 2)]),
        lambda: mat([[1, 2], [3]]),
        lambda: matmul(((1, 2), (3,)), identity(2)),
    ],
)
def test_ragged_rows_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def random_rational_matrix(rng: random.Random, nrows: int, ncols: int) -> list[tuple]:
    """Rational rows with zero entries, zero rows and repeated directions."""
    rows: list[tuple] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append((Fraction(0),) * ncols)
        elif rows and kind < 0.3:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            rows.append(tuple(c * x for x in rng.choice(rows)))
        else:
            rows.append(tuple(
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.7 else Fraction(0)
                for _ in range(ncols)
            ))
    return rows


def test_elimination_matches_fraction_reference():
    """``rank`` and ``_scaled_inverse``, the inverse routine behind
    ``validate_action`` and ``Cone.image``, against Fraction elimination."""
    rng = random.Random(5303)
    ranks = set()
    singular = 0
    for _ in range(400):
        ncols = rng.randint(1, 6)
        m = random_rational_matrix(rng, rng.randint(0, 7), ncols)
        assert rank(m) == reference_rank(m)
        ranks.add(rank(m))
        square = random_rational_matrix(rng, ncols, ncols)
        c = lcm(*(x.denominator for row in square for x in row))
        integral = [[int(x * c) for x in row] for row in square]
        expected = reference_invert(integral)
        scaled = _scaled_inverse(integral)
        assert (scaled is None) == (expected is None)
        if scaled is not None:
            inverse, d = scaled
            # d is the least positive scale that makes the inverse integral
            assert d > 0 and gcd(d, *(x for row in inverse for x in row)) == 1
            assert tuple(tuple(Fraction(x, d) for x in row) for row in inverse) == expected
        singular += scaled is None
    assert ranks == set(range(7))
    assert 20 < singular < 380


def test_rank_builds_no_fraction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("rank built a Fraction")

    rows = [vec([Fraction(1, 2), 3, 0]), (1, 6, 0), vec([0, Fraction(-2, 3), 5])]
    monkeypatch.setattr(linalg, "Fraction", forbidden)
    assert rank(rows) == 2
