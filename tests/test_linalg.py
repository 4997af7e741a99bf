import random
from fractions import Fraction

import pytest
from reference_exact import reference_invert, reference_rank, reference_rref

from coloredfans import linalg
from coloredfans.linalg import dot, identity, invert, mat, matmul, matvec, rank, rref, vec


def test_rref_and_rank():
    rows, pivots = rref([vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])])
    assert pivots == (0, 1)
    assert rank([vec([1, 2, 3]), vec([2, 4, 6])]) == 1
    assert rank([]) == 0


def test_invert_roundtrip():
    m = mat([[1, 2], [3, 5]])
    inv = invert(m)
    assert matmul(m, inv) == identity(2)
    assert invert(mat([[1, 2], [2, 4]])) is None


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
        lambda: rref([vec([1, 2]), vec([3])]),
        lambda: invert(((1, 2), (3,))),
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
    rng = random.Random(5303)
    ranks = set()
    singular = 0
    for _ in range(400):
        ncols = rng.randint(1, 6)
        m = random_rational_matrix(rng, rng.randint(0, 7), ncols)
        assert repr(rref(m)) == repr(reference_rref(m))
        assert rank(m) == reference_rank(m)
        ranks.add(rank(m))
        square = tuple(random_rational_matrix(rng, ncols, ncols))
        inverse = invert(square)
        assert repr(inverse) == repr(reference_invert(square))
        singular += inverse is None
    assert ranks == set(range(7))
    assert 20 < singular < 380


def test_rank_builds_no_fraction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("rank built a Fraction")

    rows = [vec([Fraction(1, 2), 3, 0]), (1, 6, 0), vec([0, Fraction(-2, 3), 5])]
    monkeypatch.setattr(linalg, "Fraction", forbidden)
    assert rank(rows) == 2
