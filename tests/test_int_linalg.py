import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mordell.errors import InputError
from mordell.intlinalg import (
    ZLattice,
    kernel_basis,
    row_echelon_lattice_basis,
    smith_normal_form,
)

from .oracles import determinant, mat_mul, naive_invariant_factors


def _diag(mat):
    return [mat[i][i] for i in range(min(len(mat), len(mat[0]) if mat else 0))]


def _nonzero_diagonal(mat):
    """The invariant factors: the nonzero diagonal of the Smith form."""
    _, d, _ = smith_normal_form(mat)
    return [x for x in _diag(d) if x]


def test_snf_fixed_examples():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert _diag(d) == [1, 6]
    _, d, _ = smith_normal_form([[1, 2]])
    assert d == [[1, 0]]
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert _diag(d) == [0, 0]


def test_snf_transforms_and_chain():
    rng = random.Random(20240311)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = _diag(d)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # off-diagonal must vanish
        for i, row in enumerate(d):
            for j, entry in enumerate(row):
                if i != j:
                    assert entry == 0
        nonzero = [x for x in diag if x]
        assert nonzero == naive_invariant_factors(mat)


def test_invariant_factors_match_oracle():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert _nonzero_diagonal(mat) == naive_invariant_factors(mat)


def test_oracles_reject_misshapen_matrices():
    # c7 and the transform checks above rely on these guards: a U or V with
    # a surplus column must not pass as a product or a determinant
    with pytest.raises(AssertionError):
        mat_mul([[1, 0, 5]], [[1], [0]])
    with pytest.raises(AssertionError):
        mat_mul([[1, 0]], [[1, 0], [0]])
    with pytest.raises(AssertionError):
        determinant([[1, 0, 7], [0, 1, 0]])
    with pytest.raises(AssertionError):
        determinant([[1, 0], [0, 1, 4]])


def test_determinant_small_cases():
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    rng = random.Random(99)
    for _ in range(30):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        brute = sum(
            sign * m[0][p[0]] * m[1][p[1]] * m[2][p[2]]
            for p, sign in [
                ((0, 1, 2), 1),
                ((1, 2, 0), 1),
                ((2, 0, 1), 1),
                ((2, 1, 0), -1),
                ((1, 0, 2), -1),
                ((0, 2, 1), -1),
            ]
        )
        assert determinant(m) == brute


def test_kernel_basis_examples():
    # no constraints: the full integer lattice
    assert kernel_basis([], width=2) == [[1, 0], [0, 1]]
    # x = y diagonal
    basis = kernel_basis([[1, -1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0
    # injective map has trivial kernel
    assert kernel_basis([[2]]) == []


def test_kernel_vectors_annihilate():
    rng = random.Random(4242)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        for v in kernel_basis(mat):
            assert all(
                sum(mat[i][j] * v[j] for j in range(cols)) == 0 for i in range(rows)
            )


def test_row_echelon_lattice_basis_spans_inputs():
    vectors = [[2, 0, 1], [0, 4, 0], [2, 4, 1]]
    basis = row_echelon_lattice_basis(vectors, 3)
    lat = ZLattice(3, basis)
    for v in vectors:
        assert v in lat


def test_zlattice_membership():
    lat = ZLattice(2, [[2, 0], [0, 3]])
    assert [2, 3] in lat
    assert [4, -3] in lat
    assert [1, 0] not in lat
    assert [0, 0] in lat
    lat.add_vector([1, 0])
    assert [1, 0] in lat
    assert lat.rank == 2


def test_zlattice_copy_is_independent():
    lat = ZLattice(2, [[2, 0]])
    other = lat.copy()
    other.add_vector([0, 1])
    assert [0, 1] in other
    assert [0, 1] not in lat


@st.composite
def _lattice_coset_window(draw):
    dim = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    gens = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=dim))
    radius = draw(st.integers(0, 6))
    coord = st.integers(-radius, radius)
    anchor = draw(st.lists(coord, min_size=dim, max_size=dim))
    return ZLattice(dim, gens), tuple(anchor), radius


@settings(max_examples=150, deadline=None)
@given(_lattice_coset_window())
def test_coset_points_match_filtered_window_scan(case):
    lat, anchor, radius = case
    window = itertools.product(range(-radius, radius + 1), repeat=lat.dim)
    expect = [w for w in window if [a - b for a, b in zip(w, anchor)] in lat]
    assert list(lat.coset_points(anchor, radius)) == expect


def test_coset_points_examples():
    lat = ZLattice(2, [[2, 1]])
    assert list(lat.coset_points((0, 0), 2)) == [(-2, -1), (0, 0), (2, 1)]
    # the first column is fixed by the anchor and leaves the window
    assert list(ZLattice(2, [[0, 1]]).coset_points((3, 0), 2)) == []
    assert list(ZLattice(2).coset_points((1, -1), 1)) == [(1, -1)]
    with pytest.raises(InputError):
        list(lat.coset_points((0,), 2))


@pytest.mark.parametrize("mat", [[[2, 4], [0, 6]], [[6, 0], [0, 10]], [[1, 1], [1, 1]]])
def test_snf_agrees_with_oracle_on_structured_inputs(mat):
    assert _nonzero_diagonal(mat) == naive_invariant_factors(mat)
