import numpy as np
import pytest
from scipy.optimize import linprog

from tdopt.simplex import _pivot, feasible_basis, lp_solve_max_coordinate

from conftest import same_bits


def max_coordinate(a, b, j):
    return lp_solve_max_coordinate(feasible_basis(a, b), j)


class TestMaxCoordinate:
    def test_plain_simplex_gives_point_mass(self):
        x = max_coordinate(np.ones((1, 4)), [1.0], 0)
        assert np.allclose(x, [1, 0, 0, 0], atol=1e-12)

    def test_bsc_output_pinning(self):
        # p0*0.89 + p1*0.11 = 0.5 and p0 + p1 = 1 force p0 = 0.5.
        a = np.array([[0.89, 0.11], [0.11, 0.89], [1.0, 1.0]])
        b = np.array([0.5, 0.5, 1.0])
        assert max_coordinate(a, b, 0)[0] == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_status(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        assert feasible_basis(a, b) is None

    def test_redundant_rows_tolerated(self):
        # Second row is the first row doubled.
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0]])
        b = np.array([1.0, 2.0, 0.25])
        rows, basis = feasible_basis(a, b)
        assert (basis == -1).sum() == 1
        assert not rows[basis == -1].any()
        assert max_coordinate(a, b, 1)[1] == pytest.approx(0.75, abs=1e-9)

    def test_nonbasic_zeros_are_exact(self):
        x = max_coordinate(np.ones((1, 5)), [1.0], 2)
        assert sorted(x)[:4] == [0.0, 0.0, 0.0, 0.0]

    def test_shared_basis_is_not_mutated(self):
        a = np.array([[0.5, 0.0, 1.0], [0.5, 1.0, 0.0], [1.0, 1.0, 1.0]])
        b = np.array([0.25, 0.75, 1.0])
        feasible = feasible_basis(a, b)
        rows, basis = feasible[0].copy(), feasible[1].copy()
        first = [lp_solve_max_coordinate(feasible, j) for j in range(3)]
        assert np.array_equal(feasible[0], rows) and np.array_equal(feasible[1], basis)
        again = [lp_solve_max_coordinate(feasible, j) for j in range(3)]
        assert all(np.array_equal(u, v) for u, v in zip(first, again))


class TestAgainstScipy:
    def test_random_equality_programs(self):
        # faces of the probability simplex, as the support union poses them:
        # nonnegative rows plus a ones row, b from a random point on the simplex
        rng = np.random.default_rng(2024)
        for _ in range(50):
            m, n = rng.integers(1, 5), rng.integers(2, 8)
            rows = rng.uniform(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.7)
            a = np.vstack([rows, np.ones(n)])
            point = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) < 0.6)
            point = point / point.sum() if point.any() else np.eye(n)[0]
            b = a @ point
            feasible = feasible_basis(a, b)
            assert feasible is not None
            for j in range(n):
                x = lp_solve_max_coordinate(feasible, j)
                c = np.zeros(n)
                c[j] = -1.0
                ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
                assert ref.success
                assert x[j] == pytest.approx(-ref.fun, abs=1e-7)
                assert np.allclose(a @ x, b, atol=1e-7)
                assert x.min() >= 0.0

    def test_random_infeasible_detected(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = rng.integers(2, 5)
            a = np.vstack([np.ones(n), np.ones(n)])
            b = np.array([1.0, 1.0 + rng.uniform(0.5, 2.0)])
            assert feasible_basis(a, b) is None


def loop_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def test_pivot_matches_row_loop_bit_for_bit():
    # sparse tableaux with signed zeros: rows with a zero pivot-column entry
    # must keep every bit, -0.0 included
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = rng.integers(2, 7), rng.integers(2, 9)
        tab = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.5)
        tab[rng.uniform(size=(m, n)) < 0.1] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(n))
        tab[row, col] = rng.uniform(0.5, 2.0)
        a, b = tab.copy(), tab.copy()
        basis_a, basis_b = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
        _pivot(a, basis_a, row, col)
        loop_pivot(b, basis_b, row, col)
        assert same_bits(a, b) and np.array_equal(basis_a, basis_b)
