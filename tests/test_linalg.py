import itertools
import math

import numpy as np
import pytest

from qurel.errors import ConvergenceError, DimensionError, ValidationError
from qurel.linalg import (
    I2,
    Checks,
    eigh,
    eigvalsh_2x2,
    is_hermitian,
    partial_trace,
    spectral_2x2,
    trace_product,
)

from helpers import random_density, random_hermitian, thermal_matrix


def loop_partial_trace(m, dims, keep):
    """Oracle: the (dims, dims) tensor summed over every index tuple of the
    traced subsystems, one slice at a time in lexicographic order."""
    n = len(dims)
    tensor = m.reshape(m.shape[:-2] + tuple(dims) + tuple(dims))
    traced = [s for s in range(n) if s not in keep]
    total = None
    for index in itertools.product(*(range(dims[s]) for s in traced)):
        where = [slice(None)] * (2 * n)
        for s, i in zip(traced, index):
            where[s] = where[n + s] = i
        term = tensor[(Ellipsis, *where)]
        total = term if total is None else total + term
    d_kept = math.prod(dims[s] for s in keep)
    return total.reshape(m.shape[:-2] + (d_kept, d_kept))


def states_and_stack(rng, dims):
    """One random state and a stack of 5 over ``dims``."""
    return (random_density(rng, dims).matrix,
            np.array([random_density(rng, dims).matrix for _ in range(5)]))


def every_keep(n):
    return [keep for r in range(1, n + 1) for keep in itertools.combinations(range(n), r)]


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        b = b / np.trace(b).real  # unit trace on the discarded factor
        assert np.allclose(partial_trace(np.kron(a, b), (2, 2), (0,)), a)

    def test_bell_marginals_are_maximally_mixed(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        for keep in (0, 1):
            assert np.allclose(partial_trace(rho, (2, 2), (keep,)), I2 / 2)

    def test_thermal_marginals_forced_to_identity(self):
        """The equal-diagonal structure of the thermal state pins both
        marginals at I/2; the oracle sums diagonal blocks directly."""
        for d, j, t in [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, -2.0, 0.5)]:
            m = thermal_matrix(d, j, t)
            blockwise = np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                                  [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]])
            got = partial_trace(m, (2, 2), (0,))
            assert np.max(np.abs(got - blockwise)) <= 1e-15
            assert np.max(np.abs(got - I2 / 2)) <= 1e-12
            assert np.max(np.abs(partial_trace(m, (2, 2), (1,)) - I2 / 2)) <= 1e-12

    def test_sequential_reduction_preserves_scalar_trace(self):
        rng = np.random.default_rng(22)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        m = np.kron(np.kron(a, b), c)
        step = partial_trace(m, (2, 2, 2), (0, 2))
        step = partial_trace(step, (2, 2), (0,))
        assert np.allclose(np.trace(step), np.trace(m))

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 8)
        kept = partial_trace(m, (2, 2, 2), (1,))
        assert abs(np.trace(kept) - np.trace(m)) <= 1e-12

    def test_matches_loop_oracle(self):
        """Every nonempty keep of three and four subsystems, on one matrix
        and on a stack, to 1e-15."""
        rng = np.random.default_rng(24)
        for dims in [(2, 3, 2), (2, 2, 2, 2)]:
            for m in states_and_stack(rng, dims):
                for keep in every_keep(len(dims)):
                    got = partial_trace(m, dims, keep)
                    expected = loop_partial_trace(m, dims, keep)
                    assert got.shape == expected.shape, (dims, keep)
                    assert np.max(np.abs(got - expected)) <= 1e-15, (dims, keep)

    def test_two_subsystems_equal_loop_oracle_bit_for_bit(self):
        """A two-subsystem reduction sums its traced slices in the oracle's
        order, so the sweeps' two-qubit reductions keep their bytes."""
        rng = np.random.default_rng(25)
        for dims in [(2, 2), (2, 3), (3, 2), (4, 4)]:
            for m in states_and_stack(rng, dims):
                for keep in every_keep(2):
                    assert np.array_equal(partial_trace(m, dims, keep),
                                          loop_partial_trace(m, dims, keep)), (dims, keep)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 3), (0,))
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 2), ())


def test_is_hermitian_tolerance():
    m = np.array([[1.0, 1e-12j], [0.0, 1.0]])
    assert is_hermitian(m)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_product_matches_matmul_trace():
    rng = np.random.default_rng(51)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert np.isclose(trace_product(a, b), np.trace(a @ b))


class TestChecks:
    def test_keeps_each_points_first_error(self):
        checks = Checks(3)
        checks.require(np.array([True, False, True]), lambda i: ValidationError(f"first {i}"))
        checks.require(np.array([False, False, True]), lambda i: ValidationError(f"second {i}"))
        assert {i: str(e) for i, e in checks.errors.items()} == {0: "second 0", 1: "first 1"}
        assert checks.failed.tolist() == [True, True, False]

    def test_raise_first_raises_the_lowest_index_error(self):
        checks = Checks(3)
        checks.raise_first()  # nothing failed
        checks.require(np.array([True, True, False]), lambda i: ValidationError(f"late {i}"))
        checks.require(np.array([True, False, True]), lambda i: DimensionError(f"early {i}"))
        with pytest.raises(DimensionError, match="^early 1$"):
            checks.raise_first()


def test_eigh_raises_convergence_error_only_for_the_matrix_the_solver_rejects(monkeypatch):
    """A matrix the solver rejects raises ConvergenceError, a QurelError
    (CLI exit code 2), not numpy's LinAlgError; every other one gets
    exactly np.linalg.eigh's arrays."""
    rng = np.random.default_rng(52)
    matrices = [random_hermitian(rng, 3) for _ in range(4)]
    sentinel = matrices[2].copy()
    solver = np.linalg.eigh

    def rejects_sentinel(m, *args, **kwargs):
        if np.array_equal(m, sentinel):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", rejects_sentinel)
    with pytest.raises(ConvergenceError, match="^eigensolver failed: Eigenvalues did not converge$"):
        eigh(sentinel)
    for i in (0, 1, 3):
        w, v = eigh(matrices[i])
        expected_w, expected_v = solver(matrices[i])
        assert np.array_equal(w, expected_w) and np.array_equal(v, expected_v)


def qubit_hermitians():
    """Seeded 2 x 2 Hermitians at scales 1e-8 to 1e8, plus diagonal and
    off-diagonal-only ones."""
    rng = np.random.default_rng(53)
    matrices = [scale * random_hermitian(rng, 2)
                for scale in 10.0 ** np.arange(-8, 9) for _ in range(4)]
    matrices += [np.diag([2.0, -3.0]), np.diag([1e8, -1e-8]), np.diag([-1e-8, 1e-8]),
                 np.array([[0.0, 1.0 - 2.0j], [1.0 + 2.0j, 0.0]]),
                 np.array([[0.0, 1e8j], [-1e8j, 0.0]]), np.array([[0.0, 1e-8], [1e-8, 0.0]])]
    return np.array(matrices, dtype=complex)


class TestSpectral2x2:
    """The closed-form qubit spectrum against LAPACK: eigenvalues within a
    few ulps of the matrix norm, projectors exactly Hermitian and, to
    rounding, idempotent, complete and orthogonal."""

    ULPS = 4 * np.finfo(float).eps

    def test_eigenvalues_match_eigvalsh_within_ulps_of_the_norm(self):
        h = qubit_hermitians()
        mean, radius, _ = spectral_2x2(h)
        w = np.stack([mean - radius, mean + radius], axis=-1)
        assert np.array_equal(w, eigvalsh_2x2(h))
        norm = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
        assert np.all(np.abs(w - np.linalg.eigvalsh(h)) <= self.ULPS * norm[:, None])

    def test_projectors_are_exact_hermitian_spectral_projectors(self):
        h = qubit_hermitians()
        mean, radius, p = spectral_2x2(h)
        assert p.shape == (len(h), 2, 2, 2)
        assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
        tol = self.ULPS * 4
        assert np.max(np.abs(p @ p - p)) <= tol
        assert np.max(np.abs(p[:, 0] + p[:, 1] - I2)) <= tol
        assert np.max(np.abs(p[:, 0] @ p[:, 1])) <= tol
        rebuilt = (mean - radius)[:, None, None] * p[:, 0] + (mean + radius)[:, None, None] * p[:, 1]
        norm = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
        assert np.all(np.max(np.abs(rebuilt - h), axis=(-2, -1)) <= tol * norm)
        _, v = np.linalg.eigh(h)
        oracle = v.swapaxes(-1, -2)[..., :, None] * v.swapaxes(-1, -2)[..., None, :].conj()
        assert np.max(np.abs(p - oracle)) <= 1e-14

    def test_reads_the_diagonal_and_upper_entry_only(self):
        h = qubit_hermitians()
        garbled = h.copy()
        garbled[:, 1, 0] = np.nan
        for exact, read in zip(spectral_2x2(h), spectral_2x2(garbled)):
            assert np.array_equal(exact, read)

    def test_multiple_of_identity_has_zero_radius(self):
        for c in (0.0, 1.0, -3.5e7):
            mean, radius, p = spectral_2x2(c * I2[None])
            assert mean.tolist() == [c] and radius.tolist() == [0.0]
            assert np.array_equal(p[0], np.array([I2, I2]) / 2.0)
