from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from qurel import states
from qurel.errors import ConvergenceError, DimensionError, QurelError, ValidationError
from qurel.linalg import SIGMA_X, Checks
from qurel.measurements import Observable, projective_decompositions
from qurel.model import ModelParams, T_MIN, _gibbs_eigensystems, thermal_state
from qurel.relations import xz_control_setup
from qurel.states import (
    DensityOperator,
    check_density,
    concurrence_batch,
    concurrence_two_qubit,
    mixedness,
    von_neumann_entropy,
)
from qurel.sweep import evaluate_point

from helpers import (
    GRID,
    bell_state,
    concurrence_oracle,
    count_solver_calls,
    pure_state,
    random_density,
    random_pauli_rotation_unitary,
    thermal_elements,
    unchecked_density,
)

# frozen reference values at (d, j, t) = (1, 1, 1), computed from the
# analytic matrix elements independently of the package
GAMMA_REF = 0.334794709384799
CONCURRENCE_REF = 0.615533622840201
ENTROPY_REF = 1.006063249014958


class TestDensityOperator:
    def test_accepts_valid_state(self):
        rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
        assert rho.matrix.shape == (4, 4)
        assert rho.dims == (2, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(4) / 2.0, (2, 2))

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityOperator(m, (2,))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry_as_non_hermitian(self, value):
        """The Hermiticity check runs before the spectrum is read, so a
        non-finite entry never reaches the eigensolver."""
        m = np.eye(4, dtype=complex) / 4.0
        m[2, 1] = value
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityOperator(m, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionError):
            DensityOperator(np.eye(4) / 4.0, (2, 3))

    def test_matrix_is_frozen(self):
        rho = DensityOperator(np.eye(2) / 2.0, (2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_stored_decomposition_is_eighs_and_read_only(self):
        """Construction keeps np.linalg.eigh's decomposition of the matrix:
        read-only, and outside == and repr."""
        rng = np.random.default_rng(64)
        for dims in [(2,), (2, 2), (2, 3), (2, 2, 2, 2)]:
            rho = random_density(rng, dims)
            w, v = np.linalg.eigh(rho.matrix)
            assert np.array_equal(rho.eigenvalues, w) and np.array_equal(rho.eigenvectors, v)
            rebuilt = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-12
            with pytest.raises(ValueError):
                rho.eigenvalues[0] = 1.0
            with pytest.raises(ValueError):
                rho.eigenvectors[0, 0] = 1.0
            with pytest.raises(FrozenInstanceError):
                rho.eigenvalues = w
            assert repr(rho) == f"DensityOperator(matrix={rho.matrix!r}, dims={rho.dims!r})"
            assert rho == rho
            assert rho != DensityOperator(rho.matrix, rho.dims)
        assert [f.name for f in fields(DensityOperator) if f.init] == ["matrix", "dims"]

    def test_thermal_state_keeps_its_closed_form_decomposition(self, monkeypatch):
        """A thermal state carries the decomposition of the model's kernel,
        read-only like eigh's, and is built with no solver call; the
        private constructor behind it checks the dims."""
        calls = count_solver_calls(monkeypatch)
        p = ModelParams(0.5, -2.0, 0.3)
        rho = thermal_state(p)
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
        m, w, v = _gibbs_eigensystems(*(np.array([x]) for x in (p.d, p.j, p.t)), Checks(1))
        assert np.array_equal(rho.eigenvalues, w[0]) and np.array_equal(rho.eigenvectors, v[0])
        assert np.array_equal(rho.matrix, m[0]) and rho.dims == (2, 2)
        for array in (rho.matrix, rho.eigenvalues, rho.eigenvectors):
            with pytest.raises(ValueError):
                array[0] = 1.0
        eye = np.eye(4, dtype=complex)
        with pytest.raises(DimensionError):
            DensityOperator._decomposed(np.eye(4) / 4.0, (2, 3), np.full(4, 0.25), eye)

    def test_only_a_general_state_runs_the_density_checks(self, monkeypatch):
        """A general state is checked once as it is built; a thermal state,
        valid by construction (``TestExtremeInputs`` in test_model), is not
        re-checked."""
        calls = []

        def counting(*args):
            calls.append(args)
            check_density(*args)

        monkeypatch.setattr(states, "check_density", counting)
        thermal_state(ModelParams(0.5, -2.0, 0.3))
        assert len(calls) == 0
        DensityOperator(np.eye(4) / 4.0, (2, 2))
        assert len(calls) == 1

    def test_solver_failure_raises_convergence_error(self, monkeypatch):
        """A state the eigensolver rejects raises ConvergenceError, a
        QurelError (CLI exit code 2), not numpy's LinAlgError."""
        def rejects(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", rejects)
        monkeypatch.setattr(np.linalg, "eigvalsh", rejects)
        with pytest.raises(ConvergenceError, match="eigensolver failed") as info:
            DensityOperator(np.eye(4) / 4.0, (2, 2))
        assert isinstance(info.value, QurelError)

    def test_dims_are_checked_before_the_solver_runs(self, monkeypatch):
        """Wrong dims raise DimensionError (or ValidationError for a dim
        below 2) even where the eigensolver would reject the matrix: the
        dims are checked first."""
        def rejects(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", rejects)
        with pytest.raises(DimensionError, match="do not multiply"):
            DensityOperator(np.eye(4) / 4.0, (2, 3))
        with pytest.raises(ValidationError, match="must be >= 2"):
            DensityOperator(np.eye(4) / 4.0, (4, 1))
        with pytest.raises(ConvergenceError):
            DensityOperator(np.eye(4) / 4.0, (2, 2))

    def test_reduced_bell_is_maximally_mixed(self):
        rho = bell_state().reduced(0)
        assert np.allclose(rho.matrix, np.eye(2) / 2.0)


def test_check_density_flags_each_failed_point_of_a_stack():
    """On a stack, check_density flags exactly the points that fail a
    check, each with the error of the first check it fails; a point that
    fails two checks keeps the first one's message."""
    m = np.array([np.diag([0.5, 0.5]),                # passes
                  [[0.5, 0.1], [0.3, 0.5]],           # not Hermitian
                  np.diag([0.6, 0.6]),                # trace 1.2
                  np.diag([1.1, -0.1]),               # negative eigenvalue
                  np.diag([1.3, -0.1])], dtype=complex)  # trace and eigenvalue
    checks = Checks(len(m))
    check_density(m, np.linalg.eigvalsh(m), checks)
    assert checks.failed.tolist() == [False, True, True, True, True]
    messages = {i: str(error) for i, error in checks.errors.items()}
    assert sorted(messages) == [1, 2, 3, 4]
    assert messages[1] == "density matrix is not Hermitian to 1e-10"
    assert messages[2].startswith("trace is (1.2") and messages[2].endswith(", not 1")
    assert messages[3] == "density matrix has a negative eigenvalue"
    assert messages[4].startswith("trace is (1.2") and messages[4].endswith(", not 1")
    assert all(type(error) is ValidationError for error in checks.errors.values())


class TestMixedness:
    def test_pure_state_is_zero(self):
        rho = pure_state([1, 2j, 0, 1], (2, 2))
        assert abs(mixedness(rho)) <= 1e-10

    def test_maximally_mixed_two_qubit(self):
        assert np.isclose(mixedness(DensityOperator(np.eye(4) / 4.0, (2, 2))), 0.75)

    def test_thermal_reference_point(self):
        got = mixedness(thermal_state(ModelParams(1.0, 1.0, 1.0)))
        assert abs(got - GAMMA_REF) <= 1e-12
        # direct Tr(rho^2) from the analytic elements
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        purity = (2 * r11 ** 2 + 2 * r22 ** 2 + 2 * abs(r23) ** 2) / z ** 2
        assert abs(got - (1.0 - purity)) <= 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            u = random_pauli_rotation_unitary(rng, 2)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(mixedness(rho) - mixedness(rotated)) <= 1e-12


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(bell_state()) <= 1e-12

    def test_maximally_mixed_two_qubit(self):
        assert np.isclose(von_neumann_entropy(DensityOperator(np.eye(4) / 4.0, (2, 2))), 2.0)

    def test_thermal_reference_point(self):
        """Analytic spectrum: {e^{-1/2}/Z x2, e^{(1 +- 2 sqrt 2)/2}/Z}."""
        lam = np.array([np.exp(-0.5), np.exp(-0.5),
                        np.exp((1 - 2 * np.sqrt(2)) / 2), np.exp((1 + 2 * np.sqrt(2)) / 2)])
        lam /= lam.sum()
        expected = float(-(lam * np.log2(lam)).sum())
        got = von_neumann_entropy(thermal_state(ModelParams(1.0, 1.0, 1.0)))
        assert abs(got - expected) <= 1e-12
        assert abs(got - ENTROPY_REF) <= 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            u = random_pauli_rotation_unitary(rng, 2)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) <= 1e-10


class TestConcurrence:
    def test_product_pure_state_is_zero(self):
        rho = pure_state(np.kron([1, 1j], [2, 1]), (2, 2))
        assert concurrence_two_qubit(rho) <= 1e-12

    def test_bell_state_is_one(self):
        assert np.isclose(concurrence_two_qubit(bell_state()), 1.0, atol=1e-12)

    def test_thermal_reference_point(self):
        got = concurrence_two_qubit(thermal_state(ModelParams(1.0, 1.0, 1.0)))
        assert abs(got - CONCURRENCE_REF) <= 1e-12
        # X-state oracle: 2 max(|r23| - sqrt(r11 r44), 0) / Z
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        assert abs(got - 2.0 * max(abs(r23) - r11, 0.0) / z) <= 1e-12

    def test_swap_symmetry(self):
        """Concurrence cannot depend on which qubit is listed first."""
        rng = np.random.default_rng(63)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            swapped = DensityOperator(swap @ rho.matrix @ swap, (2, 2))
            assert abs(concurrence_two_qubit(rho) - concurrence_two_qubit(swapped)) <= 1e-10

    def test_rejects_wrong_dims(self):
        with pytest.raises(DimensionError):
            concurrence_two_qubit(DensityOperator(np.eye(8) / 8.0, (2, 2, 2)))

    def test_matches_square_root_oracle_on_random_states(self):
        """The eigenbasis route equals the singular values of
        sqrt(rho) Y sqrt(rho)^T within 1e-12 on random states of rank 1 to
        4, through the single-state function and as one stack."""
        rng = np.random.default_rng(65)
        states = []
        for rank in (1, 2, 3, 4) * 10:
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            m = g @ g.conj().T
            states.append(DensityOperator(m / np.trace(m).real, (2, 2)))
        batch = concurrence_batch(np.array([rho.eigenvalues for rho in states]),
                                  np.array([rho.eigenvectors for rho in states]))
        assert np.count_nonzero(batch) > 10 and np.count_nonzero(batch == 0.0) > 3
        for rho, c in zip(states, batch):
            expected = concurrence_oracle(rho.matrix)
            assert abs(concurrence_two_qubit(rho) - expected) <= 1e-12
            assert abs(c - expected) <= 1e-12

    def test_matches_closed_form_on_both_sides_of_zero(self):
        """Thermal points at d in {0, 0.5, 3} and both signs of j, entangled
        and separable, agree with closed_form_concurrence within 1e-10."""
        from qurel.model import closed_form_concurrence
        values = []
        for d in (0.0, 0.5, 3.0):
            for j in (1.0, -1.0):
                for t in np.geomspace(T_MIN, 20.0, 25):
                    p = ModelParams(d, j, float(t))
                    got = concurrence_two_qubit(thermal_state(p))
                    assert abs(got - closed_form_concurrence(p)) <= 1e-10, p
                    values.append(closed_form_concurrence(p))
        assert min(values) == 0.0 and max(values) > 0.9

    def test_unchecked_constructor_reaches_functionals(self):
        """The unchecked path exists for oracles: a state built without
        validation still produces the same functional values as the
        validated constructor, which decomposes the same matrix by eigh."""
        rho = DensityOperator(thermal_state(ModelParams(1.0, 1.0, 1.0)).matrix, (2, 2))
        raw = unchecked_density(rho.matrix.copy(), (2, 2))
        assert mixedness(raw) == mixedness(rho)
        assert concurrence_two_qubit(raw) == concurrence_two_qubit(rho)


def test_thermal_concurrence_matches_closed_form_on_grid():
    from qurel.model import closed_form_concurrence
    for d, j, t in GRID:
        p = ModelParams(d, j, t)
        assert abs(concurrence_two_qubit(thermal_state(p)) - closed_form_concurrence(p)) <= 1e-10


def test_single_state_functionals_equal_the_sweeps_on_thermal_grid():
    """concurrence_two_qubit on a thermal DensityOperator reads the same
    decomposition as the sweep, so it equals evaluate_point's column bit
    for bit. The sweep's entropic columns are closed forms in the Gibbs
    weights, and qm_eur reads the state's memory blocks: each meets the
    50-digit oracle on its own (tests/test_oracle.py)."""
    setup = xz_control_setup()
    for d in (0.0, 0.5, 1.0, 3.0):
        for j in (0.5, -0.5, 1.0, 2.0, -2.0):
            for t in (T_MIN, 0.05, 0.3, 1.0, 5.0, 100.0):
                p = ModelParams(d, j, t)
                assert concurrence_two_qubit(thermal_state(p)) == \
                    evaluate_point(p, setup).concurrence, p


@pytest.mark.parametrize("make", [
    lambda: Observable(SIGMA_X, 0),
    lambda: projective_decompositions([Observable(SIGMA_X, 0)])[0],
    lambda: DensityOperator(np.eye(4) / 4.0, (2, 2)),
    lambda: xz_control_setup(),
], ids=["Observable", "ProjectiveDecomposition", "DensityOperator", "MeasurementSetup"])
def test_classes_with_array_fields_compare_and_hash_by_identity(make):
    """Two equal-valued instances compare unequal without raising (a
    generated == would compare arrays), and hash works."""
    x, y = make(), make()
    assert x == x and not x == y and x != y
    assert hash(x) == hash(x)
    assert len({x, y, x}) == 2
