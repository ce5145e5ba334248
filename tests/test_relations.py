import math

import numpy as np
import pytest

from qurel.errors import (ArgumentError, ConvergenceError, DegenerateOperator, DegeneracyError,
                          DimensionError, QurelError, SubsystemError, ValidationError)
from qurel import linalg, measurements
from qurel.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, Checks
from qurel.measurements import (
    Observable,
    sequential_decomposition,
    variance,
)
from qurel.model import ModelParams, T_MIN, thermal_state
from qurel import relations
from qurel.relations import (
    MeasurementSetup,
    l_tra,
    l_tra_operators,
    qc_vur,
    qc_vur_batch,
    qm_eur,
    schrodinger_bound,
    vur_plan,
    xz_control_setup,
)
from qurel.states import DensityOperator

from helpers import (
    bell_state,
    count_solver_calls,
    l_tra_oracle,
    pure_state,
    random_density,
    random_hermitian,
    thermal_elements,
)

# frozen reference values at (d, j, t) = (1, 1, 1) under the standard
# setup (q1 = o1 = sx, q2 = o2 = sz, o = sx + sz, theta = 0.5), derived
# from the analytic correlators cxx = 2 Re(rho23)/Z, czz = (2r11 - 2r22)/Z
CXX_REF = -0.5374175239189489
CZZ_REF = -0.7110209437141131
LHS_REF = 1.205631622584718
W_REF = 1.0832141844750907
U_REF = 1.1130131416890086
# entropic side at the same point, from eigenvalue entropies of the
# explicitly dephased matrices
H_RB_REF = 0.529327590978998
H_SB_REF = 0.5958767852136485
H_AB_REF = 0.006063249014958


class TestSchrodingerBound:
    def test_eigenstate_saturates_at_zero(self):
        rho = pure_state([1, 0], (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 0))
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_pauli_pair_on_basis_state_is_tight(self):
        """[sx, sy] = 2i sz gives |<[A,B]>|^2/4 = 1 on |0>, matching
        dA^2 dB^2 = 1 exactly."""
        rho = pure_state([1, 0], (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Y, 0))
        assert np.isclose(lhs, 1.0)
        assert np.isclose(rhs, 1.0)

    def test_maximally_mixed_bound_vanishes(self):
        rho = DensityOperator(I2 / 2.0, (2,))
        lhs, rhs = schrodinger_bound(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Y, 0))
        assert np.isclose(lhs, 1.0)
        assert abs(rhs) <= 1e-12

    def test_holds_on_random_states(self):
        rng = np.random.default_rng(81)
        for _ in range(500):
            rho = random_density(rng, (2,))
            a = Observable(random_hermitian(rng, 2), 0)
            b = Observable(random_hermitian(rng, 2), 0)
            lhs, rhs = schrodinger_bound(rho, a, b)
            assert lhs >= rhs - 1e-10


def maximal_overlap(r, s):
    """Largest squared overlap c of two observables' eigenbases, from the
    overlap term log2(1/c) of ``qm_eur`` on the maximally mixed state."""
    return 2.0 ** -qm_eur(DensityOperator(np.eye(4) / 4.0, (2, 2)), r, s).overlap_bound


class TestMaximalOverlap:
    def test_mutually_unbiased_qubit_bases(self):
        c = maximal_overlap(Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(c, 0.5)
        assert np.isclose(np.log2(1.0 / c), 1.0)

    def test_identical_bases(self):
        c = maximal_overlap(Observable(SIGMA_Z, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(c, 1.0)

    @pytest.mark.parametrize("phi", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_rotated_basis_formula(self, phi):
        """Eigenvectors of cos(phi) sz + sin(phi) sx are the z basis
        rotated by phi/2, so c = max(cos^2, sin^2)(phi/2)."""
        s = Observable(math.cos(phi) * SIGMA_Z + math.sin(phi) * SIGMA_X, 0)
        c = maximal_overlap(Observable(SIGMA_Z, 0), s)
        expected = max(math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2)
        assert abs(c - expected) <= 1e-12

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(DegeneracyError):
            maximal_overlap(Observable(np.eye(2, dtype=complex), 0), Observable(SIGMA_Z, 0))
        with pytest.raises(DegeneracyError):
            qm_eur(bell_state(), Observable(np.eye(2, dtype=complex), 0), Observable(SIGMA_Z, 0))

    def test_rejects_subsystem_mismatch(self):
        with pytest.raises(SubsystemError):
            qm_eur(bell_state(), Observable(SIGMA_X, 0), Observable(SIGMA_Z, 1))

    def test_rejects_dimension_mismatch(self):
        qutrit = Observable(np.diag([1.0, 2.0, 3.0]), 0)
        with pytest.raises(DimensionError, match="operator dim 3 != subsystem dim 2"):
            qm_eur(bell_state(), Observable(SIGMA_X, 0), qutrit)


class TestQmEur:
    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4) / 4.0, (2, 2))
        res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(res.h_rb, 1.0)
        assert np.isclose(res.h_sb, 1.0)
        assert np.isclose(res.h_ab, 1.0)
        assert np.isclose(res.rhs, 2.0)
        assert np.isclose(res.u_eur, 1.0)

    def test_bell_state_denominator_degenerates(self):
        res = qm_eur(bell_state(), Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert np.isclose(res.h_ab, -1.0)
        assert abs(res.rhs) <= 1e-9
        assert res.u_eur is None

    def test_thermal_reference_point(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert abs(res.h_rb - H_RB_REF) <= 1e-12
        assert abs(res.h_sb - H_SB_REF) <= 1e-12
        assert abs(res.h_ab - H_AB_REF) <= 1e-12
        assert res.rhs == res.overlap_bound + res.h_ab
        assert res.h_rb + res.h_sb >= res.rhs - 1e-9

    def test_oracle_dephased_matrices(self):
        """Entropies recomputed from explicitly constructed post-measurement
        matrices (no projector code shared): diagonal-sector surgery at a
        thermal point, then sum_k (P_k x I) rho (P_k x I) built with np.kron
        for seeded random states and observables and for cold thermal
        states (beta |J| = 1000)."""
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0)).matrix
        # measuring sz on the first qubit kills every coherence between the
        # upper and lower 2x2 blocks; here only rho23 dies
        rho_sb = rho.copy()
        rho_sb[1, 2] = rho_sb[2, 1] = 0.0
        # measuring sx: conjugate by Hadamard on qubit 0, dephase, undo
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        hh = np.kron(had, np.eye(2))
        rot = hh @ rho @ hh
        rot[:2, 2:] = 0.0
        rot[2:, :2] = 0.0
        rho_rb = hh @ rot @ hh

        def entropy(m):
            w = np.linalg.eigvalsh(m)
            w = w[w > 1e-14]
            return float(-(w * np.log2(w)).sum())

        h_b = 1.0  # thermal marginal is I/2
        res = qm_eur(thermal_state(ModelParams(1.0, 1.0, 1.0)),
                     Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
        assert abs(res.h_sb - (entropy(rho_sb) - h_b)) <= 1e-10
        assert abs(res.h_rb - (entropy(rho_rb) - h_b)) <= 1e-10

        def dephased(m, obs):
            _, vecs = np.linalg.eigh(obs)
            out = np.zeros_like(m)
            for k in range(2):
                p_full = np.kron(np.outer(vecs[:, k], vecs[:, k].conj()), np.eye(2))
                out += p_full @ m @ p_full
            return out

        rng = np.random.default_rng(83)
        cases = [(random_density(rng, (2, 2)), random_hermitian(rng, 2),
                  random_hermitian(rng, 2)) for _ in range(50)]
        cases += [(thermal_state(ModelParams(d, j, T_MIN)), SIGMA_X, SIGMA_Z)
                  for d in (0.0, 0.5, 1.0, 3.0) for j in (-1.0, 1.0)]
        for state, r, s in cases:
            m = state.matrix
            h_b = entropy(np.einsum("abac->bc", m.reshape(2, 2, 2, 2)))
            res = qm_eur(state, Observable(r, 0), Observable(s, 0))
            assert abs(res.h_rb - (entropy(dephased(m, r)) - h_b)) <= 1e-10
            assert abs(res.h_sb - (entropy(dephased(m, s)) - h_b)) <= 1e-10
            assert abs(res.h_ab - (entropy(m) - h_b)) <= 1e-10

    def test_inequality_on_random_states(self):
        rng = np.random.default_rng(82)
        for _ in range(200):
            rho = random_density(rng, (2, 2))
            res = qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))
            assert res.h_rb + res.h_sb >= res.rhs - 1e-9

    def test_rejects_wrong_subsystem(self):
        rho = bell_state()
        with pytest.raises(SubsystemError):
            qm_eur(rho, Observable(SIGMA_X, 1), Observable(SIGMA_Z, 1))

    def test_rejects_wrong_dims(self):
        rho = DensityOperator(np.eye(8) / 8.0, (2, 2, 2))
        with pytest.raises(DimensionError):
            qm_eur(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0))

    @pytest.mark.parametrize("qutrit_first", [False, True])
    def test_rejects_observable_of_wrong_dimension(self, qutrit_first):
        pair = [Observable(SIGMA_X, 0), Observable(np.diag([1.0, 2.0, 3.0]), 0)]
        if qutrit_first:
            pair.reverse()
        with pytest.raises(DimensionError, match="operator dim 3 != subsystem dim 2"):
            qm_eur(bell_state(), *pair)


class TestLTra:
    def test_zero_variance_case(self):
        rho = pure_state([1, 0], (2,))
        a = b = Observable(SIGMA_Z, 0)
        bound = l_tra(rho, a, b, SIGMA_X + SIGMA_Z, 0.5)
        assert abs(bound) <= 1e-12

    def test_maximally_mixed_reference(self):
        """On I/2 with A = sx, B = sz, O = sx + sz the cross terms vanish
        and the bound is |1 + e^{i theta}|^2 / 2 = 1 + cos(theta)."""
        rho = DensityOperator(I2 / 2.0, (2,))
        a = Observable(SIGMA_X, 0)
        b = Observable(SIGMA_Z, 0)
        got = l_tra(rho, a, b, SIGMA_X + SIGMA_Z, 0.5)
        assert abs(got - (1.0 + math.cos(0.5))) <= 1e-12

    def test_opposite_phase_kills_bound(self):
        rho = DensityOperator(I2 / 2.0, (2,))
        a = Observable(SIGMA_X, 0)
        b = Observable(SIGMA_Z, 0)
        assert abs(l_tra(rho, a, b, SIGMA_X + SIGMA_Z, math.pi)) <= 1e-12

    def test_holds_on_random_inputs(self):
        rng = np.random.default_rng(83)
        for _ in range(500):
            rho = random_density(rng, (2,))
            a = Observable(random_hermitian(rng, 2), 0)
            b = Observable(random_hermitian(rng, 2), 0)
            o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            bound = l_tra(rho, a, b, o, theta)
            total = variance(rho, a) + variance(rho, b)
            assert total >= bound - 1e-9

    def test_degenerate_operator_rejected(self):
        rho = pure_state([1, 0], (2,))
        o = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilates the state support
        with pytest.raises(DegenerateOperator):
            l_tra(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0), o, 0.5)

    def test_dimension_mismatch_rejected(self):
        rho = pure_state([1, 0], (2,))
        with pytest.raises(DimensionError):
            l_tra(rho, Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0), np.eye(3), 0.5)
        with pytest.raises(DimensionError):
            l_tra(rho, Observable(np.eye(4, dtype=complex), 0),
                  Observable(SIGMA_Z, 0), SIGMA_X, 0.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_mean_shifted_oracle(self, dim):
        """l_tra and qc_vur_batch's l_tra column equal the mean-shifted
        matrix formula within 1e-12 on random qubit and qutrit states, with
        complex O and theta at 0, pi/2, pi and random."""
        rng = np.random.default_rng(88 + dim)
        dims = (dim, 2)
        for theta in (0.0, math.pi / 2, math.pi, *rng.uniform(0.0, 2.0 * math.pi, 3)):
            a, b = (Observable(random_hermitian(rng, dim), 0) for _ in range(2))
            o = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            pairs = tuple((q, (Observable(random_hermitian(rng, 2), 1),)) for q in (a, b))
            setup = MeasurementSetup(pairs=pairs, ltra_operator=o, theta=theta)
            joint = [random_density(rng, dims) for _ in range(6)]
            reduced = [rho.reduced(0) for rho in joint]
            column = qc_vur_batch(np.array([rho.matrix for rho in joint]), dims, setup,
                                  Checks(len(joint)))["l_tra"]
            for rho_a, got in zip(reduced, column):
                expected = l_tra_oracle(rho_a.matrix, a.matrix, b.matrix, o, theta)
                assert abs(l_tra(rho_a, a, b, o, theta) - expected) <= 1e-12
                assert abs(got - expected) <= 1e-12

    def test_imaginary_cross_term_residue_is_rejected(self):
        """An observable inside the 1e-10 Hermiticity rule can leave the
        anticommutator term an imaginary residue above IMAG_TOL: l_tra
        names it. A vanishing O fails the denominator check first."""
        a = Observable(SIGMA_X + 5e-11j * SIGMA_X, 0)
        b = Observable(SIGMA_Z, 0)
        rho = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]]), (2,))
        with pytest.raises(ValidationError,
                           match=r"^anticommutator cross term has imaginary residue -7\.021e-12$"):
            l_tra(rho, a, b, SIGMA_X + SIGMA_Z, 0.5)
        with pytest.raises(DegenerateOperator, match="is numerically zero"):
            l_tra(rho, a, b, np.zeros((2, 2)), 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_operator_is_rejected(self, bad):
        """A weighting operator with a NaN or infinite entry is rejected as
        MeasurementSetup rejects it, before any product is formed: NaN
        would read as a numerically zero <O†O>, and inf would warn in a
        matmul."""
        rho = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]]), (2,))
        a, b = Observable(SIGMA_X, 0), Observable(SIGMA_Z, 0)
        for call in (lambda o: l_tra(rho, a, b, o, 0.5), lambda o: l_tra_operators(a, b, o)):
            with pytest.raises(ArgumentError, match=r"^ltra_operator has a non-finite entry$"):
                call(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_setup_builds_its_operator_stack_once(self, monkeypatch):
        """A reused setup keeps its l_tra operator stack: one build, and the
        same array on a second qc_vur call."""
        built = []

        def counting(*args):
            built.append(args)
            return l_tra_operators(*args)

        monkeypatch.setattr(relations, "l_tra_operators", counting)
        setup = xz_control_setup()
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        first = qc_vur(rho, setup)
        stack = setup._ltra_ops
        assert qc_vur(rho, setup) == first
        assert setup._ltra_ops is stack and len(built) == 1


class TestQcVur:
    def test_hot_limit(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1e6))
        res = qc_vur(rho, xz_control_setup())
        assert abs(res.lhs - 2.0) <= 1e-5
        assert abs(res.w - (1.0 + math.cos(0.5))) <= 1e-5
        assert abs(res.u - 2.0 / (1.0 + math.cos(0.5))) <= 1e-4

    def test_thermal_reference_point(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0))
        res = qc_vur(rho, xz_control_setup())
        # oracle route: correlators from the analytic elements
        r11, r22, r23, z = thermal_elements(1.0, 1.0, 1.0)
        cxx = 2.0 * r23.real / z
        czz = (2.0 * r11 - 2.0 * r22) / z
        assert abs(cxx - CXX_REF) <= 1e-12 and abs(czz - CZZ_REF) <= 1e-12
        assert abs(res.lhs - (2.0 - cxx ** 2 - czz ** 2)) <= 1e-10
        assert abs(res.w - (1.0 + math.cos(0.5) - cxx ** 2 - czz ** 2)) <= 1e-10
        assert abs(res.lhs - LHS_REF) <= 1e-12
        assert abs(res.w - W_REF) <= 1e-12
        assert abs(res.u - U_REF) <= 1e-12

    def test_cold_singlet_point(self):
        res = qc_vur(thermal_state(ModelParams(0.0, 1.0, T_MIN)), xz_control_setup())
        assert res.lhs <= 1e-5
        assert abs(res.w - (math.cos(0.5) - 1.0)) <= 1e-6
        assert res.u is not None and abs(res.u) <= 1e-4

    def test_result_arithmetic_is_exact(self):
        res = qc_vur(thermal_state(ModelParams(0.5, 1.0, 0.7)), xz_control_setup())
        assert res.w == res.l_tra - res.subtracted
        assert res.u == res.lhs / res.w

    def test_bridge_identity_random_multipartite(self):
        rng = np.random.default_rng(84)
        for i in range(60):
            n_ctrl = 1 + i % 3
            dims = (2,) * (n_ctrl + 1)
            rho = random_density(rng, dims)
            pairs = []
            for _ in range(2):
                q = Observable(random_hermitian(rng, 2), 0)
                controls = tuple(Observable(random_hermitian(rng, 2), s)
                                 for s in range(1, n_ctrl + 1))
                pairs.append((q, controls))
            o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            setup = MeasurementSetup(pairs=tuple(pairs), ltra_operator=o,
                                     theta=rng.uniform(0.0, 2.0 * math.pi))
            res = qc_vur(rho, setup)
            total = sum(variance(rho, q) for q, _ in pairs)
            assert abs(res.lhs + res.subtracted - total) <= 1e-9
            assert res.lhs >= res.w - 1e-9

    def test_mixed_control_layouts_match_per_pair_oracle(self):
        """Pairs whose controls differ in subsystems, in count and in outcome
        count (a degenerate control with a single outcome), q on subsystem 2
        and one chain in the order (3, 0): one plan per control layout, and
        qc_vur sums what each pair's sequential decomposition gives."""
        rng = np.random.default_rng(86)
        setup = _mixed_layout_setup(rng)
        dims = (2, 2, 2, 2)
        assert [len(plan.ops) for plan in vur_plan(setup, dims)] == [2, 1, 1, 1, 1]
        for _ in range(20):
            rho = random_density(rng, dims)
            res = qc_vur(rho, setup)
            seqs = [sequential_decomposition(rho, q, controls) for q, controls in setup.pairs]
            assert abs(res.lhs - sum(seq.residual for seq in seqs)) <= 1e-12
            explained = sum(seq.first_term + sum(seq.nested) for seq in seqs)
            assert abs(res.subtracted - explained) <= 1e-12

    def test_multi_qubit_batch_equals_batch_of_one(self):
        """Batched columns of 3- and 4-qubit states equal each state's batch
        of one bit for bit."""
        rng = np.random.default_rng(87)
        chain = tuple((Observable(random_hermitian(rng, 2), 0),
                       (Observable(random_hermitian(rng, 2), 1),
                        Observable(random_hermitian(rng, 2), 2))) for _ in range(2))
        setups = [(MeasurementSetup(pairs=chain, ltra_operator=SIGMA_X + SIGMA_Z, theta=0.5),
                   (2, 2, 2)),
                  (_mixed_layout_setup(rng), (2, 2, 2, 2))]
        for setup, dims in setups:
            rho = np.array([random_density(rng, dims).matrix for _ in range(9)])
            checks = Checks(len(rho))
            batch = qc_vur_batch(rho, dims, setup, checks)
            assert not checks.failed.any()
            for i in range(len(rho)):
                one = qc_vur_batch(rho[i:i + 1], dims, setup, Checks(1))
                for name, column in batch.items():
                    assert column[i:i + 1].tobytes() == one[name].tobytes(), name

    def test_reduced_state_check_at_the_tolerance_edge(self):
        """A state inside the -1e-10 eigenvalue rule can reduce to a
        measured qubit outside it: qc_vur's check of the reduced state
        rejects it, as a numerical ValidationError, not an argument error."""
        rho = DensityOperator(np.diag([-0.9e-10, -0.9e-10, 0.5 + 0.9e-10, 0.5 + 0.9e-10]),
                              (2, 2))
        assert rho.eigenvalues[0] == pytest.approx(-9e-11, abs=1e-25)
        # rho_A[0, 0] = rho[00, 00] + rho[01, 01], the lower eigenvalue of rho_A
        assert (rho.matrix[0, 0] + rho.matrix[1, 1]).real == pytest.approx(-1.8e-10, abs=1e-25)
        with pytest.raises(ValidationError,
                           match="^density matrix has a negative eigenvalue$") as info:
            qc_vur(rho, xz_control_setup())
        assert type(info.value) is ValidationError

    def test_solver_failure_on_a_larger_measured_state_raises_convergence_error(
            self, monkeypatch):
        """A measured subsystem larger than a qubit takes its reduced
        spectrum from the solver; a rejection raises ConvergenceError, a
        QurelError (CLI exit code 2), not numpy's LinAlgError."""
        rng = np.random.default_rng(96)
        rho = random_density(rng, (3, 2))
        pairs = tuple((Observable(random_hermitian(rng, 3), 0),
                       (Observable(random_hermitian(rng, 2), 1),)) for _ in range(2))
        setup = MeasurementSetup(pairs=pairs, ltra_operator=random_hermitian(rng, 3), theta=0.5)

        def rejects(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", rejects)
        with pytest.raises(ConvergenceError, match="eigensolver failed") as info:
            qc_vur(rho, setup)
        assert isinstance(info.value, QurelError)

    def test_tightness_at_least_one(self):
        rng = np.random.default_rng(85)
        setup = xz_control_setup()
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            res = qc_vur(rho, setup)
            if res.u is not None and res.w > 1e-6:
                assert res.u >= 1.0 - 1e-9


class TestNoSolverForQubits:
    """Qubit observables and reduced qubit states are decomposed in closed
    form: a bound on a state already built calls no LAPACK driver."""

    NONE = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_qc_vur_with_a_fresh_qubit_setup(self, monkeypatch, n_qubits):
        rng = np.random.default_rng(90 + n_qubits)
        rho = random_density(rng, (2,) * n_qubits)
        calls = count_solver_calls(monkeypatch)
        measured = n_qubits - 1
        controls = range(n_qubits - 1)
        pairs = tuple((Observable(random_hermitian(rng, 2), measured),
                       tuple(Observable(random_hermitian(rng, 2), c) for c in controls))
                      for _ in range(3))
        setup = MeasurementSetup(pairs=pairs, ltra_operator=random_hermitian(rng, 2), theta=0.7)
        qc_vur(rho, setup)
        # the standard sigma_x / sigma_z setup on qubit 0, every other qubit a control
        xz_pairs = tuple((Observable(m, 0), tuple(Observable(m, c) for c in range(1, n_qubits)))
                         for m in (SIGMA_X, SIGMA_Z))
        qc_vur(rho, MeasurementSetup(pairs=xz_pairs, ltra_operator=SIGMA_X + SIGMA_Z, theta=0.5))
        assert calls == self.NONE

    def test_qm_eur(self, monkeypatch):
        rng = np.random.default_rng(94)
        rho = random_density(rng, (2, 2))
        calls = count_solver_calls(monkeypatch)
        qm_eur(rho, Observable(random_hermitian(rng, 2), 0), Observable(random_hermitian(rng, 2), 0))
        assert calls == self.NONE


def test_plans_are_built_by_the_first_bound_not_by_construction(monkeypatch):
    """Building observables and a setup decomposes nothing and plans
    nothing: the first qc_vur does it, so its cost stays in the bound."""
    calls = {}
    for module, name in ((linalg, "spectral_2x2"), (measurements, "spectral_2x2"),
                         (relations, "spectral_2x2"),
                         (measurements, "projective_decompositions"),
                         (relations, "projective_decompositions"),
                         (measurements, "chain_plan"), (relations, "chain_plan"),
                         (relations, "l_tra_operators")):
        calls[name] = 0

        def counting(*args, _name=name, _f=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(97)
    rho = random_density(rng, (2, 2, 2))
    pairs = tuple((Observable(random_hermitian(rng, 2), 0),
                   tuple(Observable(random_hermitian(rng, 2), s) for s in (1, 2)))
                  for _ in range(2))
    setup = MeasurementSetup(pairs=pairs, ltra_operator=random_hermitian(rng, 2), theta=0.4)
    assert calls == dict.fromkeys(calls, 0)
    qc_vur(rho, setup)
    assert calls == {"spectral_2x2": 1, "projective_decompositions": 1, "chain_plan": 1,
                     "l_tra_operators": 1}


def _mixed_layout_setup(rng) -> MeasurementSetup:
    """Six pairs on four qubits, q on qubit 2, in five control layouts:
    (3, 0) twice, (1,), (1, 3) with a single-outcome control on 1, (1, 3)
    and (0, 1, 3)."""
    def obs(subsystem):
        return Observable(random_hermitian(rng, 2), subsystem)

    controls = [(obs(3), obs(0)), (obs(1),), (obs(3), obs(0)),
                (Observable(0.7 * I2, 1), obs(3)), (obs(1), obs(3)), (obs(0), obs(1), obs(3))]
    return MeasurementSetup(pairs=tuple((obs(2), c) for c in controls),
                            ltra_operator=SIGMA_X + SIGMA_Z, theta=0.9)


class TestMeasurementSetup:
    def test_requires_two_pairs(self):
        q = Observable(SIGMA_X, 0)
        c = Observable(SIGMA_X, 1)
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=((q, (c,)),), ltra_operator=SIGMA_X, theta=0.5)

    def test_requires_common_measured_subsystem(self):
        pairs = ((Observable(SIGMA_X, 0), (Observable(SIGMA_X, 1),)),
                 (Observable(SIGMA_Z, 1), (Observable(SIGMA_Z, 0),)))
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=pairs, ltra_operator=SIGMA_X, theta=0.5)

    def test_requires_theta_in_range(self):
        q = Observable(SIGMA_X, 0)
        c = Observable(SIGMA_X, 1)
        pairs = ((q, (c,)), (Observable(SIGMA_Z, 0), (Observable(SIGMA_Z, 1),)))
        with pytest.raises(ValidationError):
            MeasurementSetup(pairs=pairs, ltra_operator=SIGMA_X, theta=7.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_ltra_operator(self, entry):
        pairs = xz_control_setup().pairs
        op = SIGMA_X + SIGMA_Z
        op[0, 1] = entry
        with pytest.raises(ValidationError, match="ltra_operator"):
            MeasurementSetup(pairs=pairs, ltra_operator=op, theta=0.5)

    def test_standard_setup_shape(self):
        setup = xz_control_setup(theta=0.5)
        assert setup.theta == 0.5
        assert len(setup.pairs) == 2
        assert setup.measured_subsystem == 0
        assert np.array_equal(setup.ltra_operator, SIGMA_X + SIGMA_Z)


def test_scale_invariance_of_bound_quantities():
    setup = xz_control_setup()
    for k in (0.5, 2.0, 10.0):
        base = qc_vur(thermal_state(ModelParams(1.0, 1.0, 0.8)), setup)
        scaled = qc_vur(thermal_state(ModelParams(1.0, k * 1.0, k * 0.8)), setup)
        assert abs(base.lhs - scaled.lhs) <= 1e-10
        assert abs(base.w - scaled.w) <= 1e-10
        assert abs(base.u - scaled.u) <= 1e-10
