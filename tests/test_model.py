import itertools
import math

import numpy as np
import pytest

from qurel.errors import RangeError, ValidationError
from qurel.linalg import Checks
from qurel.model import (
    ModelParams,
    T_MIN,
    _eigenvectors,
    _gibbs_eigensystems,
    _levels,
    _mixedness_of,
    closed_form_concurrence,
    closed_form_mixedness,
    hamiltonian,
    thermal_state,
)
from qurel.states import (check_density, concurrence_batch, concurrence_two_qubit, mixedness,
                          mixedness_batch)

from helpers import GRID, gibbs_reference, thermal_elements, thermal_matrix


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(1.0, 2.0, 0.5)
        assert p.beta == 2.0
        assert np.isclose(p.delta, 4.0 * np.sqrt(2.0))
        assert np.isclose(p.theta_dm, np.pi / 4.0)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValidationError):
            ModelParams(1.0, 0.0, 1.0)

    def test_rejects_negative_d(self):
        with pytest.raises(ValidationError):
            ModelParams(-0.5, 1.0, 1.0)

    def test_rejects_too_cold(self):
        with pytest.raises(ValidationError):
            ModelParams(1.0, 1.0, T_MIN / 10.0)

    @pytest.mark.parametrize("field, args", [
        ("d", (math.inf, 1.0, 1.0)),
        ("d", (math.nan, 1.0, 1.0)),
        ("t", (1.0, 1.0, math.inf)),
        ("t", (1.0, 1.0, math.nan)),
    ])
    def test_rejects_non_finite_d_and_t(self, field, args):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            ModelParams(*args)

    @pytest.mark.parametrize("point", [
        (np.float64(1e308), -1.0, 1e-3),
        (1.0, np.float64(1e307), 1e-3),
        (1.0, 1e307, np.float64(1e-3)),
    ])
    def test_numpy_scalars_are_held_as_floats(self, point):
        """Each of d, j and t given as a numpy scalar at a point where
        |j| height / t overflows: the point holds floats, so the closed
        forms raise no RuntimeWarning (an error under this suite's filter)
        and equal those of the all-float point."""
        p = ModelParams(*point)
        floats = ModelParams(*map(float, point))
        assert all(type(x) is float for x in (p.d, p.j, p.t))
        assert repr(p) == repr(floats)
        assert closed_form_mixedness(p) == closed_form_mixedness(floats) == 0.0
        assert closed_form_concurrence(p) == closed_form_concurrence(floats)


class TestHamiltonian:
    def test_vanishes_in_weak_coupling_limit(self):
        h = hamiltonian(ModelParams(0.0, 1e-12, 1.0))
        assert np.max(np.abs(h)) <= 1e-11

    def test_inner_matrix_element(self):
        h = hamiltonian(ModelParams(1.0, 1.0, 1.0))
        assert h[1, 2] == 1.0 + 1.0j  # j (1 + i d)
        h = hamiltonian(ModelParams(2.0, -0.5, 1.0))
        assert np.isclose(h[1, 2], -0.5 * (1.0 + 2.0j))

    def test_spectrum(self):
        h = hamiltonian(ModelParams(1.0, 1.0, 1.0))
        w = np.linalg.eigvalsh(h)
        expected = sorted([0.5, 0.5, -0.5 + np.sqrt(2.0), -0.5 - np.sqrt(2.0)])
        assert np.allclose(w, expected)

    @pytest.mark.parametrize("d,j", [(0.0, 1.0), (1.0, -1.0), (2.0, 0.5)])
    def test_spectrum_general(self, d, j):
        p = ModelParams(d, j, 1.0)
        w = np.linalg.eigvalsh(hamiltonian(p))
        expected = sorted([j / 2.0, j / 2.0,
                           -j / 2.0 + abs(p.delta) / 2.0, -j / 2.0 - abs(p.delta) / 2.0])
        assert np.allclose(w, expected)


class TestThermalState:
    def test_infinite_temperature_limit(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1e6))
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4.0)) <= 1e-5

    def test_reference_entries(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 1.0)).matrix
        assert abs(rho[0, 0] - 0.07224476407147175) <= 1e-12
        assert abs(rho[1, 1] - 0.4277552359285283) <= 1e-12
        assert abs(abs(rho[1, 2]) - 0.38001157549157233) <= 1e-12

    def test_off_diagonal_phase(self):
        """rho23 carries exactly the phase of (1 + i d)."""
        for d, j, t in [(0.5, 1.0, 0.7), (2.0, -1.0, 1.3)]:
            p = ModelParams(d, j, t)
            rho = thermal_state(p).matrix
            r11, r22, r23, z = thermal_elements(d, j, t)
            assert abs(rho[1, 2] - r23 / z) <= 1e-12

    def test_matches_analytic_matrix_on_grid(self):
        for d, j, t in GRID:
            rho = thermal_state(ModelParams(d, j, t)).matrix
            assert np.max(np.abs(rho - thermal_matrix(d, j, t))) <= 1e-10

    def test_x_state_structure(self):
        rho = thermal_state(ModelParams(1.0, 1.0, 0.3)).matrix
        assert rho[0, 3] == 0.0 or abs(rho[0, 3]) <= 1e-15
        assert abs(rho[0, 0] - rho[3, 3]) <= 1e-14
        assert abs(rho[1, 1] - rho[2, 2]) <= 1e-14

    def test_cold_limit_is_ground_projector(self):
        rho = thermal_state(ModelParams(0.0, 1.0, T_MIN)).matrix
        singlet = np.zeros(4, dtype=complex)
        singlet[1], singlet[2] = 1.0, -1.0
        singlet /= np.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(singlet, singlet.conj()))) <= 1e-9

    def test_stack_equals_each_points_batch_of_one(self):
        """d repeating in runs and out of order: every point's state from
        the stack equals its batch of one bit for bit."""
        d = np.array([0.0, 1.0, 1.0, 0.0, 3.0, 3.0, 1.0])
        j = np.array([1.0, -0.5, 2.0, 1.0, 0.7, -3.0, -0.5])
        t = np.array([0.5, 1.0, 0.2, T_MIN, 2.0, 0.3, 1.0])
        checks = Checks(len(d))
        stack = _gibbs_eigensystems(d, j, t, checks)[0]
        assert not checks.failed.any()
        for i in range(len(d)):
            one = _gibbs_eigensystems(d[i:i + 1], j[i:i + 1], t[i:i + 1], Checks(1))[0]
            assert stack[i:i + 1].tobytes() == one.tobytes(), i
            assert stack[i].tobytes() == thermal_state(ModelParams(d[i], j[i], t[i])).matrix.tobytes()

    def test_overflowing_hamiltonian_flags_exactly_its_points(self):
        """d = 1e308 and j d = 1e400 overflow the Hamiltonian: those two
        points of a chunk fail with the Hamiltonian overflow error naming
        them, and the rest equal their batches of one."""
        d = np.array([1.0, 1e308, 1.0, 1e200, 1e200, 3.0])
        j = np.array([1.0, 1.0, -2.0, 1e200, 1e-200, 1.0])
        t = np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0])
        checks = Checks(len(d))
        stack = _gibbs_eigensystems(d, j, t, checks)[0]
        assert np.flatnonzero(checks.failed).tolist() == [1, 3]
        for i in (1, 3):
            error = checks.errors[i]
            assert isinstance(error, RangeError)
            point = ModelParams(float(d[i]), float(j[i]), float(t[i]))
            assert str(error) == f"Hamiltonian overflowed at {point}"
            assert np.array_equal(stack[i], np.eye(4) / 4.0)
        for i in (0, 2, 4, 5):
            one = _gibbs_eigensystems(d[i:i + 1], j[i:i + 1], t[i:i + 1], Checks(1))[0]
            assert stack[i:i + 1].tobytes() == one.tobytes(), i
        with pytest.raises(RangeError, match=r"Hamiltonian overflowed at ModelParams\(d=1e\+308"):
            thermal_state(ModelParams(1e308, 1.0, 1.0))


class TestExtremeInputs:
    """Seeded points with d up to 1e308, |j| from 1e-300 to 1e308 and t
    from T_MIN to 1e300, against the eigh route of ``hamiltonian(p)``
    (``helpers.gibbs_reference``)."""

    EPS = np.finfo(float).eps

    @staticmethod
    def points():
        rng = np.random.default_rng(16002)
        n = 3000
        d = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-300.0, 308.0, n))
        j = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-300.0, 308.0, n)
        t = np.where(rng.random(n) < 0.2, T_MIN, 10.0 ** rng.uniform(-3.0, 300.0, n))
        # overflow at 2 d, at j d, neither (d^2 would), a |j| / t beyond the
        # float range with a zero and a subnormal gap, and a ground level
        # that eigh overflows
        special = [(1e308, 1e-300, 1.0), (1e200, 1e200, 1.0), (1e200, 1e-200, 1.0),
                   (0.0, -1e308, T_MIN), (1e-160, -1e308, T_MIN), (1.0, 1e308, 1.0)]
        d, j, t = (np.concatenate([axis, extra]) for axis, extra in zip((d, j, t), zip(*special)))
        return d, j, t

    def test_fails_exactly_where_the_hamiltonian_overflows(self):
        """A point fails exactly where H holds a non-finite entry, with the
        Hamiltonian overflow error naming it; every other point's state is
        finite, also where the eigh route's is not, and agrees with a
        finite reference to within that reference's own error,
        8 eps (1 + ||H|| / t)."""
        d, j, t = self.points()
        checks = Checks(len(d))
        rho = _gibbs_eigensystems(d, j, t, checks)[0]
        overflows = 0
        for i, point in enumerate(zip(d.tolist(), j.tolist(), t.tolist())):
            p = ModelParams(*point)
            reference, norm = gibbs_reference(p)
            if reference is None:
                overflows += 1
                assert checks.failed[i], p
                assert str(checks.errors[i]) == f"Hamiltonian overflowed at {p}"
                assert np.array_equal(rho[i], np.eye(4) / 4.0)
                continue
            assert not checks.failed[i], (p, checks.errors.get(i))
            assert np.isfinite(rho[i].view(float)).all(), p
            if np.isfinite(reference.view(float)).all():
                bound = 8.0 * self.EPS * (1.0 + norm / p.t)
                assert np.max(np.abs(rho[i] - reference)) <= bound, p
        assert overflows >= 300
        assert checks.failed[-6:].tolist() == [True, True, False, False, False, False]
        message = r"^Hamiltonian overflowed at ModelParams\(d=1e\+200, j=1e\+200"
        with pytest.raises(RangeError, match=message):
            thermal_state(ModelParams(1e200, 1e200, 1.0))

    def test_states_are_diagonal_in_the_closed_form_eigenvectors(self):
        """Every passing point's state is V diag(w) V^dagger for the
        unitary V of ``_eigenvectors``, to a few eps, with w ascending in
        the order of ``_levels``' descending heights."""
        d, j, t = self.points()
        checks = Checks(len(d))
        rho = _gibbs_eigensystems(d, j, t, checks)[0]
        ok = ~checks.failed
        rho, v, heights = rho[ok], _eigenvectors(d[ok], j[ok]), _levels(d[ok], j[ok])
        eye_dev = np.abs(np.swapaxes(v.conj(), -1, -2) @ v - np.eye(4)).max()
        diagonal = np.swapaxes(v.conj(), -1, -2) @ rho @ v
        w = np.diagonal(diagonal, axis1=1, axis2=2).real
        off_dev = np.abs(diagonal - w[:, :, None] * np.eye(4)).max()
        assert eye_dev <= 4.0 * self.EPS and off_dev <= 4.0 * self.EPS, (eye_dev, off_dev)
        assert (np.diff(heights, axis=1) <= 0.0).all()
        assert (np.diff(w, axis=1) >= -4.0 * self.EPS).all()

    def test_eigensystems_carry_each_states_decomposition(self):
        """Besides the stack of Gibbs states, the kernel returns each
        state's weights, ascending exactly (ties included, as at d = 0), and
        the eigenvectors of ``_eigenvectors``, which rebuild the state to a
        few eps; a failed point comes back as (I/4, 1/4, I)."""
        d, j, t = self.points()
        checks = Checks(len(d))
        rho, w, v = _gibbs_eigensystems(d, j, t, checks)
        assert rho.tobytes() == _gibbs_eigensystems(d, j, t, Checks(len(d)))[0].tobytes()
        bad = checks.failed
        assert bad.sum() >= 300
        assert (rho[bad] == np.eye(4) / 4.0).all() and (w[bad] == 0.25).all()
        assert (v[bad] == np.eye(4)).all()
        assert (np.diff(w, axis=1) >= 0.0).all()
        # d = 0 ties three levels: the far level with the pair for j > 0, the
        # pair with the ground level for j < 0
        _, tied, _ = _gibbs_eigensystems(np.zeros(2), np.array([1.0, -1.0]), np.ones(2), Checks(2))
        assert tied[0, 0] == tied[0, 1] == tied[0, 2] and tied[1, 1] == tied[1, 2] == tied[1, 3]
        assert np.array_equal(v[~bad], _eigenvectors(d[~bad], j[~bad]))
        rebuilt = (v * w[:, None, :]) @ np.swapaxes(v.conj(), -1, -2)
        assert np.abs(rebuilt - rho).max() <= 4.0 * self.EPS
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 4.0 * self.EPS

    def test_states_are_valid_by_construction(self):
        """The sweep does not re-check its Gibbs states, because every state
        the kernel does not flag passes DensityOperator's checks as built:
        exactly Hermitian, unit trace to 4 eps and weights in [0, 1]. The
        kernel flags exactly the points where (j/2)(2d) overflows."""
        d_values = (0.0, 1e-8, 0.5, 3.0, 1e6, 1e150, 4e307)
        j_values = tuple(s * m for m in (1e-9, 1e-3, 1.0, 1e6, 1e300) for s in (1.0, -1.0))
        t_values = (T_MIN, 0.05, 1.0, 1e6, 1e300)
        d, j, t = (np.array(axis) for axis in zip(*itertools.product(d_values, j_values,
                                                                     t_values)))
        checks = Checks(len(d))
        rho, w, _ = _gibbs_eigensystems(d, j, t, checks)
        overflows = [math.isinf((jj / 2.0) * (2.0 * dd)) for dd, jj in zip(d.tolist(), j.tolist())]
        assert checks.failed.tolist() == overflows
        ok = ~checks.failed
        assert (rho[ok] == rho[ok].swapaxes(-1, -2).conj()).all()
        assert np.abs(rho[ok].trace(axis1=-2, axis2=-1) - 1.0).max() <= 4.0 * self.EPS
        assert ((w[ok] >= 0.0) & (w[ok] <= 1.0)).all()
        fresh = Checks(int(ok.sum()))
        check_density(rho[ok], w[ok], fresh)
        assert not fresh.failed.any()

    def test_scalar_closed_forms_agree_with_the_stack(self):
        """Wherever the stack has a state, the scalar closed forms are
        finite and equal its mixedness and spin-flip concurrence."""
        d, j, t = self.points()
        checks = Checks(len(d))
        rho = _gibbs_eigensystems(d, j, t, checks)[0]
        gamma = mixedness_batch(rho)
        conc = concurrence_batch(*np.linalg.eigh(rho))
        for i in np.flatnonzero(~checks.failed).tolist():
            p = ModelParams(float(d[i]), float(j[i]), float(t[i]))
            assert abs(closed_form_mixedness(p) - gamma[i]) <= 1e-15, p
            assert abs(closed_form_concurrence(p) - conc[i]) <= 1e-15, p

    def test_float_kernel_is_the_public_closed_form(self):
        """Mixedness matching builds the float kernel once per (d, j), with
        no ModelParams; at every point it equals closed_form_mixedness bit
        for bit."""
        d, j, t = self.points()
        for point in zip(d.tolist(), j.tolist(), t.tolist()):
            gamma = closed_form_mixedness(ModelParams(*point))
            assert _mixedness_of(point[0], point[1])(point[2]) == gamma, point


class TestClosedFormMixedness:
    def test_weak_coupling_limit(self):
        assert np.isclose(closed_form_mixedness(ModelParams(0.7, 1e-9, 1.0)), 0.75, atol=1e-8)

    def test_reference_point_against_verbatim_formula(self):
        p = ModelParams(1.0, 1.0, 1.0)
        beta, j, delta = 1.0, 1.0, 2.0 * math.sqrt(2.0)
        verbatim = (4.0 * math.exp(beta * (j + delta))
                    * (math.cosh(beta * j) + 2.0 * math.cosh(beta * delta / 2.0))
                    / (math.exp(beta * (j + delta)) + math.exp(beta * j)
                       + 2.0 * math.exp(beta * delta / 2.0)) ** 2)
        assert abs(closed_form_mixedness(p) - verbatim) <= 1e-12
        assert abs(closed_form_mixedness(p) - 0.334794709384799) <= 1e-12

    def test_agrees_with_purity_route_on_grid(self):
        for d, j, t in GRID:
            p = ModelParams(d, j, t)
            assert abs(closed_form_mixedness(p) - mixedness(thermal_state(p))) <= 1e-10

    def test_exact_scale_symmetry(self):
        assert closed_form_mixedness(ModelParams(1.0, 2.0, 2.0)) == \
            closed_form_mixedness(ModelParams(1.0, 1.0, 1.0))

    def test_survives_extreme_cold(self):
        # beta |j| = 2000: the verbatim exponentials overflow, the
        # rescaled evaluation must not
        val = closed_form_mixedness(ModelParams(1.0, 2.0, T_MIN))
        assert 0.0 <= val <= 1e-10


class TestClosedFormConcurrence:
    def test_hot_limit_vanishes(self):
        assert closed_form_concurrence(ModelParams(1.0, 1.0, 1e6)) == 0.0

    def test_reference_point(self):
        got = closed_form_concurrence(ModelParams(1.0, 1.0, 1.0))
        assert abs(got - 0.615533622840201) <= 1e-12

    def test_cold_antiferromagnetic_singlet(self):
        got = closed_form_concurrence(ModelParams(0.0, 1.0, T_MIN))
        assert abs(got - 1.0) <= 1e-6

    def test_agrees_with_spin_flip_route_on_grid(self):
        for d, j, t in GRID:
            p = ModelParams(d, j, t)
            assert abs(closed_form_concurrence(p)
                       - concurrence_two_qubit(thermal_state(p))) <= 1e-10

    def test_ferromagnetic_separable_at_low_temperature(self):
        assert closed_form_concurrence(ModelParams(0.0, -1.0, 0.2)) == 0.0


def as_printed_concurrence(d, j, t):
    """The subtracted term with the positive exponent sign; kept only to
    document that it contradicts the spin-flip route (see test below)."""
    r11, r22, r23, z = thermal_elements(d, j, t)
    beta = 1.0 / t
    return 2.0 * max(abs(r23) - math.exp(beta * j / 2.0), 0.0) / z


def test_closed_forms_match_matrix_path_at_large_d():
    """The level splitting 2 J sqrt(1 + D^2) must not overflow where D^2
    does (|D| above about 1.3e154): the closed forms agree with the
    matrix path there."""
    for d, j, t in itertools.product((1e154, 1e200, 1e300), (1.0, -1.0, 0.5),
                                     (T_MIN, 1.0, 1e3)):
        p = ModelParams(d, j, t)
        rho = thermal_state(p)
        assert abs(closed_form_mixedness(p) - mixedness(rho)) <= 1e-10, p
        assert abs(closed_form_concurrence(p) - concurrence_two_qubit(rho)) <= 1e-10, p


def test_positive_exponent_variant_contradicts_spin_flip():
    """Near the entanglement threshold the e^{+beta J/2} variant predicts a
    separable state while the spin-flip value is clearly nonzero, so the
    corrected e^{-beta J/2} subtraction is the right one."""
    got = concurrence_two_qubit(thermal_state(ModelParams(1.0, 1.0, 2.0)))
    wrong = as_printed_concurrence(1.0, 1.0, 2.0)
    assert got > 0.08
    assert wrong == 0.0
    assert abs(wrong - got) > 1e-3
    # and the corrected closed form agrees with the spin-flip route there
    assert abs(closed_form_concurrence(ModelParams(1.0, 1.0, 2.0)) - got) <= 1e-10


def test_scale_invariance_of_derived_scalars():
    for k in (0.5, 2.0, 10.0):
        for d, j, t in [(0.0, 1.0, 0.5), (1.0, -1.0, 1.0), (2.0, 0.5, 2.0)]:
            base = ModelParams(d, j, t)
            scaled = ModelParams(d, k * j, k * t)
            assert abs(closed_form_mixedness(base) - closed_form_mixedness(scaled)) <= 1e-10
            assert abs(closed_form_concurrence(base) - closed_form_concurrence(scaled)) <= 1e-10
            assert abs(mixedness(thermal_state(base)) - mixedness(thermal_state(scaled))) <= 1e-10
