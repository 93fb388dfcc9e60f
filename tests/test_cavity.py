import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import same_up_to_global_phase
from spatialbsa.bsa import DecoherenceParams, decoherence_factor, parity_qnd, quality
from spatialbsa.cli import SweepSpec, sweep_points
from spatialbsa.cavity import (
    CavityParams,
    IDEAL_COLD,
    IDEAL_HOT,
    operating_point,
    phase_shifts,
    reflection,
    scatter_factors,
)
from spatialbsa.register import (
    Kind,
    QuantumRegister,
    SQRT_HALF,
    Subsystem,
    SubsystemKindError,
)

# Reference amplitude computed independently at 30-digit precision for
# g=2.4, kappa=1, kappa_s=0, gamma=0.1, detunings 0.5.
REFERENCE_HOT = 0.986511721045785259 + 0.0896640873148312459j


def random_params(rng, lossless=False):
    return CavityParams(
        g=rng.uniform(0.0, 8.0),
        kappa=rng.uniform(0.2, 3.0),
        kappa_s=0.0 if lossless else rng.uniform(0.0, 2.0),
        gamma=rng.uniform(0.0, 1.0),
        delta_c=rng.uniform(-3.0, 3.0),
        delta_x=rng.uniform(-3.0, 3.0),
    )


def photon_spin_register(pol, spin):
    amps = np.kron(np.asarray(pol, dtype=complex), np.asarray(spin, dtype=complex))
    return QuantumRegister(
        [Subsystem("p", Kind.POLARIZATION), Subsystem("s", Kind.SPIN)], amps
    )


def scatter(reg, params=None, passes=1):
    """Bounce photon "p" off spin "s" once or twice, as the analyzer's stages do."""
    return reg.apply_diagonal(["p", "s"], scatter_factors(params, passes))


class TestCavityParams:
    @pytest.mark.parametrize(
        "field", ["g", "kappa", "kappa_s", "gamma", "delta_c", "delta_x"]
    )
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CavityParams(**{"g": 1.0, field: value})

    @pytest.mark.parametrize("scalar", [np.float32, np.float16])
    def test_numpy_scalars_compute_as_the_python_numbers_they_equal(self, scalar):
        # Each field keeps the Python number, so no figure is computed in the
        # scalar's own precision and every field dumps to JSON.
        values = [scalar(v) for v in (2.4, 0.7, 0.1, 0.5, 3.0)]
        plain = [v.item() for v in values]
        got, want = (operating_point(*vs[:4]) for vs in (values, plain))
        assert json.dumps(got._asdict()) == json.dumps(want._asdict())
        assert [type(v) for v in got._asdict().values()] == [type(v) for v in want._asdict().values()]
        got, want = (CavityParams(*vs) for vs in (values, plain))
        assert json.dumps(got._asdict()) == json.dumps(want._asdict())
        for coupled in (False, True):
            assert reflection(got, coupled) == reflection(want, coupled)
        assert quality(got) == quality(want)
        got, want = (decoherence_factor(DecoherenceParams(*vs[2:4])) for vs in (values, plain))
        assert got == want
        got, want = (sweep_points(SweepSpec(vs[2], vs[4], 5, tuple(vs[:2]), *vs[2:4])).tobytes()
                     for vs in (values, plain))
        assert got == want


class TestReflection:
    def test_cold_response_at_default_detuning_is_minus_i(self):
        r0 = reflection(CavityParams(g=0.0), coupled=False)
        assert abs(r0 - (-1j)) < 1e-15

    def test_reference_hot_amplitude_at_strong_coupling(self):
        rh = reflection(CavityParams(g=2.4), coupled=True)
        assert abs(rh - REFERENCE_HOT) < 1e-12
        assert abs(abs(rh) - 0.990578126305401) < 1e-12

    def test_hot_equals_cold_when_uncoupled(self, rng):
        for _ in range(1000):
            params = random_params(rng)
            params = CavityParams(
                g=0.0,
                kappa=params.kappa,
                kappa_s=params.kappa_s,
                gamma=max(params.gamma, 1e-6),
                delta_c=params.delta_c,
                delta_x=params.delta_x,
            )
            hot = reflection(params, coupled=True)
            cold = reflection(params, coupled=False)
            assert abs(hot - cold) < 1e-12

    def test_modulus_never_exceeds_one(self, rng):
        for _ in range(1000):
            params = random_params(rng)
            assert abs(reflection(params, coupled=True)) <= 1.0 + 1e-12
            assert abs(reflection(params, coupled=False)) <= 1.0 + 1e-12

    @settings(deadline=None)
    @given(
        g=st.floats(0.0, 10.0),
        kappa=st.floats(0.1, 3.0),
        kappa_s=st.floats(0.0, 2.0),
        gamma=st.floats(0.0, 1.0),
        delta_c=st.floats(-3.0, 3.0),
        delta_x=st.floats(-3.0, 3.0),
    )
    @example(g=0.0, kappa=0.5, kappa_s=0.0, gamma=0.0, delta_c=0.0, delta_x=2.2250738585e-313)
    def test_modulus_bound_property(self, g, kappa, kappa_s, gamma, delta_c, delta_x):
        # The bound applies wherever the response is defined.  The degenerate
        # set (vanishing denominator, e.g. gamma = delta_x = 0 with g**2
        # underflowing to zero) is rejected by reflection() and out of scope.
        d_exciton = 0.5 * gamma - 1j * delta_x
        d_cavity = 0.5 * (kappa + kappa_s) - 1j * delta_c
        assume(d_exciton * d_cavity + g * g != 0.0)
        params = CavityParams(
            g=g, kappa=kappa, kappa_s=kappa_s, gamma=gamma,
            delta_c=delta_c, delta_x=delta_x,
        )
        assert abs(reflection(params, coupled=True)) <= 1.0 + 1e-12
        assert abs(reflection(params, coupled=False)) <= 1.0 + 1e-12

    def test_lossless_cold_response_has_unit_modulus(self, rng):
        for _ in range(200):
            params = random_params(rng, lossless=True)
            assert abs(abs(reflection(params, coupled=False)) - 1.0) < 1e-12

    def test_degenerate_denominator_rejected(self):
        params = CavityParams(g=0.0, gamma=0.0, delta_x=0.0)
        with pytest.raises(ValueError):
            reflection(params, coupled=True)

    def test_huge_detuning_leaves_the_probe_unscattered(self):
        # Re(D_x * D_c) overflows alone, and r_hot takes its limit 1.
        assert reflection(operating_point(2.4, detuning=1e200), coupled=True) == 1.0

    @pytest.mark.parametrize(
        "params", [operating_point(2.4, gamma=1e10, detuning=1e300),
                   operating_point(1e200, detuning=1e200)],
        ids=["both_parts_of_dx_dc", "dx_dc_and_g_squared"],
    )
    def test_overflowing_response_rejected(self, params):
        with pytest.raises(ValueError, match="the hot-cavity response overflows"):
            reflection(params, coupled=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"g": -0.1},
            {"g": 1.0, "kappa": 0.0},
            {"g": 1.0, "kappa_s": -0.2},
            {"g": 1.0, "gamma": -0.5},
            # wrong types are named, not compared: a str, None and a bool
            {"g": "1"},
            {"g": 1.0, "kappa": None},
            {"g": True},
            {"g": np.bool_(True)},
            # an int too large for a float is named, not left to overflow
            {"g": 10**400},
            {"g": 1.0, "gamma": 10**400},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CavityParams(**kwargs)

    def test_operating_point_scales_coupling_with_total_decay(self):
        params = operating_point(2.4, 0.7)
        assert params.g == pytest.approx(2.4 * 1.7)
        assert params.kappa == 1.0
        assert params.kappa_s == 0.7
        assert params.g_over_ktot == pytest.approx(2.4)
        assert params.ks_over_k == pytest.approx(0.7)


TINY = 2.0**-900


def cold_closed_form(kappa, kappa_s, delta_c):
    return (0.5 * kappa_s - 0.5 * kappa - 1j * delta_c) / (0.5 * (kappa + kappa_s) - 1j * delta_c)


class TestSubnormalColdReflection:
    def test_smallest_kappa_reflects_with_minus_one(self):
        params = CavityParams(g=1.0, kappa=5e-324, delta_c=0.0)
        assert reflection(params, coupled=False) == -1.0

    @pytest.mark.parametrize(
        "kappa, kappa_s, delta_c, want",
        [
            (5e-324, 5e-324, 0.0, 0.0),
            (1e-320, 0.0, 1e-320, 0.6 - 0.8j),
            (3e-323, 0.0, -3e-323, 0.6 + 0.8j),
        ],
    )
    def test_explicit_subnormal_rates(self, kappa, kappa_s, delta_c, want):
        params = CavityParams(g=1.0, kappa=kappa, kappa_s=kappa_s, delta_c=delta_c)
        assert reflection(params, coupled=False) == pytest.approx(want, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(5e-324, TINY, exclude_max=True),
        kappa_s=st.floats(0.0, TINY, exclude_max=True),
        delta_c=st.floats(-TINY, TINY, exclude_min=True, exclude_max=True),
    )
    def test_tiny_rates_scale_exactly(self, kappa, kappa_s, delta_c):
        params = CavityParams(g=1.0, kappa=kappa, kappa_s=kappa_s, delta_c=delta_c)
        r = reflection(params, coupled=False)
        scale = 2.0**1000
        assert r == cold_closed_form(kappa * scale, kappa_s * scale, delta_c * scale)
        assert abs(r) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(TINY, 1e3),
        kappa_s=st.floats(0.0, 1e3),
        delta_c=st.floats(-1e3, 1e3),
    )
    def test_other_rates_use_the_closed_form_unscaled(self, kappa, kappa_s, delta_c):
        params = CavityParams(g=1.0, kappa=kappa, kappa_s=kappa_s, delta_c=delta_c)
        assert reflection(params, coupled=False) == cold_closed_form(kappa, kappa_s, delta_c)


class TestPhaseShifts:
    def test_difference_and_rotation_angle_are_consistent(self, rng):
        # The difference of the two phases turns the cold amplitude's
        # direction into the hot one's.
        for _ in range(100):
            params = random_params(rng)
            phi_cold, phi_hot = phase_shifts(params)
            assert type(phi_cold) is float and type(phi_hot) is float
            assert -np.pi < phi_cold <= np.pi
            assert -np.pi < phi_hot <= np.pi
            cold = reflection(params, coupled=False)
            hot = reflection(params, coupled=True)
            turned = cold / abs(cold) * np.exp(1j * (phi_hot - phi_cold))
            assert turned == pytest.approx(hot / abs(hot), abs=1e-12)

    def test_strong_coupling_difference_near_quarter_turn(self):
        phi_cold, phi_hot = phase_shifts(CavityParams(g=10.0))
        assert abs(phi_hot - phi_cold - np.pi / 2) < 0.02

    def test_ideal_pair_phases(self):
        cold, hot = scatter_factors(None)[:2]
        assert cold == IDEAL_COLD
        assert hot == IDEAL_HOT
        assert abs(cold - (-1j)) < 1e-15


class TestScatter:
    def test_single_pass_turns_linear_polarization_left_for_spin_up(self):
        reg = photon_spin_register([SQRT_HALF, SQRT_HALF], [1.0, 0.0])
        scatter(reg)
        expected = photon_spin_register([SQRT_HALF, 1j * SQRT_HALF], [1.0, 0.0])
        assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_single_pass_turns_linear_polarization_right_for_spin_down(self):
        reg = photon_spin_register([SQRT_HALF, SQRT_HALF], [0.0, 1.0])
        scatter(reg)
        expected = photon_spin_register([SQRT_HALF, -1j * SQRT_HALF], [0.0, 1.0])
        assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_circular_basis_states_only_gain_phases_in_single_pass(self):
        for pol in ([1.0, 0.0], [0.0, 1.0]):
            for spin in ([1.0, 0.0], [0.0, 1.0]):
                reg = photon_spin_register(pol, spin)
                expected = QuantumRegister(reg.subsystems, reg.amplitudes)
                scatter(reg)
                assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_corrected_double_pass_flips_a_superposed_spin(self, rng):
        # A photon on the cavity path flips |+> to |-> regardless of its
        # polarization once the half-wave correction removes the |L> sign.
        for _ in range(25):
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = np.hypot(abs(alpha), abs(beta))
            alpha, beta = alpha / norm, beta / norm
            reg = photon_spin_register([alpha, beta], [SQRT_HALF, SQRT_HALF])
            scatter(reg, passes=2)
            reg.apply_diagonal(["p"], [1, -1])
            expected = photon_spin_register([alpha, beta], [SQRT_HALF, -SQRT_HALF])
            assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_two_single_passes_match_one_double_pass(self, rng):
        for _ in range(25):
            params = random_params(rng)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            twice = photon_spin_register([1, 0], [1, 0])
            twice.amplitudes = amps.copy()
            once = photon_spin_register([1, 0], [1, 0])
            once.amplitudes = amps.copy()
            scatter(twice, params, passes=1)
            scatter(twice, params, passes=1)
            scatter(once, params, passes=2)
            assert np.allclose(twice.amplitudes, once.amplitudes, atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_ideal_scatter_preserves_norm(self, seed, passes):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        reg = photon_spin_register([1, 0], [1, 0])
        reg.amplitudes = amps
        scatter(reg, passes=passes)
        assert abs(reg.norm_squared() - 1.0) < 1e-12

    def test_lossy_scatter_never_gains_norm(self, rng):
        for _ in range(200):
            params = random_params(rng)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            reg = photon_spin_register([1, 0], [1, 0])
            reg.amplitudes = amps
            scatter(reg, params, passes=1)
            assert reg.norm_squared() <= 1.0 + 1e-12

    def test_survival_probability_matches_hot_modulus(self):
        params = CavityParams(g=2.4)
        reg = photon_spin_register([1.0, 0.0], [0.0, 1.0])
        scatter(reg, params, passes=1)
        assert reg.norm_squared() == pytest.approx(abs(REFERENCE_HOT) ** 2, abs=1e-12)

    def test_factors_follow_selection_rules(self):
        params = CavityParams(g=2.4)
        cold, hot = reflection(params, coupled=False), reflection(params, coupled=True)
        factors = scatter_factors(params, passes=1)
        assert factors[0] == cold and factors[3] == cold
        assert factors[1] == hot and factors[2] == hot

    def test_unknown_subsystem_rejected(self):
        reg = QuantumRegister(
            [Subsystem("q", Kind.POLARIZATION), Subsystem("s", Kind.SPIN)],
            np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        )
        with pytest.raises(KeyError):
            scatter(reg)

    def test_wrong_kind_rejected(self):
        # The parity pass checks every kind before a photon meets the cavity:
        # here photon a's polarization is declared a spin.
        subsystems = [
            Subsystem("a", Kind.SPATIAL),
            Subsystem("b", Kind.SPATIAL),
            Subsystem("a_pol", Kind.SPIN),
            Subsystem("b_pol", Kind.POLARIZATION),
            Subsystem("spin", Kind.SPIN),
        ]
        amps = np.zeros(32, dtype=complex)
        amps[:2] = SQRT_HALF  # every photon qubit in state 0, the spin in |+>
        with pytest.raises(SubsystemKindError):
            parity_qnd(QuantumRegister(subsystems, amps))

    def test_invalid_pass_count_rejected(self):
        with pytest.raises(ValueError):
            scatter_factors(None, passes=3)
