import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RAIL_OPS, encode, same_up_to_global_phase
from spatialbsa.bsa import parity_qnd
from spatialbsa.qsdc import measure_photon
from spatialbsa.register import (
    BellState,
    HADAMARD,
    Kind,
    QuantumRegister,
    SQRT_HALF,
    Subsystem,
    SubsystemKindError,
    ZeroNormError,
    apply_bs,
    make_bell,
)

BELL_VECTORS = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQRT_HALF,
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQRT_HALF,
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQRT_HALF,
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQRT_HALF,
}


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def pair_rows(*states):
    """A pair array, one (rail of a, rail of b) row per two-photon state."""
    return np.array(states, dtype=complex).reshape(-1, 2, 2)


def two_rail_register(amps):
    return QuantumRegister(
        [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
        np.asarray(amps, dtype=complex),
    )


class TestConstruction:
    def test_make_bell_amplitudes(self):
        for label, vec in BELL_VECTORS.items():
            reg = make_bell(label)
            assert [s.name for s in reg.subsystems] == ["a", "b"]
            assert all(s.kind is Kind.SPATIAL for s in reg.subsystems)
            assert np.allclose(reg.amplitudes, vec, atol=1e-15)
            assert reg.norm_squared() == pytest.approx(1.0)

    def test_make_bell_with_polarization_layout(self):
        reg = make_bell(BellState.PHI_PLUS, with_polarization="R")
        assert [s.name for s in reg.subsystems] == ["a", "b", "a_pol", "b_pol"]
        assert reg.subsystems[2].kind is Kind.POLARIZATION
        expected = np.kron(
            np.kron(BELL_VECTORS[BellState.PHI_PLUS], [1.0, 0.0]), [1.0, 0.0]
        )
        assert np.allclose(reg.amplitudes, expected, atol=1e-15)

    def test_make_bell_rejects_unknown_polarization(self):
        with pytest.raises(ValueError):
            make_bell(BellState.PHI_PLUS, with_polarization="H")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            QuantumRegister(
                [Subsystem("a", Kind.SPATIAL), Subsystem("a", Kind.SPIN)],
                np.zeros(4),
            )

    def test_amplitude_length_checked(self):
        with pytest.raises(ValueError):
            QuantumRegister([Subsystem("a", Kind.SPATIAL)], np.zeros(3))

    def test_big_endian_ordering(self):
        reg = QuantumRegister(
            [Subsystem("x", Kind.SPATIAL), Subsystem("y", Kind.SPATIAL)],
            np.zeros(4),
        )
        reg.amplitudes[2] = 1.0  # binary 10: x in state 1, y in state 0
        assert reg.probabilities("x", "z")[1] == pytest.approx(1.0)
        assert reg.probabilities("y", "z")[0] == pytest.approx(1.0)

    def test_unknown_subsystem_name(self):
        reg = make_bell(BellState.PHI_PLUS)
        with pytest.raises(KeyError):
            reg.axis("c")


class TestBeamSplitter:
    def test_maps_bell_states_as_expected(self):
        mapping = {
            BellState.PHI_PLUS: BellState.PHI_PLUS,
            BellState.PHI_MINUS: BellState.PSI_PLUS,
            BellState.PSI_PLUS: BellState.PHI_MINUS,
            BellState.PSI_MINUS: BellState.PSI_MINUS,
        }
        for before, after in mapping.items():
            reg = make_bell(before)
            apply_bs(reg, "a")
            apply_bs(reg, "b")
            assert same_up_to_global_phase(reg.amplitudes, make_bell(after).amplitudes)
            # amplitude-level check against the expected vector
            overlap = np.vdot(BELL_VECTORS[after], reg.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        reg = two_rail_register(random_state(rng, 2))
        original = reg.amplitudes.copy()
        apply_bs(reg, "a")
        apply_bs(reg, "a")
        assert np.allclose(reg.amplitudes, original, atol=1e-12)

    def test_requires_spatial_kind(self):
        reg = make_bell(BellState.PHI_PLUS, with_polarization="R")
        with pytest.raises(SubsystemKindError):
            apply_bs(reg, "a_pol")


class TestRailOps:
    """Photon a's four rail operations in code order, on pair-array rows."""

    def test_ops_match_explicit_matrices(self, rng):
        states = [random_state(rng, 2) for _ in RAIL_OPS]
        psi = encode(pair_rows(*states), range(4))
        for row, state, matrix in zip(psi, states, RAIL_OPS):
            expected = np.kron(matrix, np.eye(2)) @ state
            assert np.allclose(row.reshape(4), expected, atol=1e-12)

    def test_ops_move_phi_plus_around_the_bell_basis(self):
        landing = (
            BellState.PHI_PLUS,
            BellState.PSI_PLUS,
            BellState.PHI_MINUS,
            BellState.PSI_MINUS,
        )
        psi = encode(pair_rows(*[BELL_VECTORS[BellState.PHI_PLUS]] * 4), range(4))
        for row, target in zip(psi, landing):
            assert same_up_to_global_phase(row.reshape(4), BELL_VECTORS[target])

    def test_ops_preserve_norm(self, rng):
        psi = encode(pair_rows(*[random_state(rng, 2) for _ in RAIL_OPS]), range(4))
        norms = (np.abs(psi) ** 2).sum(axis=(1, 2))
        assert norms == pytest.approx(np.ones(4), abs=1e-12)


class TestMeasurement:
    """Register probabilities, and the session's collapse ``qsdc.measure_photon``."""

    def test_collapse_correlates_bell_pair(self, rng):
        psi = pair_rows(*[BELL_VECTORS[BellState.PHI_PLUS]] * 50)
        z = np.zeros(50, dtype=bool)
        a_out = measure_photon(psi, "a", z, rng.random(50))
        b_out = measure_photon(psi, "b", z, rng.random(50))
        assert 0 < a_out.sum() < 50
        assert np.array_equal(b_out, a_out)
        # Both photons end on the rail photon a was found on.
        assert np.abs(psi[np.arange(50), a_out, a_out]) == pytest.approx(np.ones(50))

    def test_probabilities_query_does_not_collapse(self):
        reg = make_bell(BellState.PHI_PLUS)
        before = reg.amplitudes.copy()
        assert np.allclose(reg.probabilities("a", "z"), [0.5, 0.5])
        assert np.array_equal(reg.amplitudes, before)

    def test_spatial_x_on_even_superposition_is_deterministic(self):
        # (|1> + |2>)/sqrt(2) is the outcome-0 eigenstate of the spatial
        # x basis, so any uniform draw must return outcome 0 and leave it be.
        draws = np.array([0.001, 0.5, 0.999])
        psi = pair_rows(*[np.kron([SQRT_HALF, SQRT_HALF], [1.0, 0.0])] * 3)
        before = psi.copy()
        assert measure_photon(psi, "a", np.ones(3, dtype=bool), draws).tolist() == [0, 0, 0]
        assert np.allclose(psi, before, atol=1e-12)

    def test_single_uniform_inversion(self):
        psi = pair_rows(*[BELL_VECTORS[BellState.PHI_PLUS]] * 2)
        outcomes = measure_photon(psi, "a", np.zeros(2, dtype=bool), np.array([0.49, 0.51]))
        assert outcomes.tolist() == [0, 1]

    def test_same_seed_same_outcomes(self):
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            psi = pair_rows(random_state(np.random.default_rng(1), 2))
            a = measure_photon(psi, "a", np.array([True]), rng.random(1))
            b = measure_photon(psi, "b", np.array([False]), rng.random(1))
            outcomes.append([*a, *b])
        assert outcomes[0] == outcomes[1]

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["z", "x"]),
    )
    def test_probabilities_sum_to_one(self, seed, basis):
        rng = np.random.default_rng(seed)
        reg = two_rail_register(random_state(rng, 2))
        p = reg.probabilities("a", basis)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= 0).all()

    def test_probabilities_are_conditioned_on_survival(self):
        reg = two_rail_register(np.array([0.5, 0, 0, 0], dtype=complex))
        assert reg.probabilities("a", "z")[0] == pytest.approx(1.0)

    def test_collapse_preserves_attenuated_norm(self, rng):
        psi = pair_rows(0.6 * BELL_VECTORS[BellState.PHI_PLUS])
        assert np.vdot(psi, psi).real == pytest.approx(0.36)
        measure_photon(psi, "a", np.array([False]), rng.random(1))
        assert np.vdot(psi, psi).real == pytest.approx(0.36, abs=1e-12)

    def test_zero_state_rejected(self):
        reg = two_rail_register(np.zeros(4))
        with pytest.raises(ZeroNormError):
            reg.probabilities("a", "z")

    def test_unknown_basis_rejected(self):
        reg = make_bell(BellState.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.probabilities("a", "da")  # circular-diagonal is polarization-only


class TestSpinAndPolarizationHelpers:
    """The spin Hadamard the analyzer's readout applies: ``apply_one`` with HADAMARD."""

    @staticmethod
    def spin_register(amps):
        return QuantumRegister(
            [Subsystem("s", Kind.SPIN)], np.asarray(amps, dtype=complex)
        )

    def test_hadamard_spin_maps_plus_to_up(self):
        reg = self.spin_register([SQRT_HALF, SQRT_HALF])
        reg.apply_one("s", HADAMARD)
        assert np.allclose(reg.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_hadamard_spin_maps_minus_to_down(self):
        reg = self.spin_register([SQRT_HALF, -SQRT_HALF])
        reg.apply_one("s", HADAMARD)
        assert np.allclose(reg.amplitudes, [0.0, 1.0], atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hadamard_spin_involution(self, seed):
        rng = np.random.default_rng(seed)
        reg = self.spin_register(random_state(rng, 1))
        original = reg.amplitudes.copy()
        reg.apply_one("s", HADAMARD)
        reg.apply_one("s", HADAMARD)
        assert np.allclose(reg.amplitudes, original, atol=1e-12)

    def test_hadamard_spin_kind_check(self):
        # The parity pass, which the spin Hadamard follows, accepts only a spin.
        reg = make_bell(BellState.PHI_PLUS, with_polarization="R")
        reg.add_subsystem(Subsystem("spin", Kind.SPATIAL), [SQRT_HALF, SQRT_HALF])
        with pytest.raises(SubsystemKindError):
            parity_qnd(reg)


class TestAddRemove:
    def test_add_then_remove_round_trip(self):
        reg = two_rail_register(0.5 * BELL_VECTORS[BellState.PSI_MINUS])
        original = reg.amplitudes.copy()
        reg.add_subsystem(Subsystem("p", Kind.POLARIZATION), [0.6, 0.8])
        assert [s.name for s in reg.subsystems] == ["a", "b", "p"]
        assert reg.norm_squared() == pytest.approx(0.25, abs=1e-12)
        # The new subsystem is the last factor: contracting it away with its
        # own state gives back the register it was added to.
        rest = reg.amplitudes.reshape(4, 2) @ np.array([0.6, 0.8])
        assert np.allclose(rest, original, atol=1e-12)

    def test_add_duplicate_name_rejected(self):
        reg = make_bell(BellState.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.add_subsystem(Subsystem("a", Kind.POLARIZATION), [1.0, 0.0])

    def test_add_wrong_length_rejected(self):
        reg = make_bell(BellState.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.add_subsystem(Subsystem("p", Kind.POLARIZATION), [1.0, 0.0, 0.0])


class TestEquality:
    def test_copy_is_independent(self):
        # The constructor copies the subsystem list and the amplitudes.
        reg = make_bell(BellState.PHI_PLUS)
        dup = QuantumRegister(reg.subsystems, reg.amplitudes)
        dup.amplitudes[0] = 0.0
        dup.add_subsystem(Subsystem("p", Kind.POLARIZATION), [1.0, 0.0])
        assert reg.amplitudes[0] != 0.0
        assert [s.name for s in reg.subsystems] == ["a", "b"]
