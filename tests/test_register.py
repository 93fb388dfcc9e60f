import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialbsa.bsa import parity_qnd
from spatialbsa.register import (
    BellState,
    HADAMARD,
    Kind,
    QuantumRegister,
    RailOp,
    SQRT_HALF,
    Subsystem,
    SubsystemKindError,
    ZeroNormError,
    apply_bs,
    apply_spatial_unitary,
    make_bell,
)

BELL_VECTORS = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * SQRT_HALF,
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * SQRT_HALF,
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * SQRT_HALF,
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * SQRT_HALF,
}

RAIL_OP_MATRICES = {
    RailOp.IDENTITY: np.eye(2),
    RailOp.SWAP: np.array([[0, 1], [1, 0]]),
    RailOp.PHASE: np.array([[1, 0], [0, -1]]),
    RailOp.SWAP_PHASE: np.array([[0, 1], [-1, 0]]),
}


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


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

    def test_parity_labels(self):
        assert BellState.PHI_PLUS.even_parity
        assert BellState.PHI_MINUS.even_parity
        assert not BellState.PSI_PLUS.even_parity
        assert not BellState.PSI_MINUS.even_parity

    def test_from_string_round_trip(self):
        for label in BellState:
            assert BellState.from_string(label.value) is label
        with pytest.raises(ValueError):
            BellState.from_string("phi")

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
            assert reg.equal_up_to_global_phase(make_bell(after), atol=1e-12)
            # amplitude-level check against the expected vector
            overlap = np.vdot(BELL_VECTORS[after], reg.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        reg = two_rail_register(random_state(rng, 2))
        original = reg.copy()
        apply_bs(reg, "a")
        apply_bs(reg, "a")
        assert np.allclose(reg.amplitudes, original.amplitudes, atol=1e-12)

    def test_requires_spatial_kind(self):
        reg = make_bell(BellState.PHI_PLUS, with_polarization="R")
        with pytest.raises(SubsystemKindError):
            apply_bs(reg, "a_pol")


class TestRailOps:
    def test_ops_match_explicit_matrices(self, rng):
        for op, matrix in RAIL_OP_MATRICES.items():
            state = random_state(rng, 2)
            reg = two_rail_register(state)
            apply_spatial_unitary(reg, "a", op)
            expected = np.kron(matrix, np.eye(2)) @ state
            assert np.allclose(reg.amplitudes, expected, atol=1e-12)

    def test_ops_move_phi_plus_around_the_bell_basis(self):
        landing = {
            RailOp.IDENTITY: BellState.PHI_PLUS,
            RailOp.SWAP: BellState.PSI_PLUS,
            RailOp.PHASE: BellState.PHI_MINUS,
            RailOp.SWAP_PHASE: BellState.PSI_MINUS,
        }
        for op, target in landing.items():
            reg = make_bell(BellState.PHI_PLUS)
            apply_spatial_unitary(reg, "a", op)
            assert reg.equal_up_to_global_phase(make_bell(target), atol=1e-12)

    def test_ops_preserve_norm(self, rng):
        for op in RailOp:
            reg = two_rail_register(random_state(rng, 2))
            apply_spatial_unitary(reg, "a", op)
            assert reg.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_requires_spatial_kind(self):
        reg = make_bell(BellState.PHI_PLUS, with_polarization="R")
        with pytest.raises(SubsystemKindError):
            apply_spatial_unitary(reg, "b_pol", RailOp.SWAP)


class TestMeasurement:
    def test_collapse_correlates_bell_pair(self, rng):
        for _ in range(50):
            reg = make_bell(BellState.PHI_PLUS)
            a_out, _, p = reg.measure("a", "z", rng)
            assert p == pytest.approx(0.5)
            b_out, _, p_b = reg.measure("b", "z", rng)
            assert b_out == a_out
            assert p_b == pytest.approx(1.0)

    def test_probabilities_query_does_not_collapse(self):
        reg = make_bell(BellState.PHI_PLUS)
        before = reg.amplitudes.copy()
        assert np.allclose(reg.probabilities("a", "z"), [0.5, 0.5])
        assert np.array_equal(reg.amplitudes, before)

    def test_spatial_x_on_even_superposition_is_deterministic(self, scripted_rng):
        # (|1> + |2>)/sqrt(2) is the outcome-0 eigenstate of the spatial
        # x basis, so any uniform draw must return outcome 0 with p = 1.
        for draw in (0.001, 0.5, 0.999):
            reg = QuantumRegister(
                [Subsystem("a", Kind.SPATIAL)],
                np.array([SQRT_HALF, SQRT_HALF], dtype=complex),
            )
            outcome, _, p = reg.measure("a", "x", scripted_rng([draw]))
            assert outcome == 0
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_single_uniform_inversion(self, scripted_rng):
        for draw, expected in [(0.49, 0), (0.51, 1)]:
            reg = two_rail_register([SQRT_HALF, 0, 0, SQRT_HALF])
            outcome, _, _ = reg.measure("a", "z", scripted_rng([draw]))
            assert outcome == expected

    def test_same_seed_same_outcomes(self):
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            reg = two_rail_register(random_state(np.random.default_rng(1), 2))
            outcomes.append(
                [reg.measure("a", "x", rng)[0], reg.measure("b", "z", rng)[0]]
            )
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
        reg = two_rail_register(0.6 * BELL_VECTORS[BellState.PHI_PLUS])
        assert reg.norm_squared() == pytest.approx(0.36)
        reg.measure("a", "z", rng)
        assert reg.norm_squared() == pytest.approx(0.36, abs=1e-12)

    def test_zero_state_rejected(self, rng):
        reg = two_rail_register(np.zeros(4))
        with pytest.raises(ZeroNormError):
            reg.measure("a", "z", rng)
        with pytest.raises(ZeroNormError):
            reg.probabilities("a", "z")

    def test_unknown_basis_rejected(self, rng):
        reg = make_bell(BellState.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.measure("a", "da", rng)  # circular-diagonal is polarization-only


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
        with pytest.raises(SubsystemKindError):
            parity_qnd(reg, spin_name="a")


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
    def test_global_phase_is_ignored(self):
        reg = make_bell(BellState.PHI_MINUS)
        rotated = reg.copy()
        rotated.amplitudes = rotated.amplitudes * np.exp(0.7j)
        assert reg.equal_up_to_global_phase(rotated, atol=1e-12)

    def test_orthogonal_states_differ(self):
        assert not make_bell(BellState.PHI_PLUS).equal_up_to_global_phase(
            make_bell(BellState.PSI_PLUS)
        )

    def test_layout_mismatch_differs(self):
        reg = make_bell(BellState.PHI_PLUS)
        other = QuantumRegister(
            [Subsystem("a", Kind.SPATIAL), Subsystem("c", Kind.SPATIAL)],
            BELL_VECTORS[BellState.PHI_PLUS].copy(),
        )
        assert not reg.equal_up_to_global_phase(other)

    def test_copy_is_independent(self):
        reg = make_bell(BellState.PHI_PLUS)
        dup = reg.copy()
        dup.amplitudes[0] = 0.0
        assert reg.amplitudes[0] != 0.0
