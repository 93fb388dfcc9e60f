import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import same_up_to_global_phase
from spatialbsa.bsa import (
    BsaRecord,
    DecoherenceParams,
    DetectorPair,
    analyze,
    classify,
    decoherence_factor,
    outcome_distribution,
    parity_qnd,
    quality,
    quality_from_moduli,
)
from spatialbsa.cavity import CavityParams, operating_point, reflection
from spatialbsa.register import (
    BellState,
    Kind,
    QuantumRegister,
    SQRT_HALF,
    Subsystem,
    make_bell,
)

# Percentages quoted for the three reference operating points, derived
# independently at 30-digit precision during test design.
ANCHORS = [
    (2.4, 0.0, 0.999888, 0.981421),
    (2.4, 0.7, 0.696063, 0.532472),
    (1.0, 0.7, 0.713269, 0.478286),
]


def prepared_register(amplitudes):
    """Two spatial photons with R polarizations and a |+> spin, explicit amps."""
    reg = QuantumRegister(
        [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
        np.asarray(amplitudes, dtype=complex),
    )
    reg.add_subsystem(Subsystem("a_pol", Kind.POLARIZATION), [1.0, 0.0])
    reg.add_subsystem(Subsystem("b_pol", Kind.POLARIZATION), [1.0, 0.0])
    reg.add_subsystem(Subsystem("spin", Kind.SPIN), [SQRT_HALF, SQRT_HALF])
    return reg


def spin_minus_weight(reg):
    return reg.probabilities("spin", "x")[1]


class TestParityCheck:
    def test_even_states_leave_spin_plus(self):
        for label in (BellState.PHI_PLUS, BellState.PHI_MINUS):
            reg = prepared_register(make_bell(label).amplitudes)
            parity_qnd(reg)
            assert spin_minus_weight(reg) == pytest.approx(0.0, abs=1e-12)
            expected = prepared_register(make_bell(label).amplitudes)
            assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_odd_states_flip_spin_to_minus(self):
        for label in (BellState.PSI_PLUS, BellState.PSI_MINUS):
            reg = prepared_register(make_bell(label).amplitudes)
            parity_qnd(reg)
            assert spin_minus_weight(reg) == pytest.approx(1.0, abs=1e-12)
            expected = prepared_register(make_bell(label).amplitudes)
            expected.apply_one("spin", np.array([[1, 0], [0, -1]], dtype=complex))
            # spin rotated |+> -> |->, photons untouched, modulo global phase
            assert same_up_to_global_phase(reg.amplitudes, expected.amplitudes)

    def test_pair_on_second_rails_is_left_alone(self):
        amps = np.zeros(4, dtype=complex)
        amps[3] = 1.0  # both photons on rail 2, nothing meets the cavity
        reg = prepared_register(amps)
        before = reg.amplitudes.copy()
        parity_qnd(reg)
        assert np.allclose(reg.amplitudes, before, atol=1e-15)

    def test_photon_state_is_not_measured(self, rng):
        # Parity is imprinted without collapsing superpositions within the
        # even or odd subspace.
        for label in BellState:
            reg = prepared_register(make_bell(label).amplitudes)
            parity_qnd(reg)
            p = reg.probabilities("a", "z")
            assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_requires_spin_in_plus_minus_subspace(self):
        reg = prepared_register(make_bell(BellState.PHI_PLUS).amplitudes)
        reg.apply_one("spin", np.array([[1, 0], [0, -1]], dtype=complex) @
                      (np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
        # spin now |up>-like superposition of |+>,|->: reject
        with pytest.raises(ValueError):
            parity_qnd(reg)

    def test_oracle_equivalence_on_random_states(self, rng):
        for _ in range(100):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            reg = prepared_register(amps)
            parity_qnd(reg)
            odd_weight = abs(amps[1]) ** 2 + abs(amps[2]) ** 2
            assert spin_minus_weight(reg) == pytest.approx(odd_weight, abs=1e-9)


class TestSpinReadout:
    """The readout photon's verdict: k in the exact distribution, ``spin_changed`` in a run."""

    def test_plus_reads_unchanged(self, rng):
        # An even-parity pair leaves the spin in |+>.
        for label in (BellState.PHI_PLUS, BellState.PHI_MINUS):
            assert outcome_distribution(label).weights[1] == pytest.approx(0.0, abs=1e-12)
            for _ in range(20):
                assert not analyze(label, rng=rng).spin_changed

    def test_minus_reads_changed(self, rng):
        # An odd-parity pair flips the spin to |->.
        for label in (BellState.PSI_PLUS, BellState.PSI_MINUS):
            assert outcome_distribution(label).weights[0] == pytest.approx(0.0, abs=1e-12)
            for _ in range(20):
                assert analyze(label, rng=rng).spin_changed

    def test_auxiliary_photon_is_removed(self, rng):
        # The spin and the readout photon exist only inside the analyzer.
        reg = make_bell(BellState.PSI_PLUS, with_polarization="R")
        names_before = [s.name for s in reg.subsystems]
        analyze(reg, rng=rng)
        assert [s.name for s in reg.subsystems] == names_before

    def test_balanced_superposition_reads_both_ways(self):
        # Equal even and odd weight leaves the spin in |up>, half |+> and half |->.
        reg = QuantumRegister(
            [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
            np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2),
        )
        assert outcome_distribution(reg).weights[0:2] == pytest.approx((0.5, 0.5), abs=1e-12)
        rng = np.random.default_rng(7)
        trials = 2000
        hits = sum(analyze(reg, rng=rng).spin_changed for _ in range(trials))
        assert abs(hits / trials - 0.5) < 0.04


class TestDetectAndClassify:
    def test_basis_states_hit_their_detectors(self, scripted_rng):
        # After the splitters phi+ sits on rails (1, 1) and (2, 2), phi- on
        # (1, 2) and (2, 1).  Photon a's draw picks its rail, photon b's rail
        # follows, and rail j of photon a clicks c(j+1), rail l of b d(l+1).
        table = {
            DetectorPair.C1D1: (BellState.PHI_PLUS, 0.25),
            DetectorPair.C2D2: (BellState.PHI_PLUS, 0.75),
            DetectorPair.C1D2: (BellState.PHI_MINUS, 0.25),
            DetectorPair.C2D1: (BellState.PHI_MINUS, 0.75),
        }
        for pair, (label, u_a) in table.items():
            assert analyze(label, rng=scripted_rng([0.5, u_a, 0.5])).detectors is pair

    def test_equal_pair_split_is_balanced(self):
        rng = np.random.default_rng(11)
        counts = {DetectorPair.C1D1: 0, DetectorPair.C2D2: 0}
        trials = 1000
        for _ in range(trials):
            counts[analyze(BellState.PHI_PLUS, rng=rng).detectors] += 1
        assert abs(counts[DetectorPair.C1D1] / trials - 0.5) < 0.05

    def test_classification_table(self):
        expected = {
            (False, DetectorPair.C1D1): BellState.PHI_PLUS,
            (False, DetectorPair.C2D2): BellState.PHI_PLUS,
            (False, DetectorPair.C1D2): BellState.PHI_MINUS,
            (False, DetectorPair.C2D1): BellState.PHI_MINUS,
            (True, DetectorPair.C1D1): BellState.PSI_PLUS,
            (True, DetectorPair.C2D2): BellState.PSI_PLUS,
            (True, DetectorPair.C1D2): BellState.PSI_MINUS,
            (True, DetectorPair.C2D1): BellState.PSI_MINUS,
        }
        for (changed, pair), label in expected.items():
            assert classify(changed, pair) is label


class TestAnalyze:
    def test_every_label_classified_correctly(self, rng):
        for label in BellState:
            for _ in range(50):
                record = analyze(label, rng=rng)
                assert record.inferred is label
                assert record.spin_changed == (label in (BellState.PSI_PLUS, BellState.PSI_MINUS))
                assert record.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_detectors_stay_in_the_valid_set(self, rng):
        valid = {
            BellState.PHI_PLUS: {DetectorPair.C1D1, DetectorPair.C2D2},
            BellState.PHI_MINUS: {DetectorPair.C1D2, DetectorPair.C2D1},
            BellState.PSI_PLUS: {DetectorPair.C1D1, DetectorPair.C2D2},
            BellState.PSI_MINUS: {DetectorPair.C1D2, DetectorPair.C2D1},
        }
        for label, pairs in valid.items():
            seen = {analyze(label, rng=rng).detectors for _ in range(40)}
            assert seen <= pairs

    def test_input_register_is_not_consumed(self, rng):
        reg = make_bell(BellState.PSI_MINUS)
        before = reg.amplitudes.copy()
        analyze(reg, rng=rng)
        assert np.array_equal(reg.amplitudes, before)

    def test_product_state_flips_spin_half_the_time(self):
        rng = np.random.default_rng(23)
        amps = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
        flips = sum(
            analyze(
                QuantumRegister(
                    [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)],
                    amps.copy(),
                ),
                rng=rng,
            ).spin_changed
            for _ in range(1000)
        )
        assert abs(flips / 1000 - 0.5) < 0.05

    def test_lossy_mode_reports_survival(self, rng):
        params = operating_point(2.4, 0.7)
        record = analyze(BellState.PHI_PLUS, params=params, rng=rng)
        assert 0.0 < record.success_probability < 1.0

    def test_lossy_survival_on_pass_free_state(self, rng):
        # Both photons on rail 2 never meet the cavity, so the only loss is
        # the readout photon's single pass.
        params = operating_point(1.0, 0.7)
        r0 = abs(reflection(params, coupled=False))
        rh = abs(reflection(params, coupled=True))
        amps = np.zeros(4, dtype=complex)
        amps[3] = 1.0
        reg = QuantumRegister(
            [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)], amps
        )
        record = analyze(reg, params=params, rng=rng)
        assert record.success_probability == pytest.approx(
            0.5 * (r0**2 + rh**2), abs=1e-12
        )

    def test_record_fields(self, rng):
        record = analyze(BellState.PHI_MINUS, rng=rng)
        assert isinstance(record, BsaRecord)
        assert record.inferred is classify(record.spin_changed, record.detectors)


class TestQuality:
    def test_reference_operating_points(self):
        for g_over_ktot, ks, f1, eta1 in ANCHORS:
            point = quality(operating_point(g_over_ktot, ks))
            assert point.F1 == pytest.approx(f1, abs=5e-6)
            assert point.eta1 == pytest.approx(eta1, abs=5e-6)

    def test_lossless_limit_identities(self):
        f1, eta1, f2, eta2 = quality_from_moduli(1.0, 1.0)
        assert f1 == 1.0
        assert eta1 == 1.0
        assert f2 == 1.0
        assert eta2 == 1.5

    def test_zero_coupling_collapses_to_cold_response(self):
        for ks in (0.0, 0.3, 0.7):
            point = quality(operating_point(0.0, ks))
            assert point.abs_rh == pytest.approx(point.abs_r0, abs=1e-12)
            f1, eta1, f2, eta2 = quality_from_moduli(point.abs_r0, point.abs_r0)
            assert point.F1 == pytest.approx(f1, abs=1e-12)
            assert point.eta1 == pytest.approx(eta1, abs=1e-12)

    def test_figures_rise_toward_one_at_strong_coupling(self):
        # Below g/k_tot ~ 0.7 the curves dip; beyond it they climb to 1.
        values = [quality(operating_point(g, 0.0)) for g in np.linspace(0.8, 12.0, 25)]
        for attr in ("F1", "eta1", "F2"):
            series = [getattr(v, attr) for v in values]
            assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
            assert series[-1] > 0.999

    @settings(deadline=None)
    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_fidelities_are_probabilities(self, r0, rh):
        f1, eta1, f2, eta2 = quality_from_moduli(r0, rh)
        assert -1e-12 <= f1 <= 1.0 + 1e-12
        assert -1e-12 <= f2 <= 1.0 + 1e-12
        assert -1e-12 <= eta1 <= 1.0 + 1e-12
        assert 0.5 - 1e-12 <= eta2 <= 1.5 + 1e-12

    @settings(deadline=None, max_examples=500)
    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_fidelities_are_products_of_pass_fidelities(self, r0, rh):
        # The spin's fidelity to its ideal state after one pass (S), two
        # passes (D) and four (Q); F2's |22> term does not pass at all.
        s = (r0 + rh) ** 2 / (2 * (r0**2 + rh**2))
        d = (r0**2 + rh**2) ** 2 / (2 * (r0**4 + rh**4))
        q = (r0**4 + rh**4) ** 2 / (2 * (r0**8 + rh**8))
        f1, _, f2, _ = quality_from_moduli(r0, rh)
        assert f1 == pytest.approx(s * d, rel=1e-14, abs=0)
        assert f2 == pytest.approx(0.5 * s * (q + 1), rel=1e-14, abs=0)

    def test_point_records_grid_coordinates(self):
        point = quality(operating_point(2.4, 0.7))
        assert point.g_over_ktot == pytest.approx(2.4)
        assert point.ks_over_k == pytest.approx(0.7)


class TestClosedFormGap:
    """The exact analyzer against the closed-form fidelities, uncompensated.

    Accuracy is P(inferred = input | every photon arrives).  The closed
    forms read only |r0| and |rh|, while the sign check also sees the phase
    difference of the two reflections, so the two disagree: by a few
    percent at the CLI default point, and completely on resonance, where
    the analyzer is a coin flip yet F1 and F2 stay near 1.
    """

    @staticmethod
    def accuracy(label, params):
        dist = outcome_distribution(label, params)
        hits = sum(
            dist.joint[k, j, l]
            for k in (0, 1)
            for j in (0, 1)
            for l in (0, 1)
            if classify(bool(k), DetectorPair[f"C{j + 1}D{l + 1}"]) is label
        )
        return hits / dist.success

    @pytest.mark.parametrize(
        "ks, detuning, phi_acc, psi_acc, f2, f1",
        [
            (0.0, 0.5, 0.973820, 0.989678, 0.999798, 0.999888),
            (0.0, 0.0, 0.499926, 0.500000, 0.999831, 0.999906),
            # Near the two detunings where the phase difference is pi/2,
            # at the rounded values ROADMAP lists
            (0.0, 0.5534, 0.959216, 0.999883, 0.999790, 0.999883),
            (0.0, 2.0224, 0.318314, 0.992948, 0.987612, 0.992940),
            # Side leakage at the CLI default detuning
            (0.7, 0.5, 0.704198, 0.693394, 0.721865, 0.696063),
        ],
    )
    def test_measured_gap(self, ks, detuning, phi_acc, psi_acc, f2, f1):
        params = operating_point(2.4, ks, detuning=detuning)
        for label in (BellState.PHI_PLUS, BellState.PHI_MINUS):
            assert self.accuracy(label, params) == pytest.approx(phi_acc, abs=1e-5)
        for label in (BellState.PSI_PLUS, BellState.PSI_MINUS):
            assert self.accuracy(label, params) == pytest.approx(psi_acc, abs=1e-5)
        point = quality(params)
        assert point.F2 == pytest.approx(f2, abs=1e-5)
        assert point.F1 == pytest.approx(f1, abs=1e-5)


class TestDecoherence:
    def test_equal_gap_and_coherence_time(self):
        value = decoherence_factor(DecoherenceParams(delta_t=5.0, t2e=5.0))
        assert value == pytest.approx(0.5 * (1.0 + np.exp(-1.0)), abs=1e-12)

    def test_limits(self):
        fast = decoherence_factor(DecoherenceParams(delta_t=1e-6, t2e=1.0))
        slow = decoherence_factor(DecoherenceParams(delta_t=1e3, t2e=1.0))
        assert abs(fast - 1.0) < 1e-6
        assert abs(slow - 0.5) < 1e-12

    def test_monotone_decay(self):
        gaps = np.linspace(0.1, 10.0, 40)
        values = [
            decoherence_factor(DecoherenceParams(delta_t=g, t2e=3.0)) for g in gaps
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kwargs", [{"delta_t": 0.0, "t2e": 1.0},
                                        {"delta_t": 1.0, "t2e": -2.0},
                                        {"delta_t": "1", "t2e": 2.0},
                                        {"delta_t": 1.0, "t2e": None},
                                        {"delta_t": 10**400, "t2e": 1.0}])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecoherenceParams(**kwargs)
