import json

import numpy as np
import pytest

from spatialbsa.bsa import analyze
from spatialbsa.qsdc import (
    BITS_BY_BELL,
    ChannelModel,
    EveModel,
    OP_BY_BITS,
    QsdcConfig,
    SessionReport,
    apply_channel,
    eve_intercept_resend,
    phase1_sample_count,
    run_session,
    transcript_jsonl,
)
from spatialbsa.register import (
    BellState,
    Kind,
    QuantumRegister,
    RailOp,
    Subsystem,
    apply_spatial_unitary,
    make_bell,
)


def single_rail_register(amps):
    return QuantumRegister(
        [Subsystem("a", Kind.SPATIAL)], np.asarray(amps, dtype=complex)
    )


def phase1_rate(report, basis):
    events = [
        e
        for e in report.transcript
        if e["event"] == "phase1_sample" and e["basis"] == basis
    ]
    assert events, f"no {basis} samples in transcript"
    return sum(0 if e["agree"] else 1 for e in events) / len(events)


class TestDenseCodingMaps:
    def test_bit_op_bell_tables_are_consistent(self):
        assert OP_BY_BITS["00"] is RailOp.IDENTITY
        assert OP_BY_BITS["01"] is RailOp.SWAP
        assert OP_BY_BITS["10"] is RailOp.PHASE
        assert OP_BY_BITS["11"] is RailOp.SWAP_PHASE
        assert BITS_BY_BELL[BellState.PHI_PLUS] == "00"
        assert BITS_BY_BELL[BellState.PSI_PLUS] == "01"
        assert BITS_BY_BELL[BellState.PHI_MINUS] == "10"
        assert BITS_BY_BELL[BellState.PSI_MINUS] == "11"

    def test_round_trip_identity_all_values_all_seeds(self):
        for bits, op in OP_BY_BITS.items():
            for seed in range(5):
                reg = make_bell(BellState.PHI_PLUS)
                apply_spatial_unitary(reg, "a", op)
                record = analyze(reg, rng=np.random.default_rng(seed))
                assert BITS_BY_BELL[record.inferred] == bits


class TestEve:
    def test_z_pick_leaves_rail_eigenstate_alone(self, scripted_rng):
        reg = single_rail_register([1.0, 0.0])
        eve_intercept_resend(reg, "a", scripted_rng([0.2, 0.9]))
        assert np.allclose(reg.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_z_pick_collapses_superposition_both_ways(self, scripted_rng):
        sq = 1.0 / np.sqrt(2.0)
        reg = single_rail_register([sq, sq])
        eve_intercept_resend(reg, "a", scripted_rng([0.2, 0.25]))
        assert np.allclose(np.abs(reg.amplitudes), [1.0, 0.0], atol=1e-12)
        reg = single_rail_register([sq, sq])
        eve_intercept_resend(reg, "a", scripted_rng([0.2, 0.75]))
        assert np.allclose(np.abs(reg.amplitudes), [0.0, 1.0], atol=1e-12)

    def test_x_pick_keeps_plus_superposition(self, scripted_rng):
        sq = 1.0 / np.sqrt(2.0)
        reg = single_rail_register([sq, sq])
        eve_intercept_resend(reg, "a", scripted_rng([0.7, 0.3]))
        assert np.allclose(reg.amplitudes, [sq, sq], atol=1e-12)

    def test_attack_breaks_pair_entanglement(self, rng):
        reg = make_bell(BellState.PHI_PLUS)
        eve_intercept_resend(reg, "a", rng)
        # the pair is now a product state, so photon a factors out
        reg.remove_subsystem("a")

    def test_matched_basis_error_is_one_quarter_analytically(self):
        # Enumerate the full tree (check basis x Eve basis x Eve outcome)
        # with plain linear algebra, independent of the register machinery.
        sq = 1.0 / np.sqrt(2.0)
        phi_plus = np.array([1, 0, 0, 1], dtype=complex) * sq
        z = [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
        x = [np.array([sq, sq], complex), np.array([sq, -sq], complex)]
        error = 0.0
        for check_basis in (z, x):
            for eve_basis in (z, x):
                for ev in eve_basis:
                    project_a = np.kron(np.outer(ev, ev.conj()), np.eye(2))
                    post = project_a @ phi_plus
                    p_eve = float(np.vdot(post, post).real)
                    if p_eve == 0.0:
                        continue
                    post /= np.sqrt(p_eve)
                    p_disagree = 0.0
                    for i, va in enumerate(check_basis):
                        for j, vb in enumerate(check_basis):
                            if i != j:
                                amp = np.vdot(np.kron(va, vb), post)
                                p_disagree += abs(amp) ** 2
                    error += 0.5 * 0.5 * p_eve * p_disagree
        assert error == pytest.approx(0.25, abs=1e-12)


class TestChannel:
    def test_identity_channel_draws_twice_and_does_nothing(self, scripted_rng):
        reg = make_bell(BellState.PHI_PLUS)
        before = reg.amplitudes.copy()
        rng = scripted_rng([0.3, 0.6])
        apply_channel(reg, "a", ChannelModel(), rng)
        assert np.array_equal(reg.amplitudes, before)
        assert rng._draws == []

    def test_certain_mode_flip_swaps_rails(self, scripted_rng):
        reg = single_rail_register([1.0, 0.0])
        apply_channel(reg, "a", ChannelModel(mode_flip_prob=1.0), scripted_rng([0.99, 0.5]))
        assert np.allclose(reg.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_phase_flip_turns_phi_plus_into_phi_minus(self, scripted_rng):
        reg = make_bell(BellState.PHI_PLUS)
        apply_channel(reg, "a", ChannelModel(phase_flip_prob=1.0), scripted_rng([0.5, 0.5]))
        assert reg.equal_up_to_global_phase(make_bell(BellState.PHI_MINUS), atol=1e-12)
        # the analyzer then reads the identity encoding as the phase encoding
        record = analyze(reg, rng=np.random.default_rng(0))
        assert BITS_BY_BELL[record.inferred] == "10"

    @pytest.mark.parametrize("kwargs", [{"mode_flip_prob": -0.1},
                                        {"phase_flip_prob": 1.5}])
    def test_invalid_probabilities_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelModel(**kwargs)


class TestConfigValidation:
    def test_sample_count_rounding(self):
        config = QsdcConfig(message_bits="01", pair_count=100, sample_fraction=0.1)
        assert phase1_sample_count(config) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"message_bits": ""},
            {"message_bits": "101"},
            {"message_bits": "0a"},
            {"message_bits": "01", "pair_count": 0},
            {"message_bits": "01", "sample_fraction": 0.0},
            {"message_bits": "01", "sample_fraction": 1.0},
            {"message_bits": "01", "qber_abort_threshold": -0.2},
            {"message_bits": "01", "seed": -1},
            {"message_bits": "01", "qber_abort_threshold": float("nan")},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        kwargs.setdefault("pair_count", 50)
        with pytest.raises(ValueError):
            QsdcConfig(**kwargs)

    def test_infeasible_pair_budget_rejected(self):
        with pytest.raises(ValueError):
            QsdcConfig(message_bits="01" * 32, pair_count=20, sample_fraction=0.1)

    def test_sample_fraction_rounding_to_zero_rejected(self):
        with pytest.raises(ValueError):
            QsdcConfig(message_bits="01", pair_count=3, sample_fraction=0.1)

    def test_eve_model_validation(self):
        with pytest.raises(ValueError):
            EveModel(kind="mitm")
        with pytest.raises(ValueError):
            EveModel(kind="intercept_resend", fraction=1.5)
        with pytest.raises(ValueError):
            EveModel(kind="none", fraction=0.5)
        assert not EveModel.none().active
        assert EveModel.intercept_resend().fraction == 1.0


class TestSessions:
    def test_clean_session_round_trip(self):
        message = "1011000110" * 6 + "0110"  # 64 bits
        for seed in (0, 1, 2):
            config = QsdcConfig(
                message_bits=message, pair_count=80, sample_fraction=0.1, seed=seed
            )
            report = run_session(config)
            assert not report.aborted
            assert report.phase1_qber == 0.0
            assert report.decoded_bits == message
            assert report.phase2_sample_error_rate == 0.0

    def test_same_seed_reproduces_report_exactly(self):
        config = QsdcConfig(
            message_bits="1100",
            pair_count=60,
            sample_fraction=0.2,
            eve_model=EveModel.intercept_resend(0.4),
            channel_model=ChannelModel(mode_flip_prob=0.05),
            seed=424242,
        )
        first, second = run_session(config), run_session(config)
        assert first == second
        assert json.dumps(first.transcript) == json.dumps(second.transcript)

    def test_full_interception_aborts_with_quarter_qber(self):
        config = QsdcConfig(
            message_bits="01",
            pair_count=4000,
            sample_fraction=0.5,
            eve_model=EveModel.intercept_resend(1.0),
            seed=31,
        )
        report = run_session(config)
        assert abs(report.phase1_qber - 0.25) < 0.04
        assert report.aborted
        assert report.decoded_bits == ""
        assert report.phase2_sample_error_rate == 0.0
        assert not any(e["event"].startswith("phase2") for e in report.transcript)

    def test_half_interception_halves_the_error_rate(self):
        config = QsdcConfig(
            message_bits="01",
            pair_count=4000,
            sample_fraction=0.5,
            eve_model=EveModel.intercept_resend(0.5),
            qber_abort_threshold=1.0,
            seed=8,
        )
        report = run_session(config)
        assert abs(report.phase1_qber - 0.125) < 0.03

    def test_mode_flips_show_only_in_z_samples(self):
        config = QsdcConfig(
            message_bits="01",
            pair_count=4000,
            sample_fraction=0.5,
            channel_model=ChannelModel(mode_flip_prob=0.2),
            qber_abort_threshold=1.0,
            seed=13,
        )
        report = run_session(config)
        assert abs(phase1_rate(report, "z") - 0.2) < 0.04
        assert phase1_rate(report, "x") == 0.0

    def test_phase_flips_show_only_in_x_samples(self):
        config = QsdcConfig(
            message_bits="01",
            pair_count=4000,
            sample_fraction=0.5,
            channel_model=ChannelModel(phase_flip_prob=0.2),
            qber_abort_threshold=1.0,
            seed=14,
        )
        report = run_session(config)
        assert abs(phase1_rate(report, "x") - 0.2) < 0.04
        assert phase1_rate(report, "z") == 0.0

    def test_transcript_structure(self):
        config = QsdcConfig(
            message_bits="0110", pair_count=40, sample_fraction=0.2, seed=3
        )
        report = run_session(config)
        events = [e["event"] for e in report.transcript]
        assert events.count("phase1_sample") == 8
        assert events.count("phase1_summary") == 1
        assert events.count("phase2_pair") == 32
        assert events[-1] == "phase2_summary"
        roles = [e["role"] for e in report.transcript if e["event"] == "phase2_pair"]
        assert roles.count("message") == 2
        assert roles.count("check") == 30
        for event in report.transcript:
            json.dumps(event)  # every event must be plainly serializable

    def test_transcript_jsonl_round_trip(self):
        config = QsdcConfig(message_bits="01", pair_count=30, sample_fraction=0.2, seed=5)
        report = run_session(config)
        lines = transcript_jsonl(report).splitlines()
        assert len(lines) == len(report.transcript)
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(e, sort_keys=True)) for e in report.transcript
        ]

    def test_report_is_a_plain_dataclass(self):
        config = QsdcConfig(message_bits="01", pair_count=30, sample_fraction=0.2, seed=5)
        report = run_session(config)
        assert isinstance(report, SessionReport)
        assert (report.decoded_bits == "") == report.aborted
