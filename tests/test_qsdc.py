import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import RAIL_OPS, ScriptedRng, encode, measure, same_up_to_global_phase
from spatialbsa.bsa import CODE_BELL, analyze, analyze_pairs, outcome_distribution
from spatialbsa.qsdc import (
    CODE_BITS,
    MAX_PAIR_COUNT,
    ChannelModel,
    EveModel,
    QsdcConfig,
    SessionReport,
    _draw_trips,
    apply_channel,
    bell_pairs,
    eve_intercept_resend,
    measure_photon,
    phase1_sample_count,
    run_session,
    transcript_jsonl,
)
from spatialbsa.register import BellState, Kind, QuantumRegister, Subsystem, make_bell


def travel_photon_rows(amps):
    # Photon a in ``amps``, its partner on rail 1: one row of a pair array.
    return np.einsum("i,j->ij", np.asarray(amps, dtype=complex), [1.0, 0.0])[None]


def as_register(row):
    subsystems = [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)]
    return QuantumRegister(subsystems, row.reshape(4))


# Keep scripted uniforms this far from the probability they are compared
# with, so that rounding differences between two exact methods cannot flip
# a draw.
MARGIN = 1e-9


def pair_states():
    parts = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
    amps = parts.map(lambda p: np.array(p[:4]) + 1j * np.array(p[4:]))
    return amps.filter(lambda a: np.linalg.norm(a) > 1e-3).map(lambda a: a / np.linalg.norm(a))


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
        # A bit pair's code is the pair read as a binary number.
        assert [int(bits, 2) for bits in CODE_BITS] == [0, 1, 2, 3]
        bells = [BellState(label) for label in CODE_BELL]
        assert bells == [
            BellState.PHI_PLUS,
            BellState.PSI_PLUS,
            BellState.PHI_MINUS,
            BellState.PSI_MINUS,
        ]
        # The second bit is the swap, which makes the parity odd.
        even = (BellState.PHI_PLUS, BellState.PHI_MINUS)
        assert [bell in even for bell in bells] == [True, False, True, False]

    def test_round_trip_identity_all_values_all_seeds(self):
        for code in range(4):
            for seed in range(5):
                reg = as_register(encode(bell_pairs(1), [code])[0])
                record = analyze(reg, rng=np.random.default_rng(seed))
                assert record.inferred.value == CODE_BELL[code]


class TestPairArray:
    def test_rows_start_in_phi_plus(self):
        psi = bell_pairs(3)
        assert psi.shape == (3, 2, 2)
        for row in psi:
            assert np.array_equal(row.reshape(4), make_bell(BellState.PHI_PLUS).amplitudes)

    # The ids keep the names these four cases have always been reported under.
    @pytest.mark.parametrize(
        "code",
        range(4),
        ids=["RailOp.IDENTITY", "RailOp.SWAP", "RailOp.PHASE", "RailOp.SWAP_PHASE"],
    )
    def test_rail_ops_match_the_register_gates(self, code):
        want = make_bell(BellState.PHI_PLUS).apply_one("a", RAIL_OPS[code])
        psi = encode(bell_pairs(1), [code])
        assert np.array_equal(psi[0].reshape(4), want.amplitudes)

    @settings(max_examples=40, deadline=None)
    @given(
        amps=pair_states(),
        photon=st.sampled_from(["a", "b"]),
        basis=st.sampled_from(["z", "x"]),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_measure_matches_the_register(self, amps, photon, basis, u):
        reg = as_register(amps.copy())
        assume(abs(u - reg.probabilities(photon, basis)[0]) >= MARGIN)
        want, _, _ = measure(reg, photon, basis, ScriptedRng([u]))
        psi = amps.reshape(1, 2, 2).copy()
        got = measure_photon(psi, photon, np.array([basis == "x"]), np.array([u]))
        assert got.tolist() == [want]
        assert np.allclose(psi[0].reshape(4), reg.amplitudes, rtol=0.0, atol=1e-12)


class TestTripDraws:
    def test_trips_without_eve_draw_twice_each(self, scripted_rng):
        rng = scripted_rng([0.1, 0.2, 0.3, 0.4, 0.5])
        trips = _draw_trips(rng, 2, EveModel.none(), tail=0)
        assert trips.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert rng._draws == [0.5]

    def test_intercepted_trips_take_basis_and_outcome(self, scripted_rng):
        # Trip 0: channel 0.9 0.9, coin 0.2 < 0.5 so basis 0.6 and outcome
        # 0.7, then its tail draw 0.3.  Trip 1: coin 0.8 passes, tail 0.4.
        draws = [0.9, 0.9, 0.2, 0.6, 0.7, 0.3, 0.1, 0.1, 0.8, 0.4, 0.55]
        rng = scripted_rng(draws)
        trips = _draw_trips(rng, 2, EveModel.intercept_resend(0.5), tail=1)
        assert rng._draws == [0.55]
        assert trips[0].tolist() == [0.9, 0.9, 0.2, 0.6, 0.7, 0.3]
        assert trips[1, :3].tolist() == [0.1, 0.1, 0.8]
        assert np.isnan(trips[1, 3:5]).all()
        assert trips[1, 5] == 0.4

    @pytest.mark.parametrize(
        "eve, width",
        [
            (EveModel.none(), 2),
            (EveModel.intercept_resend(0.0), 3),
            (EveModel.intercept_resend(1.0), 5),
            (EveModel.intercept_resend(0.5), 5),
        ],
    )
    def test_row_layout(self, scripted_rng, eve, width):
        # Each trip draws its row in column order; the tail comes last.
        draws = [0.1 * (k + 1) for k in range(width + 2)]
        trips = _draw_trips(scripted_rng(list(draws)), 1, eve, tail=2)
        assert trips.tolist() == [draws]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        tail=st.integers(0, 3),
        seed=st.integers(0, 2**32),
    )
    def test_block_draws_equal_scalar_draws(self, n, fraction, tail, seed):
        eve = EveModel.intercept_resend(fraction)
        block_rng = np.random.default_rng(seed)
        trips = _draw_trips(block_rng, n, eve, tail)
        scalar_rng = np.random.default_rng(seed)
        want = []
        for _ in range(n):
            trip = [scalar_rng.random() for _ in range(3)]
            if trip[2] < fraction:
                trip += [scalar_rng.random(), scalar_rng.random()]
            elif fraction > 0.0:
                trip += [np.nan, np.nan]
            want.append(trip + [scalar_rng.random() for _ in range(tail)])
        np.testing.assert_array_equal(trips, want)
        assert block_rng.random() == scalar_rng.random()


class TestEve:
    def test_z_pick_leaves_rail_eigenstate_alone(self):
        psi = travel_photon_rows([1.0, 0.0])
        eve_intercept_resend(psi, np.array([[0.2, 0.9]]))
        assert np.allclose(psi[0, :, 0], [1.0, 0.0], atol=1e-12)

    def test_z_pick_collapses_superposition_both_ways(self):
        sq = 1.0 / np.sqrt(2.0)
        psi = travel_photon_rows([sq, sq])
        eve_intercept_resend(psi, np.array([[0.2, 0.25]]))
        assert np.allclose(np.abs(psi[0, :, 0]), [1.0, 0.0], atol=1e-12)
        psi = travel_photon_rows([sq, sq])
        eve_intercept_resend(psi, np.array([[0.2, 0.75]]))
        assert np.allclose(np.abs(psi[0, :, 0]), [0.0, 1.0], atol=1e-12)

    def test_x_pick_keeps_plus_superposition(self):
        sq = 1.0 / np.sqrt(2.0)
        psi = travel_photon_rows([sq, sq])
        eve_intercept_resend(psi, np.array([[0.7, 0.3]]))
        assert np.allclose(psi[0, :, 0], [sq, sq], atol=1e-12)

    def test_attack_breaks_pair_entanglement(self, rng):
        psi = eve_intercept_resend(bell_pairs(4), rng.random((4, 2)))
        # every row is now a product state: its 2x2 amplitude matrix has rank 1
        for row in psi:
            assert abs(row[0, 0] * row[1, 1] - row[0, 1] * row[1, 0]) < 1e-12

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
        psi = bell_pairs(1)
        before = psi.copy()
        rng = scripted_rng([0.3, 0.6])
        apply_channel(psi, ChannelModel(), _draw_trips(rng, 1, EveModel.none(), tail=0))
        assert np.array_equal(psi, before)
        assert rng._draws == []

    def test_certain_mode_flip_swaps_rails(self):
        psi = travel_photon_rows([1.0, 0.0])
        apply_channel(psi, ChannelModel(mode_flip_prob=1.0), np.array([[0.99, 0.5]]))
        assert np.allclose(psi[0, :, 0], [0.0, 1.0], atol=1e-12)

    def test_phase_flip_turns_phi_plus_into_phi_minus(self):
        channel = ChannelModel(phase_flip_prob=1.0)
        psi = apply_channel(bell_pairs(1), channel, np.array([[0.5, 0.5]]))
        assert same_up_to_global_phase(psi[0].reshape(4), make_bell(BellState.PHI_MINUS).amplitudes)
        # the analyzer then reads the identity encoding as the phase encoding
        (inferred,) = analyze_pairs(psi, np.random.default_rng(0).random((1, 3)))
        assert inferred == 2
        assert CODE_BITS[inferred] == "10"

    @pytest.mark.parametrize("kwargs", [{"mode_flip_prob": -0.1},
                                        {"phase_flip_prob": 1.5},
                                        {"mode_flip_prob": None},
                                        {"phase_flip_prob": "0.1"},
                                        {"mode_flip_prob": True}])
    def test_invalid_probabilities_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelModel(**kwargs)


class TestAnalyzePairs:
    @settings(max_examples=40, deadline=None)
    @given(
        amps=pair_states(),
        uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
    )
    def test_rows_match_analyze(self, amps, uniforms):
        w = outcome_distribution(as_register(amps)).weights
        u_readout, u_a, u_b = uniforms
        assume(abs(u_readout - w[0] / (w[0] + w[1])) >= MARGIN)
        k = int(u_readout >= w[0] / (w[0] + w[1]))
        assume(abs(u_a - w[2 + 2 * k] / (w[2 + 2 * k] + w[3 + 2 * k])) >= MARGIN)
        j = int(u_a >= w[2 + 2 * k] / (w[2 + 2 * k] + w[3 + 2 * k]))
        i = 6 + 4 * k + 2 * j
        if w[i] + w[i + 1] > 0.0:
            assume(abs(u_b - w[i] / (w[i] + w[i + 1])) >= MARGIN)
        want = analyze(as_register(amps), rng=ScriptedRng(uniforms)).inferred
        (got,) = analyze_pairs(amps.reshape(1, 2, 2), np.array([uniforms]))
        assert BellState(CODE_BELL[got]) is want


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
            {"message_bits": "01", "seed": 3.7},
            {"message_bits": "01", "seed": 3.0},
            {"message_bits": "01", "seed": True},
            {"message_bits": "01", "pair_count": 64.0},
            {"message_bits": "01", "pair_count": np.float64(64.0)},
            {"message_bits": "01", "pair_count": True},
            {"message_bits": "01", "eve_model": None},
            {"message_bits": "01", "eve_model": "none"},
            {"message_bits": "01", "channel_model": None},
            # wrong-typed scalars are named before any range comparison
            {"message_bits": 1010},
            {"message_bits": "01", "sample_fraction": "0.2"},
            {"message_bits": "01", "qber_abort_threshold": None},
            {"message_bits": "01", "pair_count": "50"},
            {"message_bits": "01", "seed": None},
            {"message_bits": "01", "seed": float("inf")},
            {"message_bits": "01", "sample_fraction": np.bool_(True)},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        kwargs.setdefault("pair_count", 50)
        with pytest.raises(ValueError):
            QsdcConfig(**kwargs)

    def test_numpy_integers_are_whole_numbers(self):
        config = QsdcConfig(message_bits="01", pair_count=np.int64(50), seed=np.uint64(3))
        assert run_session(config).decoded_bits == "01"

    # A float is not a count, so 1e300 and nan fail as non-integers before the range check.
    @pytest.mark.parametrize(
        "pair_count, message",
        [(MAX_PAIR_COUNT + 1, "pair_count must lie between"),
         (1e300, "pair_count must be an integer"),
         (float("nan"), "pair_count must be an integer")],
        ids=[str(MAX_PAIR_COUNT + 1), "1e+300", "nan"],
    )
    def test_pair_count_is_bounded(self, pair_count, message):
        with pytest.raises(ValueError, match=message):
            QsdcConfig(message_bits="01", pair_count=pair_count)

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
        for fraction in ("0.5", None, True):
            with pytest.raises(ValueError, match="fraction must be a number"):
                EveModel(kind="intercept_resend", fraction=fraction)
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

    def test_events_hold_plain_python_values(self):
        config = QsdcConfig(
            message_bits="0110" * 8,
            pair_count=200,
            sample_fraction=0.3,
            eve_model=EveModel.intercept_resend(0.3),
            channel_model=ChannelModel(mode_flip_prob=0.05, phase_flip_prob=0.05),
            qber_abort_threshold=1.0,
            seed=9,
        )
        report = run_session(config)
        assert report.transcript[-1]["event"] == "phase2_summary"
        for event in report.transcript:
            for value in event.values():
                assert type(value) in (int, bool, str, float), (event, value)

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
