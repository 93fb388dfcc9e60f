import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import RAIL_OPS, ScriptedRng, encode, measure, same_up_to_global_phase
from spatialbsa import qsdc
from spatialbsa.bsa import CODE_BELL, analyze, analyze_pairs, outcome_distribution
from spatialbsa.qsdc import (
    CODE_BITS,
    MAX_PAIR_COUNT,
    ChannelModel,
    EveModel,
    QsdcConfig,
    SessionReport,
    _draw_trips,
    _PairTable,
    _transit,
    _trip_width,
    bell_pairs,
    measure_photon,
    phase1_sample_count,
    run_session,
    transcript_jsonl,
)
from spatialbsa.register import (
    SQRT_HALF, BellState, Kind, QuantumRegister, Subsystem, ZeroNormError, make_bell,
)


def travel_photon_rows(amps):
    # Photon a in ``amps``, its partner on rail 1: one row of a pair array.
    return np.einsum("i,j->ij", np.asarray(amps, dtype=complex), [1.0, 0.0])[None]


def transit(psi, trips, eve=EveModel(), channel=ChannelModel()):
    # One trip of the rows ``psi`` through the channel and Eve, run on a
    # session's pair table as a session runs it: the rows afterwards.
    config = QsdcConfig("01", 10, eve_model=eve, channel_model=channel)
    table = _PairTable(psi)
    ids = _transit(table, table.intern(psi), config, np.array(trips))
    return table.rows[ids]


def intercepted(psi, basis_and_outcome):
    # A transit in which Eve's coin hits every row: ``basis_and_outcome[i]``
    # holds row i's basis and outcome uniforms.
    u = np.asarray(basis_and_outcome)
    trips = np.column_stack([np.full((len(u), 3), [0.5, 0.5, 0.0]), u])
    return transit(psi, trips, eve=EveModel.intercept_resend(1.0))


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

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 1023, 1024, 1025, 2049]),
        rows=st.lists(pair_states(), min_size=1, max_size=6),
        photon=st.sampled_from(["a", "b"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_row_does_not_depend_on_its_neighbours(self, n, rows, photon, seed):
        # Each row's outcome and amplitudes must be, bit for bit, the ones it
        # gets alone, wherever it falls: the drawn rows go to random places,
        # the last row among them, over random complex rows in mixed bases.
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        places = np.append(rng.permutation(n - 1)[: len(rows) - 1], n - 1)
        for place, amps in zip(places, rows):
            psi[place] = amps.reshape(2, 2)
        x_basis, u = rng.random(n) < 0.5, rng.random(n)
        alone = psi.copy()
        want = [measure_photon(alone[i : i + 1], photon, x_basis[i : i + 1], u[i : i + 1])[0]
                for i in range(n)]
        assert measure_photon(psi, photon, x_basis, u).tolist() == want
        assert np.array_equal(psi.view(np.uint64), alone.view(np.uint64))

    def test_pairs_are_real(self):
        assert bell_pairs(5).dtype == np.float64

    @pytest.mark.parametrize(
        "scaled, scale",
        [(None, 1.0), ("rows", 1e-300), ("rows", 1e300), ("rails", 1e-300), ("rails", 1e300)])
    @pytest.mark.parametrize("basis", ["z", "x", "mixed"])
    @pytest.mark.parametrize("photon", ["a", "b"])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_real_rows_measure_as_their_complex_copy(self, n, photon, basis, scaled, scale):
        # Session rows are real.  They must take the outcomes their complex
        # copies take, and keep the real parts of the copies' amplitudes:
        # random rows and product eigenstates (exact zeros and ties) in
        # random places, with a quarter of the rows, or photon a's rail 1 in
        # them, scaled.  A scaled row's weights underflow to a zero norm at
        # 1e-300 and overflow at 1e300; a scaled rail's, only in part.
        rng = np.random.default_rng([n, len(str(scaled)), scale > 1.0])
        psi = rng.normal(size=(n, 2, 2))
        kets = np.array([[1.0, 0.0], [0.0, 1.0], [SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])
        eigen = rng.random(n) < 0.25
        psi[eigen] = np.einsum("ni,nj->nij", *kets[rng.integers(4, size=(2, np.count_nonzero(eigen)))])
        rows = np.flatnonzero(rng.random(n) < 0.25) if n > 1 else [0]
        if scaled == "rows":
            psi[rows] *= scale
        elif scaled == "rails":
            psi[rows, 0] *= scale
        x_basis = {"z": np.zeros(n, dtype=bool), "x": np.ones(n, dtype=bool),
                   "mixed": rng.random(n) < 0.5}[basis]
        u = rng.random(n)
        before, twin = psi.copy(), psi.astype(complex)

        def outcomes(rows):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return measure_photon(rows, photon, x_basis, u).tolist()
            except ZeroNormError as exc:
                return str(exc)

        got = outcomes(psi)
        assert got == outcomes(twin)
        assert psi.dtype == np.float64
        if isinstance(got, str):  # a raise writes no row
            assert np.array_equal(psi, before)
        assert np.array_equal(psi, twin, equal_nan=True)

    @pytest.mark.parametrize("photon", ["a", "b"])
    @pytest.mark.parametrize("row", [0, 3, 1025])
    def test_a_zero_norm_row_raises(self, photon, row):
        # Such a row has no outcome probabilities; the first one is named,
        # and no row is collapsed, before it or after it.
        psi = bell_pairs(1028)
        psi[row] = psi[-1] = 0.0
        before = psi.copy()
        x_basis, u = np.arange(len(psi)) % 2 == 0, np.full(len(psi), 0.5)
        with pytest.raises(ZeroNormError, match=f"^row {row} has zero norm"):
            measure_photon(psi, photon, x_basis, u)
        assert psi.view(np.uint64).tolist() == before.view(np.uint64).tolist()


def scalar_trip(rng, eve, tail=0):
    """One trip's draws by scalar calls, then ``tail`` more: the reference
    for the block draws.  While Eve is active every trip draws her coin,
    basis and outcome, whether or not the coin spares the photon."""
    trip = [rng.random(), rng.random()]
    if eve.active:
        trip += [rng.random(), rng.random(), rng.random()]
    return trip + [rng.random() for _ in range(tail)]


def per_pair_draws(rng, check, eve):
    """Phase 2's reader's draws one call at a time: a check pair's
    ``integers(4)`` code, then every pair's trip and the analyzer's three
    uniforms."""
    codes, trips = [], []
    for is_check in check:
        if is_check:
            codes.append(int(rng.integers(4)))
        trips.append(scalar_trip(rng, eve, 3))
    return codes, trips


def prepare_trips(rng, n, eve):
    """Preparation's draw: n trips as one ``Generator.random`` block."""
    return rng.random((n, _trip_width(eve)))


def raw_word_draws(state, kinds):
    """The draws ``kinds`` asks for ("random" or "code"), read from the raw
    64-bit words of a PCG64 in ``state`` by the rule ``_draw_trips`` reads
    them with; also returns the buffered half and its flag afterwards."""
    bitgen = np.random.PCG64()
    bitgen.state = state
    buffered, half = state["has_uint32"], state["uinteger"]
    draws = []
    for kind in kinds:
        if kind == "random":
            draws.append((int(bitgen.random_raw()) >> 11) * 2.0**-53)
        elif buffered:
            draws.append(half >> 30)
            buffered = 0
        else:
            word = int(bitgen.random_raw())
            draws.append((word & 0xFFFFFFFF) >> 30)
            buffered, half = 1, word >> 32
    return draws, bitgen.state["state"], buffered, half


class TestTripDraws:
    # Seed 0's first uniforms: 0.637 0.270, coin 0.041, 0.017 0.813, then
    # 0.913 0.607, coin 0.729, 0.544 0.935.
    def test_trips_without_eve_draw_twice_each(self):
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        trips = prepare_trips(rng, 2, EveModel())
        assert trips.tolist() == [scalar_trip(twin, EveModel()) for _ in range(2)]
        assert trips.shape == (2, 2)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_intercepted_trips_take_basis_and_outcome(self):
        # Trip 0's coin 0.041 < 0.5 takes a basis and an outcome; trip 1's
        # coin 0.729 spares the photon, which draws them all the same.
        eve = EveModel.intercept_resend(0.5)
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        trips = prepare_trips(rng, 2, eve)
        draws = [twin.random() for _ in range(10)]
        assert trips[0, 2] < eve.fraction <= trips[1, 2]
        assert trips[1, 3:5].tolist() == draws[8:10]
        assert trips.ravel().tolist() == draws
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize(
        "eve, width",
        [
            (EveModel(), 2),
            (EveModel.intercept_resend(0.0), 5),
            (EveModel.intercept_resend(1.0), 5),
            (EveModel.intercept_resend(0.5), 5),
        ],
    )
    def test_row_layout(self, eve, width):
        # Each trip draws its row in column order; seed 0's coin is below 0.5.
        want = scalar_trip(np.random.default_rng(0), eve)
        assert len(want) == width
        assert prepare_trips(np.random.default_rng(0), 1, eve).tolist() == [want]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_block_draws_equal_scalar_draws(self, n, fraction, seed):
        eve = EveModel.intercept_resend(fraction)
        block_rng = np.random.default_rng(seed)
        trips = prepare_trips(block_rng, n, eve)
        scalar_rng = np.random.default_rng(seed)
        want = [scalar_trip(scalar_rng, eve) for _ in range(n)]
        np.testing.assert_array_equal(trips, want)
        assert block_rng.random() == scalar_rng.random()


# NumPy's Generator parses the raw words of its bit generator by a rule
# that NEP 19 does not promise to keep; phase 2's trips and check codes are
# drawn by it.  If this fails, NumPy changed the rule and ``_draw_trips``
# must follow.
RAW_RULE_CHANGED = "NumPy's Generator no longer reads raw words as qsdc._draw_trips assumes"


# About a third of 2 049 pairs are check pairs.
LONG_CHECK = (np.random.default_rng(7).random(2049) < 0.35).tolist()


class TestPhase2Draws:
    @settings(max_examples=60, deadline=None)
    @given(
        lead=st.sampled_from(["none", "one code", "three codes", "choice"]),
        kinds=st.lists(st.sampled_from(["random", "code"]), min_size=1, max_size=200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_raw_word_rule(self, lead, kinds, seed):
        rng = np.random.default_rng(seed)
        if lead == "choice":
            rng.choice(50, size=7, replace=False)
        for _ in range({"one code": 1, "three codes": 3}.get(lead, 0)):
            rng.integers(4)
        state = rng.bit_generator.state
        if lead in ("one code", "three codes"):
            assert state["has_uint32"] == 1, RAW_RULE_CHANGED
        want = [rng.random() if kind == "random" else int(rng.integers(4)) for kind in kinds]
        got, pcg_state, buffered, half = raw_word_draws(state, kinds)
        end = rng.bit_generator.state
        assert got == want, RAW_RULE_CHANGED
        assert (end["state"], end["has_uint32"], end["uinteger"]) == (
            pcg_state, buffered, half), RAW_RULE_CHANGED

    @settings(max_examples=80, deadline=None)
    @given(
        check=st.lists(st.booleans(), min_size=1, max_size=60),
        fraction=st.sampled_from([None, 0.0, 0.05, 0.3, 0.7, 1.0]),
        lead=st.integers(0, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(check=[False] * 5, fraction=0.3, lead=1, seed=3)
    @example(check=[True] * 5, fraction=None, lead=1, seed=3)
    @example(check=[False] * 7, fraction=0.3, lead=0, seed=3)
    @example(check=LONG_CHECK, fraction=None, lead=0, seed=101)
    @example(check=LONG_CHECK, fraction=None, lead=1, seed=101)
    @example(check=LONG_CHECK, fraction=0.3, lead=0, seed=101)
    @example(check=LONG_CHECK, fraction=0.3, lead=1, seed=101)
    def test_block_equals_per_pair_draws(self, check, fraction, lead, seed):
        # ``lead`` codes drawn first leave a 32-bit half buffered when odd.
        # The long examples take several hundred check words' halves from the
        # raw block, with no Eve and with Eve at a fraction of 0.3.
        eve = EveModel() if fraction is None else EveModel.intercept_resend(fraction)
        block_rng, pair_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (block_rng, pair_rng):
            for _ in range(lead):
                rng.integers(4)
        codes, trips = _draw_trips(block_rng, np.array(check), eve)
        want_codes, want_trips = per_pair_draws(pair_rng, check, eve)
        assert codes.tolist() == want_codes
        np.testing.assert_array_equal(trips, want_trips)
        assert block_rng.bit_generator.state == pair_rng.bit_generator.state

    def test_only_phase_2_reads_raw_words(self, monkeypatch):
        # Preparation draws with Generator.random, so a session that aborts in
        # phase 1 never reaches the raw-word reader; one that completes calls
        # it once, for phase 2.
        def refuse(*args):
            raise AssertionError("the raw-word reader was called before phase 2")

        monkeypatch.setattr(qsdc, "_draw_trips", refuse)
        aborting = QsdcConfig("01", 40, 0.5, EveModel.intercept_resend(1.0), seed=2,
                              qber_abort_threshold=0.0)
        assert run_session(aborting).aborted
        calls = []
        monkeypatch.setattr(qsdc, "_draw_trips", lambda *args: calls.append(args) or _draw_trips(*args))
        assert not run_session(QsdcConfig("0110", 40, 0.25, seed=5)).aborted
        assert len(calls) == 1


class TestEve:
    def test_z_pick_leaves_rail_eigenstate_alone(self):
        psi = intercepted(travel_photon_rows([1.0, 0.0]), [[0.2, 0.9]])
        assert np.allclose(psi[0, :, 0], [1.0, 0.0], atol=1e-12)

    def test_z_pick_collapses_superposition_both_ways(self):
        sq = 1.0 / np.sqrt(2.0)
        psi = intercepted(travel_photon_rows([sq, sq]), [[0.2, 0.25]])
        assert np.allclose(np.abs(psi[0, :, 0]), [1.0, 0.0], atol=1e-12)
        psi = intercepted(travel_photon_rows([sq, sq]), [[0.2, 0.75]])
        assert np.allclose(np.abs(psi[0, :, 0]), [0.0, 1.0], atol=1e-12)

    def test_x_pick_keeps_plus_superposition(self):
        sq = 1.0 / np.sqrt(2.0)
        psi = intercepted(travel_photon_rows([sq, sq]), [[0.7, 0.3]])
        assert np.allclose(psi[0, :, 0], [sq, sq], atol=1e-12)

    def test_a_coin_at_the_fraction_spares_the_photon(self):
        # The coin hits below Eve's fraction only: row 0 is measured in Z,
        # row 1 is spared and keeps its entanglement.
        trips = [[0.5, 0.5, 0.29, 0.2, 0.1], [0.5, 0.5, 0.3, 0.2, 0.1]]
        psi = transit(bell_pairs(2), trips, eve=EveModel.intercept_resend(0.3))
        assert np.allclose(psi[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert np.array_equal(psi[1], bell_pairs(1)[0])

    def test_attack_breaks_pair_entanglement(self, rng):
        psi = intercepted(bell_pairs(4), rng.random((4, 2)))
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
    def test_identity_channel_draws_twice_and_does_nothing(self):
        psi = bell_pairs(1)
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        assert np.array_equal(transit(psi, prepare_trips(rng, 1, EveModel())), psi)
        assert len(scalar_trip(twin, EveModel())) == 2
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_certain_mode_flip_swaps_rails(self):
        psi = transit(travel_photon_rows([1.0, 0.0]), [[0.99, 0.5]],
                      channel=ChannelModel(mode_flip_prob=1.0))
        assert np.allclose(psi[0, :, 0], [0.0, 1.0], atol=1e-12)

    def test_phase_flip_turns_phi_plus_into_phi_minus(self):
        channel = ChannelModel(phase_flip_prob=1.0)
        psi = transit(bell_pairs(1), [[0.5, 0.5]], channel=channel)
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

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 255, 256, 257, 1000]),
        rows=st.lists(
            st.tuples(pair_states(), st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                              min_size=3, max_size=3)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_row_does_not_depend_on_its_neighbours(self, n, rows, seed):
        # Each row's code must be the one it gets alone, wherever it falls:
        # the drawn rows go to random places, the last row among them, over
        # random pair states.
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        psi /= np.linalg.norm(psi.reshape(n, 4), axis=1)[:, None, None]
        uniforms = rng.random((n, 3))
        places = np.append(rng.permutation(n - 1)[: len(rows) - 1], n - 1)
        for place, (amps, u) in zip(places, rows):
            psi[place], uniforms[place] = amps.reshape(2, 2), u
        alone = [analyze_pairs(psi[i : i + 1], uniforms[i : i + 1])[0] for i in range(n)]
        assert analyze_pairs(psi, uniforms).tolist() == alone


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

    @settings(max_examples=400, deadline=None)
    @given(
        message_pairs=st.one_of(st.integers(1, 100), st.integers(1, 600_000)),
        fraction=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(1e-7, 0.02),
            # 0.5 / k times k is exactly 0.5, which rounds to no sampled pair.
            st.integers(33, 2 * MAX_PAIR_COUNT).map(lambda k: 0.5 / k),
        ),
    )
    @example(message_pairs=1, fraction=0.01)
    @example(message_pairs=1, fraction=5e-324)
    def test_auto_pair_count_samples_a_pair(self, message_pairs, fraction):
        message = "01" * message_pairs
        earlier = max(32, math.ceil(len(message) / (1.0 - fraction)))  # the size before it
        try:
            config = QsdcConfig(message, sample_fraction=fraction)
        except ValueError as exc:
            if earlier > MAX_PAIR_COUNT:
                assert str(exc) == (f"a {len(message)}-bit message at sample_fraction {fraction}"
                                    f" needs more than {MAX_PAIR_COUNT} pairs;"
                                    " set pair_count (--pairs)")
            else:  # no count within the bound samples a pair
                assert str(exc) == "sample_fraction rounds to zero sampled pairs"
                assert round(fraction * MAX_PAIR_COUNT) < 1
            return
        n = config.pair_count
        assert phase1_sample_count(config) >= 1
        if round(fraction * earlier) >= 1:
            assert n == earlier
        else:  # the fewest pairs above the earlier size that sample one
            assert n > earlier and round(fraction * (n - 1)) < 1

    def test_auto_pair_count_is_a_given_one(self):
        config = QsdcConfig("01" * 40, sample_fraction=0.2, seed=5)
        assert config.pair_count == 100
        assert config == QsdcConfig("01" * 40, 100, 0.2, seed=5)
        assert QsdcConfig("01", sample_fraction=0.5 / 40).pair_count == 41  # 40 ties at 0.5

    def test_eve_model_validation(self):
        with pytest.raises(ValueError):
            EveModel(kind="mitm")
        with pytest.raises(ValueError):
            EveModel(kind="intercept_resend", fraction=1.5)
        with pytest.raises(ValueError):
            EveModel(kind="none", fraction=0.5)
        for fraction in ("0.5", True):
            with pytest.raises(ValueError, match="fraction must be a number"):
                EveModel(kind="intercept_resend", fraction=fraction)
        assert EveModel(kind="intercept_resend", fraction=None).fraction == 1.0
        assert EveModel(kind="none", fraction=None).fraction == 0.0
        assert not EveModel().active
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
