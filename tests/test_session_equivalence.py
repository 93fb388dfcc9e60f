"""The pair-array session against the per-register loop it replaces.

``per_register_session`` keeps one ``QuantumRegister`` per pair and applies
every channel error, interception, measurement and encoding gate by gate,
drawing each uniform where it happens.  On the same config ``run_session``
must produce the same report, transcript included, event for event.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import RAIL_OPS, measure
from spatialbsa.bsa import analyze
from spatialbsa.qsdc import (
    ChannelModel,
    EveModel,
    QsdcConfig,
    SessionReport,
    phase1_sample_count,
    run_session,
)
from spatialbsa.register import BellState, make_bell

# The dense-coding alphabet, kept apart from the session's own tables: the
# check operation drawn as i is the rail matrix RAIL_OPS[i], which carries
# the bits BITS[i], and each operation on phi+ lands on the Bell state that
# decodes back to its bits.
BITS = ("00", "01", "10", "11")
OP_BY_BITS = dict(zip(BITS, RAIL_OPS))
SWAP, PHASE = RAIL_OPS[1], RAIL_OPS[2]
BITS_BY_BELL = {
    BellState.PHI_PLUS: "00",
    BellState.PSI_PLUS: "01",
    BellState.PHI_MINUS: "10",
    BellState.PSI_MINUS: "11",
}


def transit(reg, config, rng):
    # Channel errors first, then the eavesdropper.
    if rng.random() < config.channel_model.mode_flip_prob:
        reg.apply_one("a", SWAP)
    if rng.random() < config.channel_model.phase_flip_prob:
        reg.apply_one("a", PHASE)
    if config.eve_model.active and rng.random() < config.eve_model.fraction:
        basis = "z" if rng.random() < 0.5 else "x"
        measure(reg, "a", basis, rng)


def per_register_session(config):
    rng = np.random.default_rng(config.seed)
    transcript = []
    pairs = []
    for _ in range(config.pair_count):
        reg = make_bell(BellState.PHI_PLUS)
        transit(reg, config, rng)
        pairs.append(reg)

    n_sample = phase1_sample_count(config)
    sampled = sorted(
        int(i) for i in rng.choice(config.pair_count, size=n_sample, replace=False)
    )
    errors = 0
    for pos in sampled:
        basis = "z" if rng.random() < 0.5 else "x"
        alice, _, _ = measure(pairs[pos], "a", basis, rng)
        bob, _, _ = measure(pairs[pos], "b", basis, rng)
        agree = alice == bob
        errors += 0 if agree else 1
        transcript.append({"event": "phase1_sample", "pair": pos, "basis": basis,
                           "alice": alice, "bob": bob, "agree": agree})
    qber = errors / n_sample
    aborted = qber > config.qber_abort_threshold
    transcript.append({"event": "phase1_summary", "sampled": n_sample, "errors": errors,
                       "qber": qber, "aborted": aborted})
    if aborted:
        return SessionReport(qber, True, "", 0.0, transcript)

    sampled_set = set(sampled)
    remaining = [pos for pos in range(config.pair_count) if pos not in sampled_set]
    n_message = config.message_pair_count
    slot_picks = rng.choice(len(remaining), size=n_message, replace=False)
    message_positions = sorted(remaining[int(i)] for i in slot_picks)
    bits_at = {pos: config.message_bits[2 * k : 2 * k + 2]
               for k, pos in enumerate(message_positions)}
    decoded, check_pairs, check_errors = [], 0, 0
    for pos in remaining:
        if pos in bits_at:
            role, encoded = "message", bits_at[pos]
        else:
            role, encoded = "check", BITS[int(rng.integers(4))]
        pairs[pos].apply_one("a", OP_BY_BITS[encoded])
        transit(pairs[pos], config, rng)
        record = analyze(pairs[pos], rng=rng)
        got = BITS_BY_BELL[record.inferred]
        match = got == encoded
        if role == "message":
            decoded.append(got)
        else:
            check_pairs += 1
            check_errors += 0 if match else 1
        transcript.append({"event": "phase2_pair", "pair": pos, "role": role,
                           "encoded": encoded, "inferred": record.inferred.value,
                           "decoded": got, "match": match})
    rate = check_errors / check_pairs if check_pairs else 0.0
    transcript.append({"event": "phase2_summary", "message_pairs": n_message,
                       "check_pairs": check_pairs, "check_errors": check_errors,
                       "check_error_rate": rate})
    return SessionReport(qber, False, "".join(decoded), rate, transcript)


@st.composite
def configs(draw):
    pair_count = draw(st.integers(8, 300))
    sample_fraction = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    free = pair_count - int(round(sample_fraction * pair_count))
    n_message = draw(st.integers(1, free))
    bits = draw(st.text(alphabet="01", min_size=2 * n_message, max_size=2 * n_message))
    fraction = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    eve = draw(st.sampled_from([EveModel.none(), EveModel.intercept_resend(fraction)]))
    probs = st.sampled_from([0.0, 0.05, 0.3])
    channel = ChannelModel(mode_flip_prob=draw(probs), phase_flip_prob=draw(probs))
    return QsdcConfig(
        message_bits=bits,
        pair_count=pair_count,
        sample_fraction=sample_fraction,
        eve_model=eve,
        channel_model=channel,
        seed=draw(st.integers(0, 2**64 - 1)),
        qber_abort_threshold=draw(st.sampled_from([0.0, 0.11, 0.5, 1.0])),
    )


@settings(max_examples=60, deadline=None)
@given(configs())
def test_matches_per_register_loop(config):
    want = per_register_session(config)
    got = run_session(config)
    assert json.dumps(got.transcript) == json.dumps(want.transcript)
    assert got == want
