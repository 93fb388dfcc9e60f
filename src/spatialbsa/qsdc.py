"""Two-step direct communication over spatial-mode Bell pairs.

One session simulates both parties in-process.  Bob prepares ``pair_count``
copies of phi+ and sends one photon of each pair (the travel sequence) to
Alice; the partner photons never leave his lab.  The protocol then runs in
two phases:

* Phase 1, channel check: Alice picks a random subset of positions, measures
  each travel photon in Z or X chosen uniformly, and announces positions and
  bases.  Bob measures the partners in the announced bases.  On phi+ the
  matched outcomes agree in both bases, so the disagreement rate estimates
  the channel error rate; above ``qber_abort_threshold`` the session aborts
  before any message is sent.
* Phase 2, dense coding: Alice encodes two bits on each surviving travel
  photon with one of the four rail operations, mixes in check pairs carrying
  random known operations, and returns the sequence.  Bob identifies each
  pair's Bell state with the analyzer and inverts the bit mapping; the check
  pairs, announced afterwards, give an in-message error estimate.

An optional eavesdropper intercepts travel photons, measures the spatial
qubit in a random Z/X basis and resends the eigenstate; an optional channel
model applies independent rail-swap and rail-phase errors.  Both act only
while a photon is actually in transit.

Every random choice flows from one seeded generator in a fixed order, so a
session is a pure function of its config and the transcript is reproducible
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bsa import analyze
from .register import BellState, QuantumRegister, RailOp, apply_spatial_unitary, make_bell

TRAVEL_PHOTON = "a"

OP_BY_BITS = {
    "00": RailOp.IDENTITY,
    "01": RailOp.SWAP,
    "10": RailOp.PHASE,
    "11": RailOp.SWAP_PHASE,
}
BITS_BY_OP = {op: bits for bits, op in OP_BY_BITS.items()}

# Acting on one photon of phi+, each rail operation lands on its own Bell
# state, so Bob's analyzer outcome decodes straight back to the bit pair.
BELL_BY_OP = {
    RailOp.IDENTITY: BellState.PHI_PLUS,
    RailOp.SWAP: BellState.PSI_PLUS,
    RailOp.PHASE: BellState.PHI_MINUS,
    RailOp.SWAP_PHASE: BellState.PSI_MINUS,
}
BITS_BY_BELL = {bell: BITS_BY_OP[op] for op, bell in BELL_BY_OP.items()}

_OP_ORDER = (RailOp.IDENTITY, RailOp.SWAP, RailOp.PHASE, RailOp.SWAP_PHASE)


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration: no attack, or intercept-resend on a fraction."""

    kind: str = "none"
    fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "intercept_resend"):
            raise ValueError(f"unknown eve model {self.kind!r}")
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError("eve fraction must lie in [0, 1]")
        if self.kind == "none" and self.fraction != 0.0:
            raise ValueError("eve model 'none' cannot have a nonzero fraction")

    @classmethod
    def none(cls) -> "EveModel":
        return cls(kind="none", fraction=0.0)

    @classmethod
    def intercept_resend(cls, fraction: float = 1.0) -> "EveModel":
        return cls(kind="intercept_resend", fraction=fraction)

    @property
    def active(self) -> bool:
        return self.kind != "none"


@dataclass(frozen=True)
class ChannelModel:
    """Independent rail-swap and rail-phase error probabilities per transit."""

    mode_flip_prob: float = 0.0
    phase_flip_prob: float = 0.0

    def __post_init__(self):
        for label, p in (
            ("mode_flip_prob", self.mode_flip_prob),
            ("phase_flip_prob", self.phase_flip_prob),
        ):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{label} must lie in [0, 1]")


@dataclass(frozen=True)
class QsdcConfig:
    """Full description of one session; the session is a pure function of it."""

    message_bits: str
    pair_count: int
    sample_fraction: float = 0.1
    eve_model: EveModel = field(default_factory=EveModel.none)
    channel_model: ChannelModel = field(default_factory=ChannelModel)
    seed: int = 0
    qber_abort_threshold: float = 0.11

    def __post_init__(self):
        if not self.message_bits or set(self.message_bits) - {"0", "1"}:
            raise ValueError("message_bits must be a nonempty string of 0s and 1s")
        if len(self.message_bits) % 2 != 0:
            raise ValueError("message_bits must have even length (2 bits per pair)")
        if self.pair_count < 1:
            raise ValueError("pair_count must be at least 1")
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        if self.qber_abort_threshold < 0.0:
            raise ValueError("qber_abort_threshold must be nonnegative")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        n_sample = phase1_sample_count(self)
        if n_sample < 1:
            raise ValueError("sample_fraction rounds to zero sampled pairs")
        if self.pair_count - n_sample < self.message_pair_count:
            raise ValueError(
                f"infeasible config: {self.pair_count} pairs minus {n_sample} "
                f"samples cannot carry {self.message_pair_count} message pairs"
            )

    @property
    def message_pair_count(self) -> int:
        return len(self.message_bits) // 2


def phase1_sample_count(config: QsdcConfig) -> int:
    """Number of positions Alice samples in phase 1 (nearest-integer rounding)."""
    return int(round(config.sample_fraction * config.pair_count))


@dataclass(frozen=True)
class SessionReport:
    """Everything observable about one finished session."""

    phase1_qber: float
    aborted: bool
    decoded_bits: str
    phase2_sample_error_rate: float
    transcript: list


def transcript_jsonl(report: SessionReport) -> str:
    """Serialize the transcript as one JSON record per line."""
    return "\n".join(json.dumps(event, sort_keys=True) for event in report.transcript)


def eve_intercept_resend(reg: QuantumRegister, photon: str, rng) -> QuantumRegister:
    """Intercept-resend attack on one photon's spatial qubit.

    Eve measures in Z or X chosen uniformly and forwards the eigenstate she
    found, which destroys any entanglement with the partner photon.
    """
    basis = "z" if rng.random() < 0.5 else "x"
    reg.measure(photon, basis, rng)
    return reg


def apply_channel(
    reg: QuantumRegister, photon: str, channel: ChannelModel, rng
) -> QuantumRegister:
    """Apply the channel's independent rail-swap and rail-phase errors."""
    if rng.random() < channel.mode_flip_prob:
        apply_spatial_unitary(reg, photon, RailOp.SWAP)
    if rng.random() < channel.phase_flip_prob:
        apply_spatial_unitary(reg, photon, RailOp.PHASE)
    return reg


def _transit(reg: QuantumRegister, config: QsdcConfig, rng) -> None:
    # One trip of the travel photon through the channel, with Eve last.
    apply_channel(reg, TRAVEL_PHOTON, config.channel_model, rng)
    if config.eve_model.active and rng.random() < config.eve_model.fraction:
        eve_intercept_resend(reg, TRAVEL_PHOTON, rng)


def run_session(config: QsdcConfig) -> SessionReport:
    """Run one complete session and return its report.

    The random-draw order is fixed: pair preparation and forward transit in
    pair order, then sampling positions, then per-sample basis and outcome
    draws, then phase-2 slot assignment, then per-pair check-operation,
    return-transit and analyzer draws in pair order.
    """
    rng = np.random.default_rng(config.seed)
    transcript: list = []

    pairs = []
    for _ in range(config.pair_count):
        reg = make_bell(BellState.PHI_PLUS)
        _transit(reg, config, rng)
        pairs.append(reg)

    n_sample = phase1_sample_count(config)
    sampled = sorted(
        int(i) for i in rng.choice(config.pair_count, size=n_sample, replace=False)
    )
    errors = 0
    for pos in sampled:
        basis = "z" if rng.random() < 0.5 else "x"
        alice, _, _ = pairs[pos].measure(TRAVEL_PHOTON, basis, rng)
        bob, _, _ = pairs[pos].measure("b", basis, rng)
        agree = alice == bob
        errors += 0 if agree else 1
        transcript.append(
            {
                "event": "phase1_sample",
                "pair": pos,
                "basis": basis,
                "alice": alice,
                "bob": bob,
                "agree": agree,
            }
        )
    qber = errors / n_sample
    aborted = qber > config.qber_abort_threshold
    transcript.append(
        {
            "event": "phase1_summary",
            "sampled": n_sample,
            "errors": errors,
            "qber": qber,
            "aborted": aborted,
        }
    )
    if aborted:
        return SessionReport(
            phase1_qber=qber,
            aborted=True,
            decoded_bits="",
            phase2_sample_error_rate=0.0,
            transcript=transcript,
        )

    sampled_set = set(sampled)
    remaining = [pos for pos in range(config.pair_count) if pos not in sampled_set]
    n_message = config.message_pair_count
    slot_picks = rng.choice(len(remaining), size=n_message, replace=False)
    message_positions = sorted(remaining[int(i)] for i in slot_picks)
    bits_at = {
        pos: config.message_bits[2 * k : 2 * k + 2]
        for k, pos in enumerate(message_positions)
    }

    decoded: list[str] = []
    check_pairs = 0
    check_errors = 0
    for pos in remaining:
        if pos in bits_at:
            role, encoded = "message", bits_at[pos]
        else:
            role, encoded = "check", BITS_BY_OP[_OP_ORDER[int(rng.integers(4))]]
        apply_spatial_unitary(pairs[pos], TRAVEL_PHOTON, OP_BY_BITS[encoded])
        _transit(pairs[pos], config, rng)
        record = analyze(pairs[pos], ideal=True, rng=rng)
        got = BITS_BY_BELL[record.inferred]
        match = got == encoded
        if role == "message":
            decoded.append(got)
        else:
            check_pairs += 1
            check_errors += 0 if match else 1
        transcript.append(
            {
                "event": "phase2_pair",
                "pair": pos,
                "role": role,
                "encoded": encoded,
                "inferred": record.inferred.value,
                "decoded": got,
                "match": match,
            }
        )
    error_rate = check_errors / check_pairs if check_pairs else 0.0
    transcript.append(
        {
            "event": "phase2_summary",
            "message_pairs": n_message,
            "check_pairs": check_pairs,
            "check_errors": check_errors,
            "check_error_rate": error_rate,
        }
    )
    return SessionReport(
        phase1_qber=qber,
        aborted=False,
        decoded_bits="".join(decoded),
        phase2_sample_error_rate=error_rate,
        transcript=transcript,
    )
