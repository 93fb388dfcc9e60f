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
bit for bit.  The pairs live in one complex array of shape (pair_count, 2, 2)
(pair, rail of photon a, rail of photon b).  Each phase first takes all its
draws, in that order, and then applies them to its rows at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bsa import analyze_pairs
from .register import _RAIL_OP_MATRICES, HADAMARD, SQRT_HALF, BellState, RailOp, _pick

# The largest session a config may ask for.  At the default sample
# fraction a session peaks at about 1.9 KB per pair, in phase 2's analyzer
# contraction, and the whole qsdc command, report text included, at the
# same 1.9 KB; the transcript keeps about 340 bytes per pair.  So this
# bound holds a command near 2 GB.
MAX_PAIR_COUNT = 1_000_000

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
        if not 1 <= self.pair_count <= MAX_PAIR_COUNT:
            raise ValueError(f"pair_count must lie between 1 and {MAX_PAIR_COUNT}")
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        if not (self.qber_abort_threshold >= 0.0):
            raise ValueError("qber_abort_threshold must be nonnegative")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        for name in ("pair_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def bell_pairs(n: int) -> np.ndarray:
    """n copies of phi+ as one array of shape (n, 2, 2): pair, rail of a, rail of b."""
    psi = np.zeros((n, 2, 2), dtype=complex)
    psi[:, 0, 0] = psi[:, 1, 1] = SQRT_HALF
    return psi


def encode_pairs(psi: np.ndarray, ops) -> np.ndarray:
    """Apply row i's rail operation ``ops[i]`` to its photon a, in place."""
    ops = np.array(ops, dtype=object)
    for op, matrix in _RAIL_OP_MATRICES.items():
        rows = ops == op
        psi[rows] = matrix @ psi[rows]
    return psi


def measure_photon(psi: np.ndarray, photon: str, x_basis, u) -> np.ndarray:
    """Measure one photon of every row, collapsing the rows in place.

    Row i measures in X where ``x_basis[i]`` holds and in Z otherwise, and
    ``u[i]`` picks the outcome exactly as ``QuantumRegister.measure`` picks
    it from one uniform; the collapsed row keeps its norm.  Returns the
    outcomes as an int array.
    """
    t = psi if photon == "a" else psi.transpose(0, 2, 1)  # axis 1: measured rail
    # Rotate the X rows into the measurement basis, in place.
    h0, h1 = SQRT_HALF * t[x_basis, 0], SQRT_HALF * t[x_basis, 1]
    t[x_basis, 0], t[x_basis, 1] = h0 + h1, h0 - h1
    del h0, h1
    weights = np.abs(t)
    weights **= 2
    weights = weights.sum(axis=2)
    outcome = _pick(weights[:, 0], weights[:, 1], u).astype(int)
    rows = np.arange(len(psi))
    kept = t[rows, outcome]
    ket = np.where(x_basis[:, None], HADAMARD.real[outcome], np.eye(2)[outcome])
    np.multiply(ket[:, :, None], kept[:, None, :], out=t)
    t *= np.sqrt(weights.sum(axis=1) / weights[rows, outcome])[:, None, None]
    return outcome


def apply_channel(psi: np.ndarray, channel: ChannelModel, u) -> np.ndarray:
    """Apply the channel's rail-swap and rail-phase errors to photon a of each
    row, in place; ``u[i]`` holds row i's two uniforms, swap first."""
    swap, phase = u[:, 0] < channel.mode_flip_prob, u[:, 1] < channel.phase_flip_prob
    psi[swap] = psi[swap, ::-1]
    psi[phase, 1] = -psi[phase, 1]
    return psi


def eve_intercept_resend(psi: np.ndarray, u) -> np.ndarray:
    """Intercept-resend attack on photon a of every row, in place.

    Eve measures in Z where ``u[i, 0] < 0.5`` and in X otherwise, with
    ``u[i, 1]`` as the outcome draw, and forwards the eigenstate she found,
    which destroys any entanglement with the partner photon.
    """
    measure_photon(psi, "a", u[:, 0] >= 0.5, u[:, 1])
    return psi


def _draw_trips(rng, n: int, eve: EveModel, tail: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the uniforms of n trips in a row, each followed by ``tail`` more.

    A trip draws two channel uniforms, then Eve's coin if she is active,
    then her basis and outcome if the coin falls below her fraction.
    Returns the uniforms in draw order and each trip's offset into them.
    """
    if not eve.active or eve.fraction in (0.0, 1.0):
        # No coin, or one whose fall is certain: a uniform in [0, 1) is
        # always below 1 and never below 0.  Every trip has one length, so
        # one block holds them all.
        length = 2 + eve.active + tail + 2 * (eve.active and eve.fraction == 1.0)
        return rng.random(n * length), length * np.arange(n)
    u: list[float] = []
    starts: list[int] = []
    for _ in range(n):
        starts.append(len(u))
        u += [rng.random() for _ in range(3)]
        if u[-1] < eve.fraction:
            u += [rng.random(), rng.random()]
        u += [rng.random() for _ in range(tail)]
    return np.array(u), np.array(starts, dtype=int)


def _trip_table(u: np.ndarray, starts: np.ndarray, eve: EveModel, tail: int):
    """Gather drawn trips into columns, and Eve's interceptions.

    Columns 0 and 1 are the channel uniforms, 2 and 3 Eve's basis and
    outcome (NaN where she lets the photon pass), then the ``tail`` draws.
    """
    hit = np.zeros(len(starts), dtype=bool)
    if eve.active:
        hit = u[starts + 2] < eve.fraction
    table = np.full((len(starts), 4 + tail), np.nan)
    table[:, :2] = u[starts[:, None] + np.arange(2)]
    table[hit, 2:4] = u[starts[hit, None] + np.arange(3, 5)]
    after = starts + 2 + eve.active + 2 * hit
    table[:, 4:] = u[after[:, None] + np.arange(tail)]
    return table, hit


def _transit(psi: np.ndarray, config: QsdcConfig, table: np.ndarray, hit) -> None:
    # One trip of every row's travel photon through the channel, with Eve last.
    apply_channel(psi, config.channel_model, table[:, :2])
    if hit.all():
        eve_intercept_resend(psi, table[:, 2:4])
    elif hit.any():
        psi[hit] = eve_intercept_resend(psi[hit], table[hit, 2:4])


def run_session(config: QsdcConfig) -> SessionReport:
    """Run one complete session and return its report.

    The random-draw order is fixed: pair preparation and forward transit in
    pair order, then sampling positions, then per-sample basis and outcome
    draws, then phase-2 slot assignment, then per-pair check-operation,
    return-transit and analyzer draws in pair order.  Each phase takes its
    draws in that order before it touches the pairs, which then evolve
    together as rows of one array.
    """
    rng = np.random.default_rng(config.seed)
    eve = config.eve_model
    transcript: list = []

    psi = bell_pairs(config.pair_count)
    trips, hit = _trip_table(*_draw_trips(rng, config.pair_count, eve, tail=0), eve, tail=0)
    _transit(psi, config, trips, hit)

    n_sample = phase1_sample_count(config)
    sampled = np.sort(rng.choice(config.pair_count, size=n_sample, replace=False))
    u = rng.random((n_sample, 3))
    checked = psi[sampled]
    x_basis = u[:, 0] >= 0.5
    alice = measure_photon(checked, "a", x_basis, u[:, 1])
    bob = measure_photon(checked, "b", x_basis, u[:, 2])
    errors = 0
    for pos, x, a, b in zip(sampled.tolist(), x_basis.tolist(), alice.tolist(), bob.tolist()):
        agree = a == b
        errors += 0 if agree else 1
        transcript.append(
            {
                "event": "phase1_sample",
                "pair": pos,
                "basis": "x" if x else "z",
                "alice": a,
                "bob": b,
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

    sampled_set = set(sampled.tolist())
    remaining = [pos for pos in range(config.pair_count) if pos not in sampled_set]
    n_message = config.message_pair_count
    slot_picks = rng.choice(len(remaining), size=n_message, replace=False)
    message_positions = sorted(remaining[int(i)] for i in slot_picks)
    bits_at = {
        pos: config.message_bits[2 * k : 2 * k + 2]
        for k, pos in enumerate(message_positions)
    }

    # Every check pair draws its operation before its trip and analyzer
    # draws, so the trips are drawn in runs that each start at a check pair.
    encoded = [bits_at.get(pos) for pos in remaining]
    run_starts = [i for i, bits in enumerate(encoded) if bits is None or i == 0]
    blocks, offsets, size = [], [], 0
    for lo, hi in zip(run_starts, run_starts[1:] + [len(remaining)]):
        if encoded[lo] is None:
            encoded[lo] = BITS_BY_OP[_OP_ORDER[int(rng.integers(4))]]
        u, starts = _draw_trips(rng, hi - lo, eve, tail=3)
        blocks.append(u)
        offsets.append(starts + size)
        size += len(u)
    trips, hit = _trip_table(np.concatenate(blocks), np.concatenate(offsets), eve, tail=3)

    back = encode_pairs(psi[remaining], [OP_BY_BITS[bits] for bits in encoded])
    _transit(back, config, trips, hit)
    inferred = analyze_pairs(back, trips[:, 4:])

    decoded: list[str] = []
    check_pairs = 0
    check_errors = 0
    for pos, bits, bell in zip(remaining, encoded, inferred):
        role = "message" if pos in bits_at else "check"
        got = BITS_BY_BELL[bell]
        match = got == bits
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
                "encoded": bits,
                "inferred": bell.value,
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
