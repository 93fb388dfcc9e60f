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
  pair's Bell state with the analyzer, which reads the bits straight back;
  the check pairs, announced afterwards, give an in-message error estimate.

The bit pair b0 b1 travels as the code c = 2*b0 + b1.  Alice encodes it with
the channel's rail flip: she swaps photon a's rails where c is odd and then
negates its rail 2 where c >= 2, taking phi+ to phi+, psi+, phi- or psi-.

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

from .bsa import CODE_BELL, analyze_pairs
from .cavity import check_number
from .register import HADAMARD, SQRT_HALF, _pick

# The largest session a config may ask for.  At the default sample
# fraction a session peaks at about 1.9 KB per pair, in phase 2's analyzer
# contraction, and the whole qsdc command, report text included, at the
# same 1.9 KB; the transcript keeps about 340 bytes per pair.  So this
# bound holds a command near 2 GB.
MAX_PAIR_COUNT = 1_000_000

# The dense-coding alphabet in code order: code c = 2*b0 + b1 carries the
# bits CODE_BITS[c] and turns phi+ into CODE_BELL[c].  b1 is the swap, which
# makes the parity odd, and b0 the phase, which makes the sign minus.
CODE_BITS = ("00", "01", "10", "11")


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration: no attack, or intercept-resend on a fraction."""

    kind: str = "none"
    fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "intercept_resend"):
            raise ValueError(f"unknown eve model {self.kind!r}")
        check_number("eve fraction", self.fraction)
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
        for label in ("mode_flip_prob", "phase_flip_prob"):
            p = getattr(self, label)
            check_number(label, p)
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
        bits = self.message_bits
        if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
            raise ValueError("message_bits must be a nonempty string of 0s and 1s")
        if len(self.message_bits) % 2 != 0:
            raise ValueError("message_bits must have even length (2 bits per pair)")
        for name in ("pair_count", "sample_fraction", "seed", "qber_abort_threshold"):
            check_number(name, getattr(self, name), whole=name in ("pair_count", "seed"))
        if not 1 <= self.pair_count <= MAX_PAIR_COUNT:
            raise ValueError(f"pair_count must lie between 1 and {MAX_PAIR_COUNT}")
        if not (0.0 < self.sample_fraction < 1.0):
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        if not (self.qber_abort_threshold >= 0.0):
            raise ValueError("qber_abort_threshold must be nonnegative")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        for name, model in (("eve_model", EveModel), ("channel_model", ChannelModel)):
            value = getattr(self, name)
            if not isinstance(value, model):
                raise ValueError(f"{name} must be a {model.__name__}, got {value!r}")
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


def flip_rails(psi: np.ndarray, swap, phase) -> np.ndarray:
    """Swap photon a's rails in the rows where ``swap`` holds, then negate its
    rail 2 where ``phase`` holds, in place: the channel's two errors, which
    together make the four dense-coding operations."""
    psi[swap] = psi[swap, ::-1]
    psi[phase, 1] = -psi[phase, 1]
    return psi


def measure_photon(psi: np.ndarray, photon: str, x_basis, u) -> np.ndarray:
    """Measure one photon of every row, collapsing the rows in place.

    Row i measures in X where ``x_basis[i]`` holds and in Z otherwise, and
    ``u[i]`` picks the outcome by ``_pick``, cumulative-probability inversion
    of one uniform; the collapsed row is the outcome's basis ket times the
    partner's conditional state, scaled to keep the row's norm, so loss
    survives the collapse.  This is the package's one measurement rule.
    Returns the outcomes as an int array.
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
    return flip_rails(psi, u[:, 0] < channel.mode_flip_prob, u[:, 1] < channel.phase_flip_prob)


def eve_intercept_resend(psi: np.ndarray, u) -> np.ndarray:
    """Intercept-resend attack on photon a of every row, in place.

    Eve measures in Z where ``u[i, 0] < 0.5`` and in X otherwise, with
    ``u[i, 1]`` as the outcome draw, and forwards the eigenstate she found,
    which destroys any entanglement with the partner photon.
    """
    measure_photon(psi, "a", u[:, 0] >= 0.5, u[:, 1])
    return psi


def _draw_trips(rng, n: int, eve: EveModel, tail: int) -> np.ndarray:
    """Draw n trips in a row, each followed by ``tail`` more uniforms.

    Returns one row per trip holding its draws in draw order: the two
    channel uniforms, then Eve's coin if she is active, then her basis and
    outcome if her fraction is above 0 (NaN where the coin spared the
    photon), then the ``tail`` draws as the last columns.
    """
    width = 2 + eve.active + 2 * (eve.active and eve.fraction > 0.0) + tail
    if not eve.active or eve.fraction in (0.0, 1.0):
        # No coin, or one whose fall is certain: a uniform in [0, 1) is
        # always below 1 and never below 0.  Every trip has one length, so
        # one block holds them all.
        return rng.random(n * width).reshape(n, width)
    rows = []
    for _ in range(n):
        row = [rng.random() for _ in range(3)]
        row += [rng.random(), rng.random()] if row[2] < eve.fraction else [np.nan, np.nan]
        rows.append(row + [rng.random() for _ in range(tail)])
    return np.array(rows)


def _transit(psi: np.ndarray, config: QsdcConfig, trips: np.ndarray) -> None:
    # One trip of every row's travel photon through the channel, with Eve last.
    apply_channel(psi, config.channel_model, trips[:, :2])
    eve = config.eve_model
    if not eve.active:
        return
    hit = trips[:, 2] < eve.fraction
    if hit.all():
        eve_intercept_resend(psi, trips[:, 3:5])
    elif hit.any():
        psi[hit] = eve_intercept_resend(psi[hit], trips[hit, 3:5])


def run_session(config: QsdcConfig) -> SessionReport:
    """Run one complete session and return its report.

    The random-draw order is fixed: pair preparation and forward transit in
    pair order, then sampling positions, then per-sample basis and outcome
    draws, then phase-2 slot assignment, then per-pair check-operation,
    return-transit and analyzer draws in pair order.  Each phase takes its
    draws in that order before it touches the pairs, which then evolve
    together as rows of one array.  Each transit's draws form one row of a
    trip table (``_draw_trips``); phase 2 stacks its runs' tables, and the
    analyzer reads their last three columns.  Phase 2 keeps each pair's bit
    pair as an int code and its role as a bool.
    """
    rng = np.random.default_rng(config.seed)
    eve = config.eve_model
    transcript: list = []

    psi = bell_pairs(config.pair_count)
    _transit(psi, config, _draw_trips(rng, config.pair_count, eve, tail=0))

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

    remaining = np.delete(np.arange(config.pair_count), sampled)
    n_message = config.message_pair_count
    slot_picks = rng.choice(len(remaining), size=n_message, replace=False)
    is_message = np.zeros(len(remaining), dtype=bool)
    is_message[slot_picks] = True
    # The message goes into its slots in order, one code per bit pair.
    bits = np.frombuffer(config.message_bits.encode(), dtype=np.uint8) - ord("0")
    codes = np.zeros(len(remaining), dtype=int)
    codes[is_message] = 2 * bits[0::2] + bits[1::2]

    # Every check pair draws its code before its trip and analyzer draws,
    # so the trips are drawn in runs that each start at a check pair.
    bounds = [0, *(np.flatnonzero(~is_message[1:]) + 1).tolist(), len(remaining)]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        if not is_message[lo]:
            codes[lo] = rng.integers(4)
        blocks.append(_draw_trips(rng, hi - lo, eve, tail=3))
    trips = np.concatenate(blocks)

    back = flip_rails(psi[remaining], codes % 2 == 1, codes >= 2)
    _transit(back, config, trips)
    got = analyze_pairs(back, trips[:, -3:])

    match = got == codes
    check_pairs = len(remaining) - n_message
    check_errors = int(np.count_nonzero(~match & ~is_message))
    for pos, message, code, inferred, ok in zip(
        remaining.tolist(), is_message.tolist(), codes.tolist(), got.tolist(), match.tolist()
    ):
        transcript.append(
            {
                "event": "phase2_pair",
                "pair": pos,
                "role": "message" if message else "check",
                "encoded": CODE_BITS[code],
                "inferred": CODE_BELL[inferred],
                "decoded": CODE_BITS[inferred],
                "match": ok,
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
        decoded_bits="".join(CODE_BITS[c] for c in got[is_message].tolist()),
        phase2_sample_error_rate=error_rate,
        transcript=transcript,
    )
