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
bit for bit.  Each phase first takes all its draws, in that order, and then
applies them to its pairs at once.  Preparation's trips are one
``rng.random`` block, so a session that aborts in phase 1 takes only the
generator's public calls; phase 2's trips and check codes come from one
reader of the generator's raw 64-bit words, ``_draw_trips``.

A pair's state is a real (2, 2) row (rail of photon a, rail of photon b),
but a session meets few distinct rows: 1-4 without noise or Eve, about 60
with both.  So it keeps each distinct row once in a table, interned by its
exact bytes, and each pair as an int id into it, starting at id 0, phi+.
Each step (a rail flip, the channel, Eve, a phase-1 measurement, the
analyzer) evaluates its row arithmetic once per key in use: (row, swap,
phase), (row, basis) then (row, basis, outcome), or row.  Per pair there
are only integer gathers, ``np.bincount`` over the keys, and ``_pick``.

The table is exact.  Its per-row references, ``flip_rails``, ``measure_photon``
and ``analyze_pairs``, are elementwise per row, as tests pin, and ``_pick``
compares each pair's own uniform with the float w0 / (w0 + w1) of its row's
weights.  So a pair gets, bit for bit, the outcome and row it would get in a
(pair_count, 2, 2) array.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .bsa import CODE_BELL, _analyze_table
from .cavity import Frozen, check_number
from .states import HADAMARD, SQRT_HALF, ZeroNormError, _pick

# The largest session a config may ask for.  tracemalloc puts a session at
# the default sample fraction at about 132 bytes per pair (20 000 and 40 000
# pairs), in phase 2's trip draws beside the id arrays, and the whole qsdc
# command, whose report goes out a chunk at a time in 0.13 MB, at 133 (100
# for both at a fraction of 0.5).  A command aborting under Eve at a fraction
# of 0.8 peaks at about 94, in preparation's draws and Eve's picks.  The
# record columns keep 16 bytes per pair, and run_session's dict transcript
# about 310.  So this bound holds a command near 0.14 GB.
MAX_PAIR_COUNT = 1_000_000

# The share of pairs phase 1 samples when a config names none.
DEFAULT_SAMPLE_FRACTION = 0.1

# The dense-coding alphabet in code order: code c = 2*b0 + b1 carries the
# bits CODE_BITS[c] and turns phi+ into CODE_BELL[c].  b1 is the swap, which
# makes the parity odd, and b0 the phase, which makes the sign minus.
CODE_BITS = ("00", "01", "10", "11")

# Each per-pair record's fields but its pair index, by kind: 4*alice + 2*bob +
# x_basis for a phase1_sample record, 8*inferred + 2*encoded + is_message for a
# phase2_pair record.  With its pair index filled in, a kind's entry is the
# whole record; "pair" sits here to keep its place among the keys.
PHASE1_RECORDS = tuple(
    {"event": "phase1_sample", "pair": None, "basis": "zx"[x], "alice": a, "bob": b,
     "agree": a == b}
    for a in (0, 1) for b in (0, 1) for x in (0, 1)
)
PHASE2_RECORDS = tuple(
    {"event": "phase2_pair", "pair": None, "role": ("check", "message")[m],
     "encoded": CODE_BITS[c], "inferred": CODE_BELL[i], "decoded": CODE_BITS[i], "match": i == c}
    for i in range(4) for c in range(4) for m in (0, 1)
)


class EveModel(Frozen):
    """Eavesdropper configuration: no attack, or intercept-resend on a fraction."""

    __slots__ = ("kind", "fraction")

    def __init__(self, kind: str = "none", fraction: float | None = None):
        if kind not in ("none", "intercept_resend"):
            raise ValueError(f"unknown eve model {kind!r}")
        if fraction is None:  # an attack meets every photon unless told otherwise
            fraction = 1.0 if kind == "intercept_resend" else 0.0
        fraction = check_number("eve fraction", fraction)
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("eve fraction must lie in [0, 1]")
        if kind == "none" and fraction != 0.0:
            raise ValueError("eve model 'none' cannot have a nonzero fraction")
        self._set(kind, fraction)

    @classmethod
    def intercept_resend(cls, fraction: float | None = None) -> "EveModel":
        return cls(kind="intercept_resend", fraction=fraction)

    @property
    def active(self) -> bool:
        return self.kind != "none"


class ChannelModel(Frozen):
    """Independent rail-swap and rail-phase error probabilities per transit."""

    __slots__ = ("mode_flip_prob", "phase_flip_prob")

    def __init__(self, mode_flip_prob: float = 0.0, phase_flip_prob: float = 0.0):
        probs = []
        for label, p in zip(self.__slots__, (mode_flip_prob, phase_flip_prob)):
            probs.append(check_number(label, p))
            if not (0.0 <= probs[-1] <= 1.0):
                raise ValueError(f"{label} must lie in [0, 1]")
        self._set(*probs)


class QsdcConfig(Frozen):
    """Full description of one session; the session is a pure function of it.

    A ``pair_count`` of None fits the message beside the phase-1 sample with
    about as many check pairs, at least 32 pairs and one sampled pair.
    """

    __slots__ = ("message_bits", "pair_count", "sample_fraction", "eve_model", "channel_model",
                 "seed", "qber_abort_threshold")

    def __init__(self, message_bits: str, pair_count: int | None = None,
                 sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
                 eve_model: EveModel = EveModel(), channel_model: ChannelModel = ChannelModel(),
                 seed: int = 0, qber_abort_threshold: float = 0.11):
        if not isinstance(message_bits, str) or not message_bits or set(message_bits) - {"0", "1"}:
            raise ValueError("message_bits must be a nonempty string of 0s and 1s")
        if len(message_bits) % 2 != 0:
            raise ValueError("message_bits must have even length (2 bits per pair)")
        if pair_count is not None:
            pair_count = check_number("pair_count", pair_count, whole=True)
        sample_fraction = check_number("sample_fraction", sample_fraction)
        seed = check_number("seed", seed, whole=True)
        qber_abort_threshold = check_number("qber_abort_threshold", qber_abort_threshold)
        if pair_count is not None and not 1 <= pair_count <= MAX_PAIR_COUNT:
            raise ValueError(f"pair_count must lie between 1 and {MAX_PAIR_COUNT}")
        if not (0.0 < sample_fraction < 1.0):
            raise ValueError("sample_fraction must lie strictly between 0 and 1")
        if pair_count is None:
            pair_count = max(32, math.ceil(len(message_bits) / (1.0 - sample_fraction)))
            if pair_count > MAX_PAIR_COUNT:
                raise ValueError(f"a {len(message_bits)}-bit message at sample_fraction "
                                 f"{sample_fraction} needs more than {MAX_PAIR_COUNT} pairs; "
                                 "set pair_count (--pairs)")
            if round(sample_fraction * pair_count) < 1:
                # The fewest that sample one, if any within the bound does: f * n must
                # pass 0.5, as a tie rounds to 0, and none below floor(0.5 / f) does.
                pair_count = math.floor(min(0.5 / sample_fraction, MAX_PAIR_COUNT))
                while pair_count < MAX_PAIR_COUNT and round(sample_fraction * pair_count) < 1:
                    pair_count += 1
        # Any threshold of 1 or more never aborts, and an infinite one has no
        # JSON form.
        if not (0.0 <= qber_abort_threshold < np.inf):
            raise ValueError("qber_abort_threshold must be finite and nonnegative")
        check_seed(seed)
        for name, value, model in (("eve_model", eve_model, EveModel),
                                   ("channel_model", channel_model, ChannelModel)):
            if not isinstance(value, model):
                raise ValueError(f"{name} must be a {model.__name__}, got {value!r}")
        self._set(message_bits, pair_count, sample_fraction, eve_model, channel_model, seed,
                  qber_abort_threshold)
        n_sample = phase1_sample_count(self)
        if n_sample < 1:
            raise ValueError("sample_fraction rounds to zero sampled pairs")
        if pair_count - n_sample < self.message_pair_count:
            raise ValueError(
                f"infeasible config: {pair_count} pairs minus {n_sample} "
                f"samples cannot carry {self.message_pair_count} message pairs"
            )

    @property
    def message_pair_count(self) -> int:
        return len(self.message_bits) // 2


def check_seed(seed: int) -> int:
    """Return ``seed`` if every command accepts it: 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def phase1_sample_count(config: QsdcConfig) -> int:
    """Number of positions Alice samples in phase 1: the nearest integer to
    fraction * pairs, a tie rounding half to even as ``round`` does.  The
    seeded transcripts rest on that rule."""
    return int(round(config.sample_fraction * config.pair_count))


class SessionReport(NamedTuple):
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
    """n copies of phi+ as one real array of shape (n, 2, 2): pair, rail of a, rail of b."""
    psi = np.zeros((n, 2, 2))
    psi[:, 0, 0] = psi[:, 1, 1] = SQRT_HALF
    return psi


def flip_rails(psi: np.ndarray, swap, phase) -> np.ndarray:
    """Swap photon a's rails in the rows where ``swap`` holds, then negate its
    rail 2 where ``phase`` holds, in place: the channel's two errors, which
    together make the four dense-coding operations."""
    psi[swap] = psi[swap, ::-1]
    psi[phase, 1] = -psi[phase, 1]
    return psi


# Column 2 * x + outcome is the measured photon's collapsed ket: the outcome's
# Z basis ket where x is 0, and its X basis ket where x is 1; complex rows cast it.
_KETS = np.hstack([np.eye(2), HADAMARD.real])


def _planes(psi: np.ndarray, photon: str) -> np.ndarray:
    # A view of pair rows as (measured rail, partner rail, row) planes.
    return (psi if photon == "a" else psi.transpose(0, 2, 1)).transpose(1, 2, 0)


def _weigh(p: np.ndarray, x) -> np.ndarray:
    # Rotate planes ``p`` into the X basis in place where ``x`` holds, and
    # return the outcome weights, shape (2, rows).
    h = SQRT_HALF * p
    p[0], p[1] = np.where(x, h[0] + h[1], p[0]), np.where(x, h[0] - h[1], p[1])
    w = np.abs(p)
    w **= 2
    return w[:, 0] + w[:, 1]


def _collapse(p: np.ndarray, w: np.ndarray, x, out) -> np.ndarray:
    # Collapse the rotated planes ``p``, weighed ``w``, onto the outcomes
    # ``out`` in place, keeping each row's norm.
    total = w[0] + w[1]
    kept, w = np.where(out, p[1], p[0]), np.where(out, w[1], w[0])
    # A subnormal weight, picked by a uniform at 0 or next to 1, has lost
    # bits: it is taken again from its amplitudes times 2**511, exactly.
    sub = w < 2.0**-1022
    if sub.any():
        kept[:, sub] *= 2.0**511
        w[sub] = (np.abs(kept[:, sub]) ** 2).sum(axis=0)
    np.multiply(_KETS.take(2 * x + out, axis=1)[:, None], kept, out=p)
    p *= np.sqrt(total / w)
    return p


def _zero_norm(row: int) -> ZeroNormError:
    return ZeroNormError(f"row {row} has zero norm, so its outcome is undefined")


def measure_photon(psi: np.ndarray, photon: str, x_basis, u) -> np.ndarray:
    """Measure one photon of every row, collapsing the rows in place.

    Row i measures in X where ``x_basis[i]`` holds and in Z otherwise, and
    ``u[i]`` picks the outcome by ``_pick``, cumulative-probability inversion
    of one uniform; the collapsed row is the outcome's basis ket times the
    partner's conditional state, scaled to keep the row's norm, so loss
    survives the collapse.  This is the package's one measurement rule.
    Returns the outcomes as an int array.

    The rows are copied into contiguous (measured rail, partner rail, row)
    planes and collapsed in one pass.  Every step is elementwise, so a row's
    outcome and amplitudes depend on that row and its draws alone, as a
    session's pair table needs; real rows get what their complex copies get.
    A row whose weights sum to zero raises ZeroNormError naming the first
    such row, before any row is written, so ``psi`` is then unchanged.
    """
    p = _planes(psi, photon).copy()
    w = _weigh(p, x_basis)
    total = w[0] + w[1]
    if not total.all():
        raise _zero_norm(int(np.flatnonzero(total == 0.0)[0]))
    out = _pick(w[0], w[1], u)
    _planes(psi, photon)[...] = _collapse(p, w, x_basis, out)
    return out.astype(int)


def _trip_width(eve: EveModel) -> int:
    # The channel's two uniforms, then, while Eve is active, her coin, basis
    # and outcome: a spared photon's basis and outcome are drawn and unread.
    return 5 if eve.active else 2


def _draw_trips(rng, check: np.ndarray, eve: EveModel) -> tuple[np.ndarray, np.ndarray]:
    """Draw phase 2's trips in pair order: a check pair's code, then the
    pair's return trip, then the analyzer's three uniforms.

    Returns the check pairs' codes in pair order, and one row per pair
    holding its uniforms in draw order: the two channel uniforms, Eve's
    coin, basis and outcome if she is active, then the analyzer's three.
    Every row has the same width, so the rows are one reshape of the words.
    The draws equal those of ``rng.integers(4)`` per check pair and
    ``rng.random()`` per uniform, and leave the generator where those calls
    leave it.  They come from one block of the bit generator's raw 64-bit
    words, read by the rule NumPy's ``Generator`` follows:

    * ``random()`` is ``(w >> 11) * 2**-53`` of the next word w;
    * ``integers(4)`` is the top two bits of one 32-bit half: the buffered
      high half if ``has_uint32`` is set, else the low half of the next
      word, whose high half is then buffered.

    NEP 19 does not promise this rule; ``tests/test_qsdc.py`` checks it.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    buffered = state["has_uint32"]
    n = len(check)
    width = _trip_width(eve) + 3
    # The check pairs take the 32-bit halves in turn: the buffered half if
    # there is one, then each fresh word's low and high half.  A check pair
    # that takes a low half draws a word before its trip: the k-th such word,
    # counting from 0, follows k of them and the trips of the pairs before it.
    checks = np.flatnonzero(check)
    fresh = checks[buffered::2]
    at = fresh * width + np.arange(len(fresh))
    words = bitgen.random_raw(n * width + len(fresh))
    # A fresh word's little-endian bytes, read as 32-bit words, are its low
    # half and then its high half.
    halves = np.append(np.uint32(state["uinteger"]), words[at].astype("<u8").view("<u4"))
    taken = halves[1 - buffered : 1 - buffered + len(checks)]
    # Shifted and converted in place through an int64 view: numpy converts
    # int64 to float64 much faster than uint64, w >> 11 < 2**53 is exact, and
    # an assignment converts in place, where a ufunc's out= copies its input.
    words >>= 11
    u = words.view(float)
    u[:] = words.view(np.int64)
    u *= 2.0**-53
    trips = (np.delete(u, at) if len(fresh) else u).reshape(n, width)

    # The last half taken, at -1 when the only one was the buffered half:
    # after a low half its high half stays buffered, and after a high half
    # nothing does, though the generator keeps its value.
    last = len(checks) - buffered
    end = bitgen.state
    end["has_uint32"] = last % 2
    end["uinteger"] = int(halves[last + last % 2])
    bitgen.state = end
    return (taken >> 30).astype(int), trips


def _in_use(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    # The keys in [0, size) that occur in ``keys``, ascending, and each
    # entry's place among them.
    seen = np.bincount(keys, minlength=size) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


class _PairTable:
    """The distinct pair rows of a session, each stored once.

    ``rows[ids]`` expands an int array of ids into the pair rows it stands
    for.  A row is interned by its exact bytes, so -0.0 and 0.0 make two
    entries, and ids count from 0 in order of first appearance.
    """

    def __init__(self, rows: np.ndarray):
        self.rows, self.index = rows[:0], {}
        self.intern(rows)

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """The ids of ``rows``, entering each row the table lacks."""
        ids = np.array([self.index.setdefault(row.tobytes(), len(self.index)) for row in rows],
                       dtype=np.intp)
        if len(self.index) > len(self.rows):
            found, first = np.unique(ids, return_index=True)
            self.rows = np.concatenate([self.rows, rows[first[found >= len(self.rows)]]])
        return ids


def _flip_ids(table: _PairTable, ids: np.ndarray, swap, phase) -> np.ndarray:
    # flip_rails on the pairs ``ids``, once per (row, swap, phase) in use.
    used, slot = _in_use(4 * ids + 2 * swap + phase, 4 * len(table.rows))
    rows = flip_rails(table.rows[used >> 2], (used & 2) > 0, (used & 1) > 0)
    return table.intern(rows)[slot]


def _measure_ids(table: _PairTable, ids: np.ndarray, photon: str, x_basis, u):
    """``measure_photon`` on the pairs ``ids``: each (row, basis) in use is
    weighed once, and each (row, basis, outcome) in use collapsed once.
    Returns the outcomes and the pairs' new ids."""
    used, slot = _in_use(2 * ids + x_basis, 2 * len(table.rows))
    x = used % 2 == 1
    p = _planes(table.rows[used >> 1], photon).copy()
    w = _weigh(p, x)
    zero = w[0] + w[1] == 0.0
    if zero.any():
        raise _zero_norm(int(np.flatnonzero(zero[slot])[0]))
    out = _pick(w[0][slot], w[1][slot], u)
    kept, slot = _in_use(2 * slot + out, 2 * len(used))
    k = kept >> 1
    rows = np.empty((len(kept), 2, 2), dtype=p.dtype)
    _planes(rows, photon)[...] = _collapse(p.take(k, axis=2), w.take(k, axis=1), x[k],
                                           kept % 2 == 1)
    return out, table.intern(rows)[slot]


def _transit(table: _PairTable, ids: np.ndarray, config: QsdcConfig,
             trips: np.ndarray) -> np.ndarray:
    # One trip of each pair's travel photon through the channel, with Eve
    # last; returns the pairs' new ids.  Eve measures photon a of the pairs
    # her coin hits, in X where the basis uniform reaches 0.5, else in Z.
    channel, eve = config.channel_model, config.eve_model
    swap, phase = trips[:, 0] < channel.mode_flip_prob, trips[:, 1] < channel.phase_flip_prob
    if swap.any() or phase.any():
        ids = _flip_ids(table, ids, swap, phase)
    if eve.active:
        hit = trips[:, 2] < eve.fraction
        # A full hit gathers nothing: the peak of a session that aborts.
        if hit.all():
            ids = _measure_ids(table, ids, "a", trips[:, 3] >= 0.5, trips[:, 4])[1]
        elif hit.any():
            ids[hit] = _measure_ids(table, ids[hit], "a", trips[hit, 3] >= 0.5, trips[hit, 4])[1]
    return ids


class SessionColumns(NamedTuple):
    """One session's records as columns of numpy arrays, the form the session produces.

    ``phases`` holds phase 1 and, unless the session aborted, phase 2, each
    as ``(pair, kind, summary)``: the pair index and kind of each per-pair
    record in session order, whose record is the kind's entry of
    ``PHASE1_RECORDS`` or ``PHASE2_RECORDS``, then the phase's summary record.
    """

    phases: tuple
    decoded_bits: str

    @property
    def aborted(self) -> bool:
        return self.phases[0][2]["aborted"]

    def transcript(self) -> list:
        """The records as one dict each, in session order, of plain Python values."""
        events = []
        for table, (pairs, kinds, summary) in zip((PHASE1_RECORDS, PHASE2_RECORDS), self.phases):
            events += [{**table[k], "pair": p} for p, k in zip(pairs.tolist(), kinds.tolist())]
            events.append(summary)
        return events

    def report(self, transcript: list) -> SessionReport:
        """The session's report, carrying ``transcript`` as its transcript."""
        check_error_rate = 0.0 if self.aborted else self.phases[1][2]["check_error_rate"]
        return SessionReport(
            phase1_qber=self.phases[0][2]["qber"],
            aborted=self.aborted,
            decoded_bits=self.decoded_bits,
            phase2_sample_error_rate=check_error_rate,
            transcript=transcript,
        )


def session_columns(config: QsdcConfig) -> SessionColumns:
    """Run one complete session and return its records as columns.

    The random-draw order is fixed: pair preparation and forward transit in
    pair order, then sampling positions, then per-sample basis and outcome
    draws, then phase-2 slot assignment, then per-pair check-operation,
    return-transit and analyzer draws in pair order.  Each phase takes its
    draws in that order before it touches the pairs, which then evolve
    together as ids into one table of their distinct rows (see the module
    docstring).  Each transit's draws form one row of a trip table:
    preparation's is one ``rng.random`` block, and phase 2's, read by
    ``_draw_trips`` with the check pairs' codes, ends in the three uniforms
    the analyzer reads.  Phase 1 measures both photons of all its samples at
    once.  Phase 2 keeps each pair's bit pair as an int code and its role as
    a bool.
    """
    rng = np.random.default_rng(config.seed)
    eve = config.eve_model

    table = _PairTable(bell_pairs(1))
    # Preparation's trip table is freed as soon as it has run.
    ids = _transit(table, np.zeros(config.pair_count, dtype=np.intp), config,
                   rng.random((config.pair_count, _trip_width(eve))))

    n_sample = phase1_sample_count(config)
    sampled = np.sort(rng.choice(config.pair_count, size=n_sample, replace=False))
    u = rng.random((n_sample, 3))
    x_basis = u[:, 0] >= 0.5
    alice, checked = _measure_ids(table, ids[sampled], "a", x_basis, u[:, 1])
    bob = _measure_ids(table, checked, "b", x_basis, u[:, 2])[0]
    errors = int(np.count_nonzero(alice != bob))
    kinds = 4 * alice + 2 * bob + x_basis
    qber = errors / n_sample
    aborted = qber > config.qber_abort_threshold
    phase1 = (sampled, kinds, {
        "event": "phase1_summary",
        "sampled": n_sample,
        "errors": errors,
        "qber": qber,
        "aborted": aborted,
    })
    if aborted:
        return SessionColumns((phase1,), "")

    remaining = np.delete(np.arange(config.pair_count), sampled)
    n_message = config.message_pair_count
    slot_picks = rng.choice(len(remaining), size=n_message, replace=False)
    is_message = np.zeros(len(remaining), dtype=bool)
    is_message[slot_picks] = True
    # The message goes into its slots in order, one code per bit pair.
    bits = np.frombuffer(config.message_bits.encode(), dtype=np.uint8) - ord("0")
    codes = np.zeros(len(remaining), dtype=int)
    codes[is_message] = 2 * bits[0::2] + bits[1::2]
    check_codes, trips = _draw_trips(rng, ~is_message, eve)
    codes[~is_message] = check_codes

    back = _flip_ids(table, ids[remaining], codes % 2 == 1, codes >= 2)
    back = _transit(table, back, config, trips)
    used, slot = _in_use(back, len(table.rows))
    inferred = _analyze_table(table.rows[used], slot, trips[:, -3:])

    check_pairs = len(remaining) - n_message
    check_errors = int(np.count_nonzero((inferred != codes) & ~is_message))
    phase2 = (remaining, 8 * inferred + 2 * codes + is_message, {
        "event": "phase2_summary",
        "message_pairs": n_message,
        "check_pairs": check_pairs,
        "check_errors": check_errors,
        "check_error_rate": check_errors / check_pairs if check_pairs else 0.0,
    })
    decoded_bits = "".join(CODE_BITS[c] for c in inferred[is_message].tolist())
    return SessionColumns((phase1, phase2), decoded_bits)


def run_session(config: QsdcConfig) -> SessionReport:
    """Run one complete session and return its report (``session_columns``)."""
    columns = session_columns(config)
    return columns.report(columns.transcript())
