"""Command-line front end: single analyzer runs, quality sweeps, sessions.

Three subcommands share one seeding convention: every command accepts
``--seed``, and when it is absent a seed is drawn from the system entropy
source and recorded in the output metadata, so any emitted file can be
reproduced exactly.

Exit codes: 0 success, also when the reader of stdout, or of a pipe named by
``--out``, leaves early, 1 usage or configuration errors, each reported as
one ``error:`` line on stderr, 2 when a session aborts its channel check.
Output streams as it is made, so a session that aborts and whose reader
leaves early exits 0 too.
"""

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

import numpy as np

from .bsa import (
    CODE_BELL, QUALITY_FIELDS, DetectorPair, _pick_branch, outcome_distribution, quality_at,
)
from .cavity import Frozen, check_number, operating_point
from .qsdc import (
    PHASE1_RECORDS,
    PHASE2_RECORDS,
    ChannelModel,
    EveModel,
    QsdcConfig,
    SessionColumns,
    check_seed,
    session_columns,
)
from .states import BellState, ZeroNormError

OUT_DIR_ENV = "SPATIALBSA_OUT_DIR"

CSV_HEADER = ",".join(QUALITY_FIELDS)
_SWEEP_RECORD = np.dtype([(name, float) for name in QUALITY_FIELDS])  # a CSV row's floats
# The sweep CSV is formatted and written this many rows at a time.  A chunk's text is
# at most 512 x 8 x 25 = 102 400 bytes, and each array the writer and _g17 make for its
# 3 072 values is 74 KB at most: each stays below 128 KiB, from which glibc's malloc may
# map a block afresh, so the chunks reuse heap pages.  In a fresh interpreter 1 024-row
# chunks made the writer 16% slower on a 10 000 x 3 grid.
_CHUNK_ROWS = 512
# qsdc records are formatted and written this many at a time.  The longest record,
# a phase-2 one with a six-digit pair index, is 201 bytes, so a chunk's text stays
# below 52 KB, and tracemalloc puts the writer at 0.13 MB whatever the pair count.
# In a fresh interpreter the 8 000-pair qsdc_clean report takes 26 minor faults,
# whether or not glibc's mmap threshold is pinned at 128 KiB.
_RECORD_ROWS = 256

# sweep_points evaluates a ks block this many rows at a time, so that each of quality_at's
# temporaries, 64 KB at most (a complex column), stays below 128 KiB and the blocks reuse
# heap pages that the block before freed.  In one evaluation per ks block, the sweep's
# page faults followed import-time allocations in modules it never runs.  In a fresh
# interpreter as the benchmark makes it (2-core VM, Python 3.11.7, NumPy 2.4.6), on the
# seed-1 sweep_grid argv (10 000 steps x 3 ks), cli.main then took 1 432 minor faults,
# or 1 566 once the configs stopped loading dataclasses; in blocks of 1 024, 2 048 and
# 4 096 rows it took 571, 568 and 510.  Each block costs a Python call: warm,
# sweep_points took 2.4, 6.7, 4.9 and 3.1 ms.
_SWEEP_ROWS = 4096

# The largest sweep grid in rows (steps x ks values).  tracemalloc puts the sweep command
# at 78 and 74 bytes per row (20 000 and 40 000 steps x 3 ks): sweep_points' 64-byte
# records and its two columns of couplings; one block's quality_at, which writes its
# columns into those records, and the CSV writer's chunks do not grow with the grid.
# So ~0.15 GB.
MAX_SWEEP_ROWS = 2_000_000

# The most bsa trials.  tracemalloc puts the command at about 66 bytes per trial
# (200 000 and 2 000 000 trials), in the pick over its one draw block.  So ~1.3 GB.
MAX_BSA_TRIALS = 20_000_000

_EPILOG = (
    "Configuration precedence: command-line flags override config-file values, "
    "which override built-in defaults.  If the environment variable "
    f"{OUT_DIR_ENV} is set, relative --out paths are resolved inside it."
)


class CliParser(argparse.ArgumentParser):
    """ArgumentParser that reserves exit code 1 for usage errors and reads a
    negative number that float() reads, as ``-1e-3`` or ``-inf``, as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern has no inf or nan, and before Python 3.13 no exponent.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|(?i:^-(inf|infinity|nan)$)")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def draw_seed() -> int:
    """Fresh 64-bit seed from the system entropy source."""
    return int.from_bytes(os.urandom(8), "big")


def _emit(text: str, stream: TextIO) -> None:
    stream.write(text)


@contextmanager
def _opened(path_text: str | None) -> Iterator[TextIO]:
    """An --out value's stream: stdout for none or '-', flushed at the end, else
    the file, opened here for writing.  A file that cannot be written raises
    ValueError; a reader that has left, of stdout or of a pipe named by --out,
    raises BrokenPipeError."""
    if path_text is None or path_text == "-":
        yield sys.stdout
        sys.stdout.flush()
        return
    out = Path(path_text)
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not out.is_absolute():
        out = Path(out_dir) / out
    try:
        with out.open("w") as stream:
            yield stream
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


class SweepSpec(Frozen):
    """Grid of cavity operating points for a quality sweep."""

    __slots__ = ("g_min", "g_max", "steps", "ks_list", "gamma", "detuning")

    def __init__(self, g_min: float, g_max: float, steps: int, ks_list: tuple[float, ...],
                 gamma: float = 0.1, detuning: float = 0.5):
        steps = check_number("steps", steps, whole=True)
        if steps < 2:
            raise ValueError("steps must be at least 2")
        ranges = []
        for name, value in zip(("g_min", "g_max", "gamma", "detuning"),
                               (g_min, g_max, gamma, detuning)):
            ranges.append(check_number(name, value))
            if not math.isfinite(ranges[-1]):
                raise ValueError("sweep ranges must be finite")
        g_min, g_max, gamma, detuning = ranges
        if not (g_min < g_max):
            raise ValueError("g range must satisfy min < max")
        if g_min < 0.0:
            raise ValueError("g must be nonnegative")
        if not isinstance(ks_list, (tuple, list)):
            raise ValueError(f"ks_list must be a tuple or list, got {type(ks_list).__name__}")
        if not ks_list:
            raise ValueError("at least one ks_over_k value is required")
        ks_list = tuple(check_number("ks_over_k", ks) for ks in ks_list)
        if any(not math.isfinite(ks) or ks < 0.0 for ks in ks_list):
            raise ValueError("ks_over_k values must be finite and nonnegative")
        if steps * len(ks_list) > MAX_SWEEP_ROWS:
            raise ValueError(f"sweep must have at most {MAX_SWEEP_ROWS} rows (steps x ks values)")
        self._set(g_min, g_max, steps, ks_list, gamma, detuning)


def sweep_points(spec: SweepSpec) -> np.recarray:
    """Evaluate the quality figures over the grid, one record per row, ordered (ks, g).

    Each ks value's rows are array evaluations of ``_SWEEP_ROWS`` rows in
    row order; every figure is elementwise, so a row's bits do not depend on
    its block.  A CavityParams for its first row checks what the rows share,
    and the other checks run in an order that raises the error of the first
    failing row: with D_x = 0 r_hot is undefined at g = 0 and 1 on every
    other row, a vanishing reflection needs a small g, and an overflowing hot
    response fails every row or those whose g^2 overflows; so a row failing
    any of them precedes any row whose g overflows.  That holds in each
    block, and the first block with a failing row holds the first failing row.
    """
    g_over_ktot = np.linspace(spec.g_min, spec.g_max, spec.steps)
    points = np.recarray(spec.steps * len(spec.ks_list), _SWEEP_RECORD)
    for start, ks in zip(range(0, len(points), spec.steps), sorted(spec.ks_list)):
        params = operating_point(float(g_over_ktot[0]), ks, spec.gamma, spec.detuning)
        with np.errstate(over="ignore"):
            g = g_over_ktot * (1.0 + ks)  # as operating_point scales each row
        block = points[start : start + spec.steps]
        for i in range(0, spec.steps, _SWEEP_ROWS):
            quality_at(params, g[i : i + _SWEEP_ROWS], out=block[i : i + _SWEEP_ROWS])
        if not np.isfinite(g).all():
            raise ValueError("g must be finite")
    return points


def format_sweep_csv(points: np.recarray, spec: SweepSpec, seed: int, out: TextIO) -> None:
    """Write sweep rows to out as CSV with metadata comments, a chunk of rows at a time.

    Floats are printed with 17 significant digits, enough for an exact
    binary round trip through float().  The rows come in blocks of ``spec.steps``,
    one per ks value, as ``sweep_points`` returns them; another dtype, or a block
    whose ks_over_k or abs_r0 varies, raises ValueError before anything is written.
    """
    if points.dtype != _SWEEP_RECORD:  # the float view below would read it as garbage
        raise ValueError(f"points must have the dtype sweep_points makes, got {points.dtype}")
    head = "\n".join([
        "# spatial-mode analyzer quality sweep",
        f"# gamma={spec.gamma:.17g} detuning={spec.detuning:.17g} kappa=1",
        "# note: eta2 is emitted exactly as the even-round efficiency formula"
        " gives it; it is not a probability and reaches 1.5 at |r0|=|rh|=1",
        f"# seed={seed}",
        CSV_HEADER,
    ])
    rows = points.view((float, len(QUALITY_FIELDS)), np.ndarray)  # a row's figures in order
    for col, name in enumerate(QUALITY_FIELDS[1:3], 1):  # ks_over_k and abs_r0
        bits = rows[:, col].view(np.uint64)  # by bits, since -0.0 and 0.0 print apart
        if (bits != bits[:: spec.steps].repeat(spec.steps)[: len(bits)]).any():
            raise ValueError(f"{name} must hold one value in each block of {spec.steps} rows")
    _emit(head + "\n", out)
    # A row is eight 25-byte cells, a column's NUL-padded text, written as one void, and
    # then its comma or newline.  A block writes its ks_over_k and abs_r0 cells once, and
    # each chunk scatters the other six's text, sorted as _g17 leaves it, in one step.
    line = np.zeros((_CHUNK_ROWS, 8, 25), np.uint8)
    line[:, :, 24] = np.frombuffer(b",,,,,,,\n", np.uint8)
    cells = line.reshape(-1, 25)[:, :24].view("V24")[:, 0]  # row r's column c at 8 * r + c
    dest = (np.arange(0, cells.size, 8)[:, None] + [0, 3, 4, 5, 6, 7]).ravel()
    text, order = _g17(rows[:: spec.steps, 1:3].reshape(-1))
    shared = np.empty(len(order), "V24")
    shared[order] = text.view("V24")[:, 0]
    for start, shared_cells in zip(range(0, len(rows), spec.steps), shared.reshape(-1, 2)):
        block, cells.reshape(-1, 8)[:, 1:3] = rows[start : start + spec.steps], shared_cells
        for i in range(0, len(block), _CHUNK_ROWS):
            values = block[i : i + _CHUNK_ROWS, [0, 3, 4, 5, 6, 7]]
            text, order = _g17(values.reshape(-1))
            cells[dest.take(order)] = text.view("V24")[:, 0]
            _emit(line[: len(values)].tobytes().translate(None, b"\0").decode("ascii"), out)


# 10**j for j = -4 ... 20 as the nearest doubles (exact from j = 0, and above
# 10**j before it) and their high halves; the ASCII of "0000" ... "9999", then
# again with trailing zeros as NUL, each entry as one uint32.
_POW10 = np.array([float(f"1e{j}") for j in range(-4, 21)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_DIGITS = np.empty((2, 10_000, 4), np.uint8)
_kept = np.zeros(10_000, bool)  # digit _k of the group, or a later one, is nonzero
for _k in range(3, -1, -1):
    _DIGITS[:, :, _k] = np.tile(np.arange(48, 58, dtype=np.uint8).repeat(10 ** (3 - _k)), 10**_k)
    _kept |= _DIGITS[0, :, _k] != 48
    _DIGITS[1, :, _k] *= _kept
_DIGITS = _DIGITS.view(np.uint32).ravel()
del _k, _kept


def _g17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.17g' % v`` for each float64 v of x as NUL-padded 24-byte rows, sorted by
    decimal exponent to be laid out by slices, and the order that sorts x so: row k is
    x[order[k]]'s text.  Python formats v outside [1e-4, 1e16).
    """
    lanes, index = np.zeros((3, len(x)), np.uint32), np.empty((len(x), 5), np.uint32)
    groups, text = np.empty((len(x), 5), np.uint32), np.zeros((len(x), 24), np.uint8)
    fast = (x >= 1e-4) & (x < 1e16)
    a = np.where(fast, x, 1e16)  # the first double of exponent 16, which sorts slow values last
    # a's binary exponent e2 is its bits >> 52, less 1023, and (e2 * 78913) >> 18 is
    # floor(e2 * log10 2) for |e2| <= 1 650: a's decimal exponent e, or e - 1 where a
    # reaches the next power of ten, as one compare tells.  Then i is e + 5, so that
    # 10**(e + 1) is _POW10[i] and 10**(16 - e) is _POW10[25 - i].
    i = ((a.view(np.int64) >> 52) * 78913 - (1023 * 78913 - (5 << 18))) >> 18
    i += a >= _POW10.take(i)
    # Dekker's TwoProduct: a * 10**(16 - e) is p + err exactly, and p >= 10**16 is
    # an even integer, so rounding err half-even rounds the product half-even.  No
    # double lies near enough below 10**(e + 1) to round up to 10**17.
    b, b_hi = _POW10.take(25 - i), _POW10_HI.take(25 - i)
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)  # Veltkamp's split by 2**27 + 1
    a_lo, b_lo, p = a - a_hi, b - b_hi, a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    del a, b, b_hi, a_hi, a_lo, b_lo, p, err  # freed before the digit groups are made
    order = np.argsort(i.astype(np.int8), kind="stable")
    # The sorted digits as two uint32 lanes of 9 and 8 digits, each split once into a high
    # and a low 4-digit group, (g0 g1, g2) and (g3, g4), and the lead digit g0 then off g1.
    # A group indexes _DIGITS 10 000 on, its text with trailing zeros as NUL, when only
    # zeros follow it: a lane's low group when the next lane is 0 (lanes[2], after the
    # low lane, always is), and its high group when its low group is 0 too.
    digits = digits.take(order)
    top = digits // 10**8  # int64, so that the product below cannot wrap
    lanes[0], lanes[1] = top, digits - top * 10**8
    high = lanes[:2] // 10_000
    low = lanes[:2] - high * 10_000
    lead = high[0] // 10_000
    high[0] -= lead * 10_000
    pad = (lanes[1:] == 0) * np.uint32(10_000)
    high += pad * (low == 0)
    low += pad
    for k, group in enumerate((lead, high[0], low[0], high[1], low[1])):
        index[:, k] = group
    _DIGITS.take(index, out=groups, mode="clip")  # mode "raise" would write a copy first
    digits = groups.view(np.uint8)[:, 3:]
    ends = i.take(order).searchsorted(np.arange(1, 23)).tolist()  # the sorted rows by exponent
    for exp, rows in zip(range(-4, 17), map(slice, ends, ends[1:])):
        if rows.start == rows.stop:  # no such exponent in x
            continue
        if exp < 0:  # "0.", then -exp - 1 zeros, from the lead group's "000", and the digits
            text.view(np.uint16)[rows, 0] = np.frombuffer(b"0.", np.uint16)
            text[rows, 2 : 18 - exp] = groups.view(np.uint8)[rows, 4 + exp :]
        elif exp < 16:  # the integer digits, then a point if a fraction follows
            np.bitwise_or(digits[rows, : exp + 1], 48, out=text[rows, : exp + 1])  # "0" for NUL
            np.minimum(digits[rows, exp + 1], 46, out=text[rows, exp + 1])  # "." or NUL
            text[rows, exp + 2 : 18] = digits[rows, exp + 1 :]
        else:
            slow = [b"%.17g" % v for v in x.take(order[rows]).tolist()]
            text[rows] = np.array(slow, "S24").view(np.uint8).reshape(-1, 24)
    return text, order


def _seed(args) -> int:
    # The flag's seed, checked before any work, or a fresh one.
    return draw_seed() if args.seed is None else check_seed(args.seed)


def cmd_bsa(args) -> int:
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    label = BellState(args.state)
    params = operating_point(args.g_over_ktot, args.ks_over_k, args.gamma, args.detuning)
    if args.trials > MAX_BSA_TRIALS:
        raise ValueError(f"trials must be at most {MAX_BSA_TRIALS}")
    dist = outcome_distribution(label, params if args.lossy else None)
    if not dist.success > 0.0:
        raise ZeroNormError("no amplitude reaches the detectors")
    # Row i holds trial i's three draws, the doubles that as many scalar draws give.
    u = rng.random((args.trials, 3))
    k, j, l = _pick_branch(np.asarray(dist.weights), *u.T)
    codes = np.bincount(2 * (j ^ l) + k, minlength=4)
    pairs = np.bincount(2 * j + l, minlength=4)
    report = {
        "command": "bsa",
        "state": label.value,
        "ideal": not args.lossy,
        "trials": args.trials,
        "seed": seed,
        "params": {
            "g_over_ktot": args.g_over_ktot,
            "ks_over_k": args.ks_over_k,
            "gamma": args.gamma,
            "detuning": args.detuning,
        },
        "counts": dict(zip(CODE_BELL, codes.tolist())),
        "detectors": {d.value: n for d, n in zip(DetectorPair, pairs.tolist())},
        "spin_changed_count": int(codes[1::2].sum()),
        "mean_success_probability": dist.success,  # every trial's, so their exact mean
    }
    with _opened(args.out) as out:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    return 0


def _ks_value(text: str) -> float:
    # One item of --ks, named in the error when float() cannot read it.
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"ks_over_k must be a number, got {text!r}") from None


def cmd_sweep(args) -> int:
    seed = _seed(args)
    spec = SweepSpec(
        g_min=args.g_min,
        g_max=args.g_max,
        steps=args.steps,
        ks_list=tuple(_ks_value(v) for v in args.ks.split(",") if v.strip()),
        gamma=args.gamma,
        detuning=args.detuning,
    )
    points = sweep_points(spec)
    with _opened(args.out) as out:
        format_sweep_csv(points, spec, seed, out)
    return 0


# Every key a config file may set, by section and field name: its JSON type
# (str, float for any number, int for a whole number) and the qsdc flag that
# overrides it.
_CONFIG_KEYS = {
    "config": {
        "message_bits": (str, "message"),
        "pair_count": (int, "pairs"),
        "sample_fraction": (float, "sample_fraction"),
        "seed": (int, "seed"),
        "qber_abort_threshold": (float, "qber_threshold"),
    },
    "eve_model": {"kind": (str, "eve"), "fraction": (float, "eve_fraction")},
    "channel_model": {
        "mode_flip_prob": (float, "mode_flip_prob"),
        "phase_flip_prob": (float, "phase_flip_prob"),
    },
}
_JSON_NAMES = {str: "a string", float: "a number", int: "a whole number"}


def _typed(name: str, value, json_type: type):
    """Check one config value against its key's JSON type and convert it once.

    JSON numbers are Python's ints and floats, but not true/false, which
    Python counts as ints; a whole number may be written as an integral float.
    """
    if json_type is str and isinstance(value, str):
        return value
    if json_type is not str and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            converted = json_type(value)
        except (OverflowError, ValueError) as exc:  # inf or NaN to int, a huge int to float
            raise ValueError(f"{name}: {exc}") from None
        if json_type is float or converted == value:
            return converted
    # A container is named, not printed: it may be large or deeply nested.
    shown = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)
    raise ValueError(f"{name} must be {_JSON_NAMES[json_type]}, got {shown}")


def build_qsdc_config(args) -> QsdcConfig:
    """Assemble a QsdcConfig: a set flag wins, then a non-null file value, then the
    records' own default, a drawn seed aside."""
    try:
        data = {} if args.config is None else json.loads(Path(args.config).read_text())
    except (OSError, RecursionError) as exc:  # a missing file, or nesting too deep to decode
        raise ValueError(str(exc)) from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    values = {}
    for where, keys in _CONFIG_KEYS.items():
        section = data if where == "config" else data.get(where)
        if section is None:  # a null model counts as absent, as every null key does
            section = {}
        if not isinstance(section, dict):
            raise ValueError(f"{where} must be a JSON object or null")
        nested = ("eve_model", "channel_model") if where == "config" else ()
        unknown = set(section) - {*keys, *nested}
        if unknown:
            raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
        values[where] = {}
        for key, (json_type, flag) in keys.items():
            value = getattr(args, flag)
            if value is None and section.get(key) is not None:
                name = key if where == "config" else f"{where}.{key}"
                value = _typed(name, section[key], json_type)
            if value is not None:
                values[where][key] = value

    eve_model = EveModel(**values["eve_model"])
    channel_model = ChannelModel(**values["channel_model"])
    top = values["config"]
    if "message_bits" not in top:
        raise ValueError("a message is required (--message or config file)")
    if "seed" not in top:
        top["seed"] = draw_seed()
    return QsdcConfig(**top, eve_model=eve_model, channel_model=channel_model)


def _record_json(record: dict) -> str:
    # A flat, nonempty record at the transcript's depth, as json.dumps(record,
    # indent=2, sort_keys=True) lays it out: json's C encoder with the indented
    # text's item separator and the braces laid out again, at a fraction of the
    # cost of the indenting encoder, which is pure Python.
    text = json.dumps(record, sort_keys=True, separators=(",\n        ", ": "))
    return f"      {{\n        {text[1:-1]}\n      }}"


def _record_table(records: tuple) -> tuple[tuple[str, str], ...]:
    # Each record kind's text before and after its pair index: its record with
    # the string "@" as the pair index, followed by the ",\n" of a record that
    # its phase's summary comes after, and split at the "@".
    return tuple(tuple((_record_json({**record, "pair": "@"}) + ",\n").split('"@"'))
                 for record in records)


_PHASE1_TABLE = _record_table(PHASE1_RECORDS)
_PHASE2_TABLE = _record_table(PHASE2_RECORDS)


def _emit_records(table: tuple[tuple[str, str], ...], kinds: np.ndarray, pairs: np.ndarray,
                  out: TextIO) -> None:
    # Each chunk's records are their kinds' texts around their pair indices.
    for i in range(0, len(kinds), _RECORD_ROWS):
        chunk = zip(kinds[i : i + _RECORD_ROWS].tolist(), pairs[i : i + _RECORD_ROWS].tolist())
        _emit("".join([f"{table[kind][0]}{pair}{table[kind][1]}" for kind, pair in chunk]), out)


def format_qsdc_report(config: QsdcConfig, session: SessionColumns, out: TextIO) -> None:
    """Write the qsdc report to out: ``json.dumps(payload, indent=2,
    sort_keys=True)`` plus a newline, for the payload of the config and the
    session's report with its transcript as dicts (``SessionColumns.transcript``).

    The small rest of the payload goes through the encoder.  With sorted
    keys the transcript is the last value of the report, which is the
    payload's last value, so the last ``[]`` of that dump is its slot.  The
    per-pair records go out a chunk at a time, made from a table of each
    record kind's bytes.
    """
    payload = {"command": "qsdc", "config": config._asdict(), "report": session.report([])._asdict()}
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).rpartition("[]")
    # A phase's records follow the head or the last phase's summary and its
    # comma; the transcript's end follows the last summary, without one.
    before = head + "["
    for table, (pairs, kinds, summary) in zip((_PHASE1_TABLE, _PHASE2_TABLE), session.phases):
        _emit(before + "\n", out)
        _emit_records(table, kinds, pairs, out)
        before = _record_json(summary) + ","
    _emit(before[:-1] + "\n    ]" + tail + "\n", out)


def cmd_qsdc(args) -> int:
    config = build_qsdc_config(args)
    session = session_columns(config)
    with _opened(args.out) as out:
        format_qsdc_report(config, session, out)
    return 2 if session.aborted else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> CliParser:
    parser = CliParser(prog="spatialbsa", description=__doc__, epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    bsa = sub.add_parser(
        "bsa",
        help="run repeated analyzer trials on one Bell state",
        epilog=_EPILOG,
    )
    bsa.add_argument("state", choices=[m.value for m in BellState])
    model = bsa.add_mutually_exclusive_group()
    model.add_argument("--ideal", action="store_true", help="ideal phases (default)")
    model.add_argument("--lossy", action="store_true", help="true cavity amplitudes")
    bsa.add_argument("--trials", type=_positive_int, default=100)
    bsa.add_argument("--g-over-ktot", type=float, default=2.4)
    bsa.add_argument("--ks-over-k", type=float, default=0.0)
    bsa.add_argument("--gamma", type=float, default=0.1)
    bsa.add_argument("--detuning", type=float, default=0.5)
    bsa.add_argument("--seed", type=int)
    bsa.add_argument("--out", help="output file ('-' or omitted: stdout)")
    bsa.set_defaults(func=cmd_bsa)

    sweep = sub.add_parser(
        "sweep",
        help="CSV of quality figures over a coupling/leakage grid",
        epilog=_EPILOG,
    )
    sweep.add_argument("--g-min", type=float, default=0.1)
    sweep.add_argument("--g-max", type=float, default=3.0)
    sweep.add_argument("--steps", type=int, default=30)
    sweep.add_argument("--ks", default="0,0.3,0.7", help="comma-separated ks/k values")
    sweep.add_argument("--gamma", type=float, default=0.1)
    sweep.add_argument("--detuning", type=float, default=0.5)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", help="output file ('-' or omitted: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    qsdc = sub.add_parser(
        "qsdc",
        help="run one direct-communication session",
        epilog=_EPILOG,
    )
    qsdc.add_argument("--config", help="JSON file with QsdcConfig fields")
    qsdc.add_argument("--message", help="bit string to send (even length)")
    qsdc.add_argument("--pairs", type=_positive_int, help="number of Bell pairs")
    qsdc.add_argument("--sample-fraction", type=float)
    qsdc.add_argument("--eve", choices=["none", "intercept_resend"])
    qsdc.add_argument("--eve-fraction", type=float)
    qsdc.add_argument("--mode-flip-prob", type=float)
    qsdc.add_argument("--phase-flip-prob", type=float)
    qsdc.add_argument("--qber-threshold", type=float)
    qsdc.add_argument("--seed", type=int)
    qsdc.add_argument("--out", help="output file ('-' or omitted: stdout)")
    qsdc.set_defaults(func=cmd_qsdc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left, as ``| head`` does: end quietly
        # What stdout still holds goes to devnull, so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
