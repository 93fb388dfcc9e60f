"""Command-line front end: single analyzer runs, quality sweeps, sessions.

Three subcommands share one seeding convention: every command accepts
``--seed``, and when it is absent a seed is drawn from the system entropy
source and recorded in the output metadata, so any emitted file can be
reproduced exactly.

Exit codes: 0 success, 1 usage or configuration errors, each reported as
one ``error:`` line on stderr, 2 when a session aborts its channel check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .bsa import CODE_BELL, DetectorPair, _pick_branch, outcome_distribution, quality_at
from .cavity import check_number, operating_point
from .qsdc import ChannelModel, EveModel, QsdcConfig, run_session
from .register import BellState, ZeroNormError

OUT_DIR_ENV = "SPATIALBSA_OUT_DIR"

CSV_HEADER = "g_over_ktot,ks_over_k,abs_r0,abs_rh,F1,eta1,F2,eta2"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"

# The largest sweep grid in rows (steps x ks values).  tracemalloc puts the sweep
# command at about 360 bytes per row (20 000 and 40 000 steps x 3 ks): the CSV
# text twice, as its ks blocks and joined, and the rows' floats.  So ~0.73 GB.
MAX_SWEEP_ROWS = 2_000_000

# The most bsa trials.  tracemalloc puts the command at about 66 bytes per trial
# (200 000 and 2 000 000 trials), in the pick over its one draw block; the success
# sum's 8 bytes a trial come later, below that peak.  So ~1.3 GB.
MAX_BSA_TRIALS = 20_000_000

_EPILOG = (
    "Configuration precedence: command-line flags override config-file values, "
    "which override built-in defaults.  If the environment variable "
    f"{OUT_DIR_ENV} is set, relative --out paths are resolved inside it."
)


class CliParser(argparse.ArgumentParser):
    """ArgumentParser that reserves exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def draw_seed() -> int:
    """Fresh 64-bit seed from the system entropy source."""
    return int.from_bytes(os.urandom(8), "big")


def resolve_out(path_text: str | None) -> Path | None:
    """Map an --out value to a path, or None for stdout."""
    if path_text is None or path_text == "-":
        return None
    path = Path(path_text)
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    return path


def _emit(text: str, out: Path | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        out.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """Grid of cavity operating points for a quality sweep."""

    g_min: float
    g_max: float
    steps: int
    ks_list: tuple[float, ...]
    gamma: float = 0.1
    detuning: float = 0.5

    def __post_init__(self):
        check_number("steps", self.steps, whole=True)
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        for name in ("g_min", "g_max", "gamma", "detuning"):
            check_number(name, getattr(self, name))
            if not math.isfinite(getattr(self, name)):
                raise ValueError("sweep ranges must be finite")
        if not (self.g_min < self.g_max):
            raise ValueError("g range must satisfy min < max")
        if self.g_min < 0.0:
            raise ValueError("g must be nonnegative")
        if not isinstance(self.ks_list, (tuple, list)):
            raise ValueError(f"ks_list must be a tuple or list, got {type(self.ks_list).__name__}")
        if not self.ks_list:
            raise ValueError("at least one ks_over_k value is required")
        for ks in self.ks_list:
            check_number("ks_over_k", ks)
        if any(not math.isfinite(ks) or ks < 0.0 for ks in self.ks_list):
            raise ValueError("ks_over_k values must be finite and nonnegative")
        if self.steps * len(self.ks_list) > MAX_SWEEP_ROWS:
            raise ValueError(f"sweep must have at most {MAX_SWEEP_ROWS} rows (steps x ks values)")


def sweep_points(spec: SweepSpec) -> np.recarray:
    """Evaluate the quality figures over the grid, one record per row, ordered (ks, g).

    Each ks value's rows are one array evaluation.  A CavityParams for its
    first row checks what the rows share, and the other checks run in an
    order that raises the error of the first failing row: a zero hot-cavity
    denominator needs D_x = 0 and g^2 = 0, and D_x = 0 keeps r_hot at 1 on
    every other row, a vanishing reflection needs a small g, and an
    overflowing hot response fails every row or those whose g^2 overflows;
    so a row failing any of them precedes any row whose g overflows.
    """
    g_over_ktot = np.linspace(spec.g_min, spec.g_max, spec.steps)
    blocks = []
    for ks in sorted(spec.ks_list):
        params = operating_point(float(g_over_ktot[0]), ks, spec.gamma, spec.detuning)
        with np.errstate(over="ignore"):
            g = g_over_ktot * (1.0 + ks)  # as operating_point scales each row
        blocks.append(quality_at(params, g))
        if not np.isfinite(g).all():
            raise ValueError("g must be finite")
    return np.concatenate(blocks).view(np.recarray)


def format_sweep_csv(points: np.recarray, spec: SweepSpec, seed: int) -> str:
    """Render sweep rows as CSV with metadata comments.

    Floats are printed with 17 significant digits, enough for an exact
    binary round trip through float().
    """
    head = "\n".join([
        "# spatial-mode analyzer quality sweep",
        f"# gamma={spec.gamma:.17g} detuning={spec.detuning:.17g} kappa=1",
        "# note: eta2 is emitted exactly as the even-round efficiency formula"
        " gives it; it is not a probability and reaches 1.5 at |r0|=|rh|=1",
        f"# seed={seed}",
        CSV_HEADER,
    ])
    # One template per row over the records as tuples of Python floats, joined
    # one ks block at a time so that only one block's rows are held at once.
    blocks = (
        "".join(map(_CSV_ROW.__mod__, points[i : i + spec.steps].tolist()))
        for i in range(0, len(points), spec.steps)
    )
    return "".join(chain([head, "\n"], blocks))


def parse_sweep_csv(text: str) -> list[dict]:
    """Parse an emitted sweep CSV back into one dict per row."""
    rows = []
    columns = CSV_HEADER.split(",")
    for line in text.splitlines():
        if not line or line.startswith("#") or line == CSV_HEADER:
            continue
        values = [float(v) for v in line.split(",")]
        rows.append(dict(zip(columns, values)))
    return rows


def cmd_bsa(args) -> int:
    seed = args.seed if args.seed is not None else draw_seed()
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
    # Summed one trial at a time, left to right, in place: the goldens pin the last bit.
    success = np.full(args.trials, dist.success)
    np.add.accumulate(success, out=success)
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
        "mean_success_probability": float(success[-1]) / args.trials,
    }
    return _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", resolve_out(args.out))


def cmd_sweep(args) -> int:
    seed = args.seed if args.seed is not None else draw_seed()
    spec = SweepSpec(
        g_min=args.g_min,
        g_max=args.g_max,
        steps=args.steps,
        ks_list=tuple(float(v) for v in args.ks.split(",") if v.strip()),
        gamma=args.gamma,
        detuning=args.detuning,
    )
    text = format_sweep_csv(sweep_points(spec), spec, seed)
    return _emit(text, resolve_out(args.out))


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


def _auto_pair_count(message_bits: str, sample_fraction: float) -> int:
    # Enough pairs that the message fits beside the security sample, with
    # about as many phase-2 check pairs as message pairs.  Only a valid
    # fraction is sized; QsdcConfig rejects any other.
    if not 0.0 < sample_fraction < 1.0:
        return 32
    need = 2 * (len(message_bits) // 2)
    return max(32, math.ceil(need / (1.0 - sample_fraction)))


def build_qsdc_config(args) -> QsdcConfig:
    """Assemble a QsdcConfig: a set flag wins, then a non-null file value, then the default."""
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

    eve = values["eve_model"]
    if eve.get("kind") == "intercept_resend":
        eve.setdefault("fraction", 1.0)
    eve_model, channel_model = EveModel(**eve), ChannelModel(**values["channel_model"])
    top = values["config"]
    if "message_bits" not in top:
        raise ValueError("a message is required (--message or config file)")
    if "pair_count" not in top:
        fraction = top.get("sample_fraction", QsdcConfig.sample_fraction)
        top["pair_count"] = _auto_pair_count(top["message_bits"], fraction)
    if "seed" not in top:
        top["seed"] = draw_seed()
    return QsdcConfig(**top, eve_model=eve_model, channel_model=channel_model)


# One C-encoder pass lays out a whole transcript: its events are flat records
# of scalars, so an item separator that carries a record key's indentation
# serves both inside and between records, and only the record boundaries
# need rewriting.  A JSON string holds no raw newline, so the boundary text
# occurs nowhere else.
_EVENT_INDENT = "\n" + 8 * " "
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=("," + _EVENT_INDENT, ": "))


def _qsdc_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` for a qsdc payload.

    The pure-Python encoder that ``indent`` selects costs more than the
    session on a large transcript; here it lays out only the small rest of
    the payload.  The transcript must be a non-empty list of non-empty flat
    records, as ``run_session`` makes it.  With sorted keys it is the last
    value of the report, which is the payload's last value, so the last
    ``[]`` of the small dump is its slot.
    """
    report = payload["report"]
    head, _, tail = json.dumps(
        {**payload, "report": {**report, "transcript": []}}, indent=2, sort_keys=True
    ).rpartition("[]")
    # Sliced in one expression, so the encoder's text is freed before the replace.
    body = _EVENT_ENCODER.encode(report["transcript"])[2:-2].replace(
        "}," + _EVENT_INDENT + "{", "\n      },\n      {" + _EVENT_INDENT
    )
    return "".join((head, "[\n      {", _EVENT_INDENT, body, "\n      }\n    ]", tail))


def cmd_qsdc(args) -> int:
    config = build_qsdc_config(args)
    report = run_session(config)
    payload = {
        "command": "qsdc",
        "config": asdict(config),
        "report": {
            "phase1_qber": report.phase1_qber,
            "aborted": report.aborted,
            "decoded_bits": report.decoded_bits,
            "phase2_sample_error_rate": report.phase2_sample_error_rate,
            "transcript": report.transcript,
        },
    }
    status = _emit(_qsdc_json(payload) + "\n", resolve_out(args.out))
    if status != 0:
        return status
    return 2 if report.aborted else 0


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


if __name__ == "__main__":
    sys.exit(main())
