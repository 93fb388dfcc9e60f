"""The four benchmark workloads: the argv each seed generates, and the output checks.

Every workload is a short cycle of ``spatialbsa`` CLI commands.  The
workload seed feeds a ``random.Random`` that derives every program seed and
every generated input, so the same workload seed gives the same argv.  The
program sees only that argv.

A check returns ``(units, reasons, fields)``: the work units the output
confirms, why the output is wrong if it is, and the stable fields that the
reference comparison uses.  A command with any reason counts as failed and
confirms no units.
"""

from __future__ import annotations

import hashlib
import json
import random

NAMES = ("bsa_lossy", "qsdc_clean", "qsdc_intercept", "sweep_grid")

BELL_STATES = ("phi+", "phi-", "psi+", "psi-")

# Full sizes, and the tiny ones the self-test smoke run uses.
SIZES = {
    "full": {"trials": 5000, "clean_pairs": 8000, "clean_bits": 4000,
             "intercept_pairs": 12500, "sweep_steps": 10000},
    "tiny": {"trials": 40, "clean_pairs": 200, "clean_bits": 100,
             "intercept_pairs": 5000, "sweep_steps": 50},
}

LOSSY_G, LOSSY_KS = "2.4", "0.7"
SWEEP_KS = (0.0, 0.3, 0.7)
SWEEP_GAMMA, SWEEP_DETUNING = 0.1, 0.5
FLOAT_RTOL = 1e-9


def _program_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**63))


def commands(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argv of each command in one cycle of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    n = SIZES[size]
    if workload == "bsa_lossy":
        return [
            ["bsa", state, "--lossy", "--g-over-ktot", LOSSY_G, "--ks-over-k", LOSSY_KS,
             "--trials", str(n["trials"]), "--seed", _program_seed(rng)]
            for state in BELL_STATES
        ]
    if workload == "qsdc_clean":
        message = "".join(rng.choice("01") for _ in range(n["clean_bits"]))
        return [["qsdc", "--pairs", str(n["clean_pairs"]), "--sample-fraction", "0.5",
                 "--message", message, "--seed", _program_seed(rng)]]
    if workload == "qsdc_intercept":
        return [["qsdc", "--pairs", str(n["intercept_pairs"]), "--sample-fraction", "0.8",
                 "--eve", "intercept_resend", "--message", "01",
                 "--seed", _program_seed(rng)]]
    if workload == "sweep_grid":
        g_min = round(rng.uniform(0.05, 0.15), 6)
        g_max = round(rng.uniform(2.9, 3.1), 6)
        return [["sweep", "--g-min", repr(g_min), "--g-max", repr(g_max),
                 "--steps", str(n["sweep_steps"]),
                 "--ks", ",".join(repr(k) for k in SWEEP_KS),
                 "--seed", _program_seed(rng)]]
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


# Checks ------------------------------------------------------------------------


def check(workload: str, argv: list[str], exit_code, text: str):
    """Check one command's output; return ``(units, reasons, reference_fields)``."""
    checker = {
        "bsa_lossy": _check_bsa,
        "qsdc_clean": _check_qsdc_clean,
        "qsdc_intercept": _check_qsdc_intercept,
        "sweep_grid": _check_sweep,
    }[workload]
    try:
        units, reasons, fields = checker(argv, exit_code, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, [f"unreadable output: {type(exc).__name__}: {exc}"], None
    return (0 if reasons else units), reasons, fields


def _check_bsa(argv, exit_code, text):
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}, expected 0")
    out = json.loads(text)
    trials = int(_flag(argv, "--trials"))
    if sum(out["counts"].values()) != trials:
        reasons.append(f"counts sum to {sum(out['counts'].values())}, not {trials}")
    if sum(out["detectors"].values()) != trials:
        reasons.append(f"detector counts sum to {sum(out['detectors'].values())}")
    if set(out["counts"]) != set(BELL_STATES):
        reasons.append(f"count labels {sorted(out['counts'])}")
    if out["state"] != argv[1]:
        reasons.append(f"state {out['state']!r}, expected {argv[1]!r}")
    mean = out["mean_success_probability"]
    if not 0.0 < mean <= 1.0:
        reasons.append(f"mean_success_probability {mean} outside (0, 1]")
    fields = {key: out[key] for key in (
        "state", "trials", "seed", "ideal", "counts", "detectors",
        "spin_changed_count", "mean_success_probability")}
    return trials, reasons, fields


# Transcript keys that the reference digest covers.  Float summaries are
# compared through the report fields instead, with a tolerance.
TRANSCRIPT_KEYS = {
    "phase1_sample": ("pair", "basis", "alice", "bob", "agree"),
    "phase1_summary": ("sampled", "errors", "aborted"),
    "phase2_pair": ("pair", "role", "encoded", "inferred", "decoded", "match"),
    "phase2_summary": ("message_pairs", "check_pairs", "check_errors"),
}


def transcript_digest(transcript) -> str:
    """SHA-256 of the known events' known keys, so added fields do not trip it."""
    kept = [
        [event["event"]] + [event[k] for k in TRANSCRIPT_KEYS[event["event"]]]
        for event in transcript
        if event.get("event") in TRANSCRIPT_KEYS
    ]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()


def _qsdc_fields(out):
    report = out["report"]
    return {
        "config": {key: out["config"][key] for key in (
            "pair_count", "sample_fraction", "seed", "qber_abort_threshold")},
        "report": {key: report[key] for key in (
            "phase1_qber", "aborted", "decoded_bits", "phase2_sample_error_rate")},
        "transcript_events": sum(
            1 for e in report["transcript"] if e.get("event") in TRANSCRIPT_KEYS),
        "transcript_sha256": transcript_digest(report["transcript"]),
    }


def _check_qsdc_clean(argv, exit_code, text):
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}, expected 0")
    out = json.loads(text)
    report = out["report"]
    if report["aborted"]:
        reasons.append("session aborted on a clean channel")
    if report["decoded_bits"] != _flag(argv, "--message"):
        reasons.append("decoded_bits differ from the message")
    pairs = out["config"]["pair_count"]
    if pairs != int(_flag(argv, "--pairs")):
        reasons.append(f"pair_count {pairs}, expected {_flag(argv, '--pairs')}")
    return pairs, reasons, _qsdc_fields(out)


def _check_qsdc_intercept(argv, exit_code, text):
    reasons = []
    if exit_code != 2:
        reasons.append(f"exit code {exit_code}, expected 2")
    out = json.loads(text)
    report = out["report"]
    if report["aborted"] is not True:
        reasons.append("session did not abort under intercept-resend")
    qber = report["phase1_qber"]
    if abs(qber - 0.25) > 0.03:
        reasons.append(f"|phase1_qber - 0.25| = {abs(qber - 0.25):.4f} > 0.03")
    if report["decoded_bits"] != "":
        reasons.append("an aborted session decoded bits")
    pairs = out["config"]["pair_count"]
    if pairs != int(_flag(argv, "--pairs")):
        reasons.append(f"pair_count {pairs}, expected {_flag(argv, '--pairs')}")
    return pairs, reasons, _qsdc_fields(out)


SWEEP_COLUMNS = ("g_over_ktot", "ks_over_k", "abs_r0", "abs_rh", "F1", "eta1", "F2", "eta2")


def parse_csv(text: str) -> list[dict]:
    """Rows of an emitted sweep CSV; the header is the first non-comment line."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    missing = set(SWEEP_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"CSV header lacks {sorted(missing)}")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def expected_quality(g_over_ktot: float, ks_over_k: float,
                     gamma: float = SWEEP_GAMMA, detuning: float = SWEEP_DETUNING):
    """(|r0|, |rh|, F1, eta1, F2, eta2) recomputed from the paper's closed forms.

    The benchmark's own oracle: input-output reflection amplitudes with
    kappa = 1, then the two rounds' fidelity and efficiency.
    """
    kappa_s = ks_over_k
    g = g_over_ktot * (1.0 + kappa_s)
    d_x = 0.5 * gamma - 1j * detuning
    d_c = 0.5 * (1.0 + kappa_s) - 1j * detuning
    r0 = abs((0.5 * kappa_s - 0.5 - 1j * detuning) / d_c)
    rh = abs(1.0 - d_x / (d_x * d_c + g * g))
    f1 = (r0**3 + rh**3 + r0**2 * rh + r0 * rh**2) ** 2 / (
        4.0 * (r0**6 + rh**6 + r0**4 * rh**2 + r0**2 * rh**4))
    eta1 = 0.5 * r0**4 + 0.5 * rh**4
    f2 = (r0**5 + rh**5 + r0**4 * rh + r0 * rh**4) ** 2 / (
        8.0 * (r0**10 + rh**10 + r0**8 * rh**2 + r0**2 * rh**8)
    ) + (r0 + rh) ** 2 / (4.0 * (r0**2 + rh**2))
    eta2 = 0.5 + eta1**2
    return r0, rh, f1, eta1, f2, eta2


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


SWEEP_SAMPLES = 64
SWEEP_REFERENCE_STRIDE = 250


def _check_sweep(argv, exit_code, text):
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}, expected 0")
    rows = parse_csv(text)
    steps = int(_flag(argv, "--steps"))
    ks_values = sorted(float(v) for v in _flag(argv, "--ks").split(","))
    g_min, g_max = float(_flag(argv, "--g-min")), float(_flag(argv, "--g-max"))
    if len(rows) != steps * len(ks_values):
        reasons.append(f"{len(rows)} rows, expected {steps * len(ks_values)}")
        return len(rows), reasons, None
    step = (g_max - g_min) / (steps - 1)
    for i, row in enumerate(rows):
        ks, g = ks_values[i // steps], g_min + (i % steps) * step
        if row["ks_over_k"] != ks or not close(row["g_over_ktot"], g):
            reasons.append(f"row {i} is (ks={row['ks_over_k']}, g={row['g_over_ktot']}),"
                           f" expected (ks={ks}, g={g})")
            break
    picks = random.Random(" ".join(argv)).sample(range(len(rows)), min(SWEEP_SAMPLES, len(rows)))
    for i in sorted(picks):
        row = rows[i]
        want = expected_quality(row["g_over_ktot"], row["ks_over_k"])
        got = [row[c] for c in SWEEP_COLUMNS[2:]]
        if not all(close(a, b) for a, b in zip(got, want)):
            reasons.append(f"row {i} quality {got} differs from the closed forms {list(want)}")
            break
    fields = {
        "rows": len(rows),
        "sampled_rows": {
            str(i): {c: rows[i][c] for c in SWEEP_COLUMNS}
            for i in list(range(0, len(rows), SWEEP_REFERENCE_STRIDE)) + [len(rows) - 1]
        },
    }
    return len(rows), reasons, fields


# Reference comparison ------------------------------------------------------------


def compare(reference, actual, path: str = "") -> list[str]:
    """Differences between a reference and an output projection.

    Every field the reference holds must be present; discrete values match
    exactly and floats to a relative FLOAT_RTOL.  Fields the reference does
    not hold are ignored.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{path or 'output'} is not an object"]
        diffs = []
        for key, value in reference.items():
            if key not in actual:
                diffs.append(f"{path}{key} missing")
            else:
                diffs.extend(compare(value, actual[key], f"{path}{key}."))
        return diffs
    if isinstance(reference, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if close(float(actual), reference):
            return []
        return [f"{path.rstrip('.')} = {actual!r}, reference {reference!r}"]
    if reference != actual or type(reference) is not type(actual):
        return [f"{path.rstrip('.')} = {str(actual)[:80]}, reference {str(reference)[:80]}"]
    return []
