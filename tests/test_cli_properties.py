"""Property tests of the CLI: argument vectors and the qsdc report text.

Every generated command must end with an exit code in {0, 1, 2} and no
exception escaping ``cli.main``; a value error must come out as exactly one
``error:`` line.  Workloads stay tiny: ``--trials`` at most 4, ``--steps``
at most 8, ``--pairs`` at most 64 and always given (without it the automatic
pair count grows without bound as the sample fraction nears 1), messages of
at most 8 bits.  A qsdc config file whose one bad key holds a value of the
wrong JSON type must exit 1 with one ``error:`` line naming that key.

``bsa`` draws all its trials as one block; its report must equal, bit for
bit, what one ``analyze`` call per trial on the command's generator gives.

The qsdc report writer must give the text of ``json.dumps(payload,
indent=2, sort_keys=True)``, with the session's transcript as dicts, on
small real sessions; its record kernel must give each record's dump for
every record kind and pair indices of every digit count; and the transcript
must hold plain Python values.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from spatialbsa import cli
from spatialbsa.bsa import DetectorPair, analyze
from spatialbsa.cavity import operating_point
from spatialbsa.qsdc import (
    ChannelModel,
    EveModel,
    MAX_PAIR_COUNT,
    PHASE1_RECORDS,
    PHASE2_RECORDS,
    QsdcConfig,
    run_session,
    session_columns,
)
from spatialbsa.register import BellState, ZeroNormError

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0, 0.5, 1e308, 5e-324)
numbers = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(0.0, 1.0), st.floats(-10.0, 10.0)
)
seeds = st.integers(-3, 2**65)
messages = st.text(alphabet="01", max_size=8)


def flag(name, values):
    """An optional ``--name=value`` argument (the = keeps "-inf" a value)."""
    return st.one_of(st.none(), values.map(lambda v: f"--{name}={v!r}"))


def argv_of(head, *optional):
    return st.tuples(*optional).map(lambda opts: [*head, *(o for o in opts if o)])


bsa_argv = st.sampled_from(["phi+", "phi-", "psi+", "psi-"]).flatmap(
    lambda state: argv_of(
        ["bsa", state],
        st.sampled_from([None, "--ideal", "--lossy"]),
        flag("trials", st.integers(-1, 4)),
        flag("g-over-ktot", numbers),
        flag("ks-over-k", numbers),
        flag("gamma", numbers),
        flag("detuning", numbers),
        flag("seed", seeds),
    )
)

sweep_argv = argv_of(
    ["sweep"],
    flag("g-min", numbers),
    flag("g-max", numbers),
    flag("steps", st.integers(-1, 8)),
    st.one_of(
        st.none(),
        st.lists(numbers, max_size=3).map(
            lambda ks: "--ks=" + ",".join(repr(v) for v in ks)
        ),
    ),
    flag("gamma", numbers),
    flag("detuning", numbers),
    flag("seed", seeds),
)

eve_section = st.fixed_dictionaries(
    {}, optional={"kind": st.sampled_from(["none", "intercept_resend"]), "fraction": numbers}
)
channel_section = st.fixed_dictionaries(
    {}, optional={"mode_flip_prob": numbers, "phase_flip_prob": numbers}
)
config_files = st.fixed_dictionaries(
    {},
    optional={
        "message_bits": messages,
        "pair_count": numbers,
        "sample_fraction": numbers,
        "eve_model": eve_section,
        "channel_model": channel_section,
        "seed": st.one_of(numbers, seeds),
        "qber_abort_threshold": numbers,
    },
)

qsdc_argv = st.integers(1, 64).flatmap(
    lambda pairs: argv_of(
        ["qsdc", f"--pairs={pairs}"],
        st.one_of(st.none(), messages.map(lambda m: f"--message={m}")),
        flag("sample-fraction", numbers),
        st.one_of(
            st.none(),
            st.sampled_from(["none", "intercept_resend"]).map(lambda k: f"--eve={k}"),
        ),
        flag("eve-fraction", numbers),
        flag("mode-flip-prob", numbers),
        flag("phase-flip-prob", numbers),
        flag("qber-threshold", numbers),
        flag("seed", seeds),
    )
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    argv=st.one_of(bsa_argv, sweep_argv, qsdc_argv),
    config=st.one_of(st.none(), config_files),
)
@example(argv=["sweep", "--g-min=0", "--ks=1", "--detuning=0"], config=None)
def test_cli_never_raises_and_reports_errors_on_one_line(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None and argv[0] == "qsdc":
            path = Path(tmp) / "session.json"
            path.write_text(json.dumps(config))
            argv = [*argv, f"--config={path}"]
        code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert sum("error:" in line for line in err.splitlines()) == 1
        if not err.startswith("usage:"):
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def per_trial_bsa(label, params, trials, seed):
    """The bsa report fields as one analyzer run per trial counts them; the
    mean is the success probability that every trial must share."""
    rng = np.random.default_rng(seed)
    counts = {m.value: 0 for m in BellState}
    detectors = {d.value: 0 for d in DetectorPair}
    changed = 0
    success = set()
    for _ in range(trials):
        record = analyze(label, params=params, rng=rng)
        counts[record.inferred.value] += 1
        detectors[record.detectors.value] += 1
        changed += 1 if record.spin_changed else 0
        success.add(record.success_probability)
    assert len(success) == 1
    return counts, detectors, changed, success.pop()


@settings(max_examples=80, deadline=None)
@given(
    label=st.sampled_from(list(BellState)),
    ideal=st.booleans(),
    point=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 2.0), st.floats(0.01, 1.0),
                    st.floats(-3.0, 3.0)),
    trials=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
@example(label=BellState.PHI_PLUS, ideal=False, point=(0.0, 1.0, 0.1, 0.0), trials=5, seed=1)
def test_bsa_block_draw_matches_per_trial_loop(label, ideal, point, trials, seed):
    g, ks, gamma, detuning = point
    argv = ["bsa", label.value, "--ideal" if ideal else "--lossy", f"--trials={trials}",
            f"--g-over-ktot={g!r}", f"--ks-over-k={ks!r}", f"--gamma={gamma!r}",
            f"--detuning={detuning!r}", f"--seed={seed}"]
    code, out, err = run_main(argv)
    try:
        params = operating_point(g, ks, gamma, detuning)
        want = per_trial_bsa(label, None if ideal else params, trials, seed)
    except ZeroNormError as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    report = json.loads(out)
    assert code == 0
    got = (report["counts"], report["detectors"], report["spin_changed_count"],
           report["mean_success_probability"])
    assert got == want


# Each settable config key by section, with its JSON type: "string",
# "number", or "whole" (a number with an integral value).
KEY_TYPES = {
    ("config", "message_bits"): "string",
    ("config", "pair_count"): "whole",
    ("config", "sample_fraction"): "number",
    ("config", "seed"): "whole",
    ("config", "qber_abort_threshold"): "number",
    ("eve_model", "kind"): "string",
    ("eve_model", "fraction"): "number",
    ("channel_model", "mode_flip_prob"): "number",
    ("channel_model", "phase_flip_prob"): "number",
}
numeric_strings = st.one_of(
    st.sampled_from(["0.2", "64", "1e3", "NaN", "true"]),
    st.floats(allow_nan=False).map(repr),
    st.integers().map(str),
)
containers = st.one_of(
    st.lists(st.one_of(numbers, st.booleans(), numeric_strings), max_size=2),
    st.dictionaries(st.text(max_size=3), numbers, max_size=2),
)
non_numbers = st.one_of(numeric_strings, st.booleans(), containers)
wrong_values = {
    "string": st.one_of(numbers, st.integers(), st.booleans(), containers),
    "number": non_numbers,
    "whole": non_numbers,
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), where_key=st.sampled_from(sorted(KEY_TYPES)))
def test_config_value_of_wrong_json_type_is_one_error_line(data, where_key):
    where, key = where_key
    value = data.draw(wrong_values[KEY_TYPES[where_key]], label="value")
    config = {"message_bits": "0101", "pair_count": 64, "seed": 1}
    (config if where == "config" else config.setdefault(where, {}))[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        path.write_text(json.dumps(config))
        code, out, err = run_main(["qsdc", f"--config={path}"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


@st.composite
def sessions(draw):
    """Small real session configs: every Eve model, noisy channels, any
    abort threshold, and messages from one pair up to every free pair."""
    pair_count = draw(st.integers(2, 40))
    sample_fraction = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    free = pair_count - round(sample_fraction * pair_count)
    assume(1 <= free < pair_count)
    n_message = draw(st.integers(1, free))
    fraction = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    probs = st.sampled_from([0.0, 0.1, 0.3])
    return QsdcConfig(
        message_bits=draw(st.text(alphabet="01", min_size=2 * n_message, max_size=2 * n_message)),
        pair_count=pair_count,
        sample_fraction=sample_fraction,
        eve_model=draw(st.sampled_from([EveModel(), EveModel.intercept_resend(fraction)])),
        channel_model=ChannelModel(draw(probs), draw(probs)),
        seed=draw(st.integers(0, 2**64 - 1)),
        qber_abort_threshold=draw(st.sampled_from([0.0, 0.11, 1.0])),
    )


def report_text(config):
    """What ``cli.format_qsdc_report`` writes for the session of ``config``."""
    out = io.StringIO()
    cli.format_qsdc_report(config, session_columns(config), out)
    return out.getvalue()


# An aborted session, and one whose message fills every phase-2 pair.
ABORTED = QsdcConfig("01", 40, 0.5, EveModel.intercept_resend(1.0), seed=2, qber_abort_threshold=0.0)
NO_CHECK_PAIRS = QsdcConfig("0110", 4, 0.5, seed=5)


@settings(max_examples=100, deadline=None)
@given(config=sessions())
@example(config=ABORTED)
@example(config=NO_CHECK_PAIRS)
def test_qsdc_report_text_equals_indented_dump(config):
    report = run_session(config)
    payload = {
        "command": "qsdc",
        "config": {
            "message_bits": config.message_bits,
            "pair_count": config.pair_count,
            "sample_fraction": config.sample_fraction,
            "eve_model": {"kind": config.eve_model.kind, "fraction": config.eve_model.fraction},
            "channel_model": {
                "mode_flip_prob": config.channel_model.mode_flip_prob,
                "phase_flip_prob": config.channel_model.phase_flip_prob,
            },
            "seed": config.seed,
            "qber_abort_threshold": config.qber_abort_threshold,
        },
        "report": {
            "phase1_qber": report.phase1_qber,
            "aborted": report.aborted,
            "decoded_bits": report.decoded_bits,
            "phase2_sample_error_rate": report.phase2_sample_error_rate,
            "transcript": report.transcript,
        },
    }
    assert report_text(config) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_examples_abort_and_fill_phase_2():
    assert run_session(ABORTED).aborted
    summary = run_session(NO_CHECK_PAIRS).transcript[-1]
    assert summary["event"] == "phase2_summary" and summary["check_pairs"] == 0


# Pair indices with every digit count from one to six, MAX_PAIR_COUNT - 1 the largest.
PAIR_INDICES = [0, 9, 10, 100, 999, 1000, 9999, 99_999, 100_000, 999_999]


def indented_record(record):
    # A per-pair record as the report lays it out: at the transcript's depth,
    # and followed, as every one is, by another record.
    return "      " + json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n      ") + ",\n"


def kernel_text(table, kinds, pairs, copies):
    # The records ``copies`` times over, so that they span several chunks.
    out = io.StringIO()
    cli._emit_records(table, np.array(kinds * copies), np.array(pairs * copies), out)
    return out.getvalue()


def test_phase1_kernel_equals_the_dump_of_every_kind():
    kinds, pairs, want = [], [], []
    for alice in (0, 1):
        for bob in (0, 1):
            for x_basis in (False, True):
                for pair in PAIR_INDICES:
                    kinds.append(4 * alice + 2 * bob + x_basis)
                    pairs.append(pair)
                    want.append(indented_record({
                        "event": "phase1_sample", "pair": pair, "basis": "zx"[x_basis],
                        "alice": alice, "bob": bob, "agree": alice == bob,
                    }))
    assert len(set(kinds)) == 8
    assert kernel_text(cli._PHASE1_TABLE, kinds, pairs, 30) == "".join(want) * 30


def test_phase2_kernel_equals_the_dump_of_every_kind():
    bits, bell = ("00", "01", "10", "11"), ("phi+", "psi+", "phi-", "psi-")
    kinds, pairs, want = [], [], []
    for inferred in range(4):
        for encoded in range(4):
            for is_message in (False, True):
                for pair in PAIR_INDICES:
                    kinds.append(8 * inferred + 2 * encoded + is_message)
                    pairs.append(pair)
                    want.append(indented_record({
                        "event": "phase2_pair", "pair": pair,
                        "role": "message" if is_message else "check",
                        "encoded": bits[encoded], "inferred": bell[inferred],
                        "decoded": bits[inferred], "match": inferred == encoded,
                    }))
    assert len(set(kinds)) == 32
    assert kernel_text(cli._PHASE2_TABLE, kinds, pairs, 8) == "".join(want) * 8


def test_record_tables_are_the_indented_dumps_of_their_kinds():
    # The tables come from json's C encoder; each entry must be its kind's
    # indent=2 text at the transcript's depth, split at the pair index.
    for table, records in ((cli._PHASE1_TABLE, PHASE1_RECORDS), (cli._PHASE2_TABLE, PHASE2_RECORDS)):
        assert len(table) == len(records)
        for entry, record in zip(table, records):
            text = indented_record({**record, "pair": "@"})
            assert entry == tuple(text.split('"@"')), record


@settings(max_examples=200, deadline=None)
@given(record=st.dictionaries(
    st.text(min_size=1),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    min_size=1,
))
def test_record_json_is_the_indented_dump_of_a_flat_record(record):
    # The phase summaries go through the same layout as the per-pair kinds.
    assert cli._record_json(record) + ",\n" == indented_record(record)


def test_a_record_chunk_stays_below_128_kib():
    # Below glibc's largest default mmap threshold, so a chunk's text reuses heap
    # pages whatever the allocator's state; the longest record takes the largest index.
    for table, kinds in ((cli._PHASE1_TABLE, 8), (cli._PHASE2_TABLE, 32)):
        longest = max(len(kernel_text(table, [kind], [MAX_PAIR_COUNT - 1], 1))
                      for kind in range(kinds))
        assert cli._RECORD_ROWS * longest < 131_072


def test_a_sweep_chunk_goes_out_as_one_piece_below_128_kib(monkeypatch):
    # A row is eight 25-byte cells at most, so a whole chunk fits below glibc's
    # largest default mmap threshold and needs no splitting.
    assert cli._CHUNK_ROWS * 8 * 25 < 131_072
    spec = cli.SweepSpec(0.1, 3.0, 2 * cli._CHUNK_ROWS + 5, (0.3,))
    pieces = []
    monkeypatch.setattr(cli, "_emit", lambda text, out: pieces.append(text))
    cli.format_sweep_csv(cli.sweep_points(spec), spec, 1, io.StringIO())
    assert [piece.count("\n") for piece in pieces[1:]] == [cli._CHUNK_ROWS] * 2 + [5]
    assert all(len(piece.encode()) < 131_072 for piece in pieces)


@settings(max_examples=30, deadline=None)
@given(config=sessions())
@example(config=ABORTED)
@example(config=NO_CHECK_PAIRS)
def test_transcript_holds_plain_python_values(config):
    for record in run_session(config).transcript:
        assert all(type(v) in (int, bool, str, float) for v in record.values()), record
