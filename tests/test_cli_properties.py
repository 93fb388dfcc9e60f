"""Property test over CLI argument vectors for all three subcommands.

Every generated command must end with an exit code in {0, 1, 2} and no
exception escaping ``cli.main``; a value error must come out as exactly one
``error:`` line.  Workloads stay tiny: ``--trials`` at most 4, ``--steps``
at most 8, ``--pairs`` at most 64 and always given (without it the automatic
pair count grows without bound as the sample fraction nears 1), messages of
at most 8 bits.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from spatialbsa import cli

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
