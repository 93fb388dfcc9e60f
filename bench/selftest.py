"""Tests of the benchmark itself.

Run from the root of a source checkout:  python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, span_id, parent, thread=1):
    return (name, start, end, span_id, parent, thread)


# Self time -------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 4), (3, 6), (8, 12)]) == 9
    assert spans.union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert spans.union_length([]) == 0


def test_self_time_subtracts_union_of_children_across_threads():
    trace = [
        span("cli.sweep_points", 0.0, 10.0, 1, spans.ROOT),
        # Two pool threads whose children overlap each other.
        span("bsa.quality", 1.0, 4.0, 2, 1, thread=2),
        span("bsa.quality", 3.0, 6.0, 3, 1, thread=3),
        # A grandchild counts against its own parent only.
        span("cavity.reflection", 1.5, 2.0, 4, 2, thread=2),
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    # Threads ran side by side for one second, so self times overcount by one.
    covered = spans.union_length([(s[1], s[2]) for s in trace])
    assert sum(selfs.values()) - covered == pytest.approx(1.0)


# Session phases --------------------------------------------------------------


def test_session_phase_split_uses_direct_children_only():
    session = span("qsdc.run_session", 0.0, 20.0, 1, spans.ROOT)
    children = [
        span("register.make_bell", 0.5, 1.0, 2, 1),
        # Eve's measure is a grandchild and must not start phase 1.
        span("qsdc.eve_intercept_resend", 1.0, 2.0, 3, 1),
        span("register.measure", 4.0, 5.0, 5, 1),
        span("register.measure", 6.0, 8.0, 6, 1),
        span("register.apply_spatial_unitary", 11.0, 11.5, 7, 1),
        span("register.apply_spatial_unitary", 12.0, 12.5, 8, 1),
    ]
    phases = spans.session_phases(session, children)
    assert phases == {"prep_s": 4.0, "phase1_s": 4.0, "slots_s": 3.0, "phase2_s": 9.0}
    assert sum(phases.values()) == session[2] - session[1]


def test_aborted_session_has_no_slots_or_phase2():
    session = span("qsdc.run_session", 0.0, 10.0, 1, spans.ROOT)
    children = [
        span("register.make_bell", 0.5, 1.0, 2, 1),
        span("register.measure", 3.0, 4.0, 3, 1),
        span("register.measure", 5.0, 6.0, 4, 1),
    ]
    phases = spans.session_phases(session, children)
    assert phases == {"prep_s": 3.0, "phase1_s": 7.0, "slots_s": 0.0, "phase2_s": 0.0}


def test_bell_label_names_exact_bell_states_only():
    h = 2**-0.5
    assert spans.bell_label([h, 0, 0, h]) == "phi+"
    assert spans.bell_label([0, h, -h, 0]) == "psi-"
    assert spans.bell_label([1, 0, 0, 0]) is None


# Output checks -----------------------------------------------------------------


def _bsa_output(argv, **override):
    trials = int(argv[argv.index("--trials") + 1])
    out = {
        "command": "bsa", "state": argv[1], "ideal": False, "trials": trials,
        "seed": int(argv[-1]), "params": {},
        "counts": {"phi+": trials, "phi-": 0, "psi+": 0, "psi-": 0},
        "detectors": {"c1d1": trials, "c1d2": 0, "c2d1": 0, "c2d2": 0},
        "spin_changed_count": 0, "mean_success_probability": 0.5,
    }
    out.update(override)
    return json.dumps(out)


def test_corrupted_output_is_counted_as_failed(capsys):
    cycle = workloads.commands("bsa_lossy", 7, "tiny")
    checker = run.Checker("bsa_lossy", 7, "tiny", cycle)
    record = {"exit_code": 0}
    assert checker(0, cycle[0], record, _bsa_output(cycle[0])) == 40
    bad_counts = {"phi+": 39, "phi-": 0, "psi+": 0, "psi-": 0}
    assert checker(1, cycle[1], record, _bsa_output(cycle[1], counts=bad_counts)) == 0
    assert checker(2, cycle[2], record, "{truncated") == 0
    assert checker(3, cycle[3], {"exit_code": 1}, _bsa_output(cycle[3])) == 0
    assert (checker.attempted, checker.failed) == (4, 3)
    printed = capsys.readouterr().out
    assert "counts sum to 39" in printed
    assert "unreadable output" in printed
    assert "exit code 1" in printed


def test_repeat_of_a_command_must_match_its_first_run():
    cycle = workloads.commands("bsa_lossy", 7, "tiny")
    checker = run.Checker("bsa_lossy", 7, "tiny", cycle)
    checker(0, cycle[0], {"exit_code": 0}, _bsa_output(cycle[0]))
    checker(0, cycle[0], {"exit_code": 0}, _bsa_output(cycle[0], mean_success_probability=0.6))
    assert checker.failed == 1


def test_intercept_invariants():
    argv = workloads.commands("qsdc_intercept", 7, "tiny")[0]
    report = {"phase1_qber": 0.26, "aborted": True, "decoded_bits": "",
              "phase2_sample_error_rate": 0.0, "transcript": []}
    out = {"config": {"pair_count": 5000, "sample_fraction": 0.8, "seed": 1,
                      "qber_abort_threshold": 0.11}, "report": report}
    assert workloads.check("qsdc_intercept", argv, 2, json.dumps(out))[1] == []
    report["phase1_qber"] = 0.20
    _, reasons, _ = workloads.check("qsdc_intercept", argv, 0, json.dumps(out))
    assert len(reasons) == 2


def test_reference_compare_tolerates_added_fields_only():
    reference = {"a": 1, "b": 0.25, "c": {"d": "x"}}
    assert workloads.compare(reference, {"a": 1, "b": 0.25 * (1 + 1e-12), "c": {"d": "x", "new": 2}, "e": 3}) == []
    assert workloads.compare(reference, {"a": 1, "b": 0.25 * (1 + 1e-6), "c": {"d": "x"}})
    assert workloads.compare(reference, {"a": 2, "b": 0.25, "c": {"d": "x"}})
    assert workloads.compare(reference, {"a": 1, "b": 0.25, "c": {}})


def test_transcript_digest_ignores_added_fields_and_events():
    events = [{"event": "phase1_sample", "pair": 3, "basis": "z", "alice": 0, "bob": 0, "agree": True}]
    richer = [dict(events[0], timing_s=0.1), {"event": "phase_timing", "s": 1.0}]
    assert workloads.transcript_digest(events) == workloads.transcript_digest(richer)
    flipped = [dict(events[0], bob=1, agree=False)]
    assert workloads.transcript_digest(events) != workloads.transcript_digest(flipped)


def test_sweep_oracle_matches_program_formula():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from spatialbsa.bsa import quality
        from spatialbsa.cavity import operating_point
    finally:
        sys.path.remove(str(ROOT / "src"))
    for g, ks in ((0.1, 0.0), (2.4, 0.7), (1.3, 0.3)):
        q = quality(operating_point(g, ks))
        want = workloads.expected_quality(g, ks)
        got = (q.abs_r0, q.abs_rh, q.F1, q.eta1, q.F2, q.eta2)
        assert all(workloads.close(a, b) for a, b in zip(got, want))


def test_inputs_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.commands(name, 3) == workloads.commands(name, 3)
        assert workloads.commands(name, 3) != workloads.commands(name, 4)


def test_reference_matches_default_seed_inputs():
    reference = json.loads(run.REFERENCE.read_text())
    for name in workloads.NAMES:
        assert [e["argv"] for e in reference[name]] == workloads.commands(name, run.DEFAULT_SEED)


# Smoke runs --------------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


@pytest.fixture(scope="module")
def traced():
    proc = _bench("--workload", "all", "--tiny", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_end_to_end_all_workloads():
    proc = _bench("--workload", "all", "--tiny", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert "environment" in proc.stdout
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in workloads.NAMES:
        result = results[name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == {"units_per_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in metrics.values())
    for name in ("units_per_s", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in proc.stdout


def test_smoke_traced_reports_every_layer_metric(traced):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name in workloads.NAMES:
        assert traced[name]["correct"]
        assert set(traced[name]["metrics"]) == declared


def test_smoke_traced_predicted_zeros(traced):
    def value(workload, metric):
        return traced[workload]["metrics"][metric]["value"]

    for workload in ("qsdc_intercept", "sweep_grid"):
        assert value(workload, "bsa.analyze.calls") == 0
    for fn in spans.REGISTER_FNS:
        assert value("sweep_grid", f"register.{fn}.calls") == 0
    for workload in ("qsdc_clean", "qsdc_intercept"):
        assert value(workload, "cavity.reflection.calls") == 0
    assert value("qsdc_intercept", "qsdc.phase.slots_s") == 0
    assert value("qsdc_intercept", "qsdc.phase.phase2_s") == 0
    assert value("bsa_lossy", "cavity.reflection.calls") == 4 * value("bsa_lossy", "bsa.analyze.calls")
    assert value("qsdc_clean", "bsa.correct_frac") == 1.0
    assert value("qsdc_clean", "qsdc.phase.slots_s") > 0


def test_self_times_and_unspanned_account_for_main(tmp_path):
    argv = workloads.commands("qsdc_clean", 2, "tiny")[0]
    result = tmp_path / "child.json"
    with open(tmp_path / "stdout", "wb") as out:
        subprocess.run(
            [sys.executable, str(run.CHILD), str(result), str(run.SRC), "trace", "--", *argv],
            stdout=out, check=True, timeout=120,
        )
    trace = json.loads(result.read_text())["trace"]
    self_total = sum(entry[2] for entry in trace["names"].values())
    assert trace["concurrent_s"] == pytest.approx(0.0, abs=1e-9)
    assert self_total + trace["unspanned_s"] == pytest.approx(trace["main_s"], rel=1e-9)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep_grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
