"""Seeded outputs pinned as the contract: the analyzer's draw order and results.

``golden_outputs.json`` holds `bsa` reports for the four Bell states, ideal
and lossy at two operating points, and two small `qsdc` reports with full
transcripts, all recorded from the gate-by-gate analyzer.  Any rewrite of
the analyzer must reproduce them: counts, detector pairs, flip counts and
transcripts exactly, float summaries to a relative 1e-12.  The `qsdc`
cases also pin their resolved `config` block, and one small `sweep` grid
pins its full CSV text; both must match byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spatialbsa import cli
from spatialbsa.bsa import DetectorPair, analyze
from spatialbsa.register import Kind, QuantumRegister, Subsystem

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
RTOL = 1e-12


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", GOLDEN["bsa"], ids=lambda c: " ".join(c["argv"][1:3]))
def test_bsa_report_matches_golden(case, capsys):
    code, report = run_cli(case["argv"], capsys)
    assert code == 0
    assert report["counts"] == case["counts"]
    assert report["detectors"] == case["detectors"]
    assert report["spin_changed_count"] == case["spin_changed_count"]
    assert report["mean_success_probability"] == pytest.approx(
        case["mean_success_probability"], rel=RTOL
    )


@pytest.mark.parametrize("case", GOLDEN["qsdc"], ids=("clean", "eve_and_noise"))
def test_qsdc_transcript_matches_golden(case, capsys):
    code, payload = run_cli(case["argv"], capsys)
    report, want = payload["report"], case["report"]
    assert code == case["exit_code"]
    assert report["transcript"] == want["transcript"]
    assert report["decoded_bits"] == want["decoded_bits"]
    assert report["aborted"] == want["aborted"]
    for key in ("phase1_qber", "phase2_sample_error_rate"):
        assert report[key] == pytest.approx(want[key], rel=RTOL)


@pytest.mark.parametrize("case", GOLDEN["qsdc"], ids=("clean", "eve_and_noise"))
def test_qsdc_config_matches_golden(case, capsys):
    _, payload = run_cli(case["argv"], capsys)
    assert json.dumps(payload["config"], sort_keys=True) == json.dumps(
        case["config"], sort_keys=True
    )


@pytest.mark.parametrize("case", GOLDEN["sweep"], ids=lambda c: " ".join(c["argv"][1:]))
def test_sweep_csv_matches_golden(case, capsys):
    code = cli.main(case["argv"])
    assert code == 0
    assert capsys.readouterr().out == case["csv"]


def half_odd_register():
    # Photon a on rail 1, photon b split evenly over both rails: the flip bit
    # and both detector clicks are each an even coin, so every draw matters.
    amps = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return QuantumRegister(
        [Subsystem("a", Kind.SPATIAL), Subsystem("b", Kind.SPATIAL)], amps
    )


@pytest.mark.parametrize(
    "draws, changed, pair",
    [
        ((0.2, 0.7, 0.3), False, DetectorPair.C2D1),
        ((0.7, 0.2, 0.7), True, DetectorPair.C1D2),
        ((0.3, 0.3, 0.8), False, DetectorPair.C1D2),
        ((0.8, 0.9, 0.1), True, DetectorPair.C2D1),
    ],
)
def test_analyze_draws_readout_then_a_then_b(scripted_rng, draws, changed, pair):
    rng = scripted_rng([*draws, 0.5])
    record = analyze(half_odd_register(), rng=rng)
    assert record.spin_changed is changed
    assert record.detectors is pair
    assert rng._draws == [0.5]
