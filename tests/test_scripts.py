"""The runnable scripts in ``scripts/`` import and run end to end.

Each script runs in a fresh interpreter, as a user would start it, so a
stale import or a renamed entry point fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import parse_sweep_csv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_quality_sweep_script_writes_its_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_script("run_quality_sweep.py", "--steps", "3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert f"wrote 9 grid points to {out}" in result.stdout
    assert len(parse_sweep_csv(out.read_text())) == 9


def test_qsdc_demo_script_writes_its_transcript(tmp_path):
    out = tmp_path / "transcript.jsonl"
    result = run_script("run_qsdc_demo.py", "--transcript", str(out))
    assert result.returncode == 0, result.stderr
    assert "message intact:     True" in result.stdout
    events = [json.loads(line) for line in out.read_text().splitlines()]
    assert f"wrote {len(events)} events to {out}" in result.stdout


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("run_quality_sweep.py", ["--steps", "1"], "steps must be at least 2"),
        ("run_qsdc_demo.py", ["--pairs", "1"], "sample_fraction rounds to zero sampled pairs"),
        ("run_qsdc_demo.py", ["--seed", "-1"], "seed must fit in 64 bits"),
    ],
    ids=["sweep_one_step", "demo_one_pair", "demo_negative_seed"],
)
def test_bad_values_give_one_error_line(name, args, message, tmp_path):
    out = tmp_path / "out"
    flag = "--out" if name == "run_quality_sweep.py" else "--transcript"
    result = run_script(name, *args, flag, str(out))
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()
