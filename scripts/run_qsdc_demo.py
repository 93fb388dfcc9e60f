#!/usr/bin/env python3
"""Run one clean session and one eavesdropped session, side by side.

The clean session decodes the message exactly; the intercepted one shows the
quarter error rate in the channel check and aborts before any message bits
travel.  Pass --transcript to dump the clean session's event log as JSON
lines.
"""

import argparse
import sys
from pathlib import Path

from spatialbsa.qsdc import EveModel, QsdcConfig, run_session, transcript_jsonl

MESSAGE = "0100100001101001"  # 16 bits


def describe(tag, report):
    print(f"{tag}:")
    print(f"  phase-1 error rate: {report.phase1_qber:.4f}")
    print(f"  aborted:            {report.aborted}")
    if not report.aborted:
        print(f"  decoded bits:       {report.decoded_bits}")
        print(f"  check error rate:   {report.phase2_sample_error_rate:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=400)
    parser.add_argument("--transcript", type=Path, help="JSON-lines dump path")
    args = parser.parse_args()

    clean = run_session(
        QsdcConfig(
            message_bits=MESSAGE,
            pair_count=args.pairs,
            sample_fraction=0.2,
            seed=args.seed,
        )
    )
    describe("clean channel", clean)
    print(f"  message intact:     {clean.decoded_bits == MESSAGE}")

    attacked = run_session(
        QsdcConfig(
            message_bits=MESSAGE,
            pair_count=args.pairs,
            sample_fraction=0.2,
            eve_model=EveModel.intercept_resend(1.0),
            seed=args.seed,
        )
    )
    print()
    describe("intercept-resend attack", attacked)

    if args.transcript:
        args.transcript.parent.mkdir(parents=True, exist_ok=True)
        args.transcript.write_text(transcript_jsonl(clean) + "\n")
        print(f"\nwrote {len(clean.transcript)} events to {args.transcript}")


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError) as exc:  # a bad value or path: one line, as the CLI prints it
        sys.exit(f"error: {exc}")
