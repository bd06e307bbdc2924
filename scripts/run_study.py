#!/usr/bin/env python3
"""End-to-end study driver: synthesize inputs, run the batch, assess, report.

Convenience wrapper around the CLI for one-command reproduction:

    python3 scripts/run_study.py --workdir out/demo --seed 0 --workers 4

Writes everything under --workdir and prints the report to stdout. Pass
--skip-synth to reuse inputs already present in the workdir.
"""

import argparse
import sys
from pathlib import Path

from gridfire.cli import main as cli


def run(argv):
    print("+ gridfire " + " ".join(argv), file=sys.stderr)
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def given(args, *names):
    """`--name value` for each of the named options that was given; the CLI
    holds every default."""
    flags = []
    for name in names:
        value = getattr(args, name)
        if value is not None:
            flags += [f"--{name}", str(value)]
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default="out/study", help="directory for all inputs and outputs")
    ap.add_argument("--seed", type=int, help="landscape and weather seed (synth's default)")
    ap.add_argument("--workers", type=int, help="simulate's worker processes (its default)")
    ap.add_argument("--size", type=int, help="landscape rows and columns (synth's default)")
    ap.add_argument("--top", type=int, help="ranking rows to print (report's default)")
    ap.add_argument("--skip-synth", action="store_true")
    args = ap.parse_args()

    wd = Path(args.workdir)
    if not args.skip_synth:
        run(["synth", "--out", str(wd), *given(args, "seed", "size")])
    cfg = str(wd / "study.ini")
    run(["simulate", "--config", cfg, "--out", str(wd / "run"), *given(args, "workers")])
    run(["assess", "--config", cfg, "--results", str(wd / "run" / "results.csv"),
         "--out", str(wd / "report")])
    print()
    run(["report", str(wd / "report"), *given(args, "top")])

    print()
    print("reference-table assessment (published per-line seasonal figures):")
    run(["assess", "--from-tables", str(wd / "table1.csv"), str(wd / "table2.csv"),
         "--out", str(wd / "report_reference")])
    run(["report", str(wd / "report_reference"), *given(args, "top")])


if __name__ == "__main__":
    main()
