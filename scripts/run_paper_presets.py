#!/usr/bin/env python3
"""Run every bundled preset end to end and print a one-line summary each.

Simulation presets are piped into the matching analysis preset so the
recovered splittings can be eyeballed against the configured ones.  Only
runs that exit 0 have their reports summarized, and the script exits 1
when any run exits nonzero.

Usage:
    python scripts/run_paper_presets.py [--out DIR] [--seed N]
"""
import argparse
import json
import sys
from pathlib import Path

from rabibeat.cli import main as rabibeat_main


def run(args) -> int:
    out = Path(args.out)
    codes = []

    for name in ("paper-fig2", "paper-fig5"):
        codes.append(rabibeat_main(
            ["esr", "--config", name, "--out", str(out / name)]
        ))
        print(f"{name}: esr scan -> {out / name} (exit {codes[-1]})")

    pipelines = [("paper-fig3", "paper-fig4"), ("paper-fig7", "paper-fig8")]
    for sim_name, ana_name in pipelines:
        sim_dir = out / sim_name
        ana_dir = out / ana_name
        codes.append(rabibeat_main(
            [
                "simulate",
                "--config",
                sim_name,
                "--out",
                str(sim_dir),
                "--seed",
                str(args.seed),
            ]
        ))
        codes.append(rabibeat_main(
            [
                "analyze",
                "--config",
                ana_name,
                "--trace",
                str(sim_dir / "trace.csv"),
                "--out",
                str(ana_dir),
            ]
        ))
        if any(codes[-2:]):  # a failed run leaves no report, or an old one
            code = codes[-2] or codes[-1]
            print(f"{sim_name} -> {ana_name}: failed (exit {code})")
            continue
        report = json.loads((ana_dir / "report.json").read_text())
        base = report["base_frequency_MHz"]
        detunings = ", ".join(
            f"{d:.3f}" for d in report["recovered_detunings_MHz"]
        )
        print(
            f"{sim_name} -> {ana_name}: base {base:.3f} MHz, "
            f"recovered splittings {{{detunings}}} MHz"
        )

    codes.append(rabibeat_main(
        [
            "imaging-demo",
            "--config",
            "imaging-default",
            "--out",
            str(out / "imaging-default"),
        ]
    ))
    if codes[-1]:
        print(f"imaging-default: failed (exit {codes[-1]})")
    else:
        report = json.loads((out / "imaging-default" / "report.json").read_text())
        err_nm = 1000.0 * report["error_um"]
        budget = report["budget"]["delta_x_nm"]
        print(
            f"imaging-default: position error {err_nm:.3g} nm "
            f"(budget {budget:.1f} nm, exit 0)"
        )

    codes.append(rabibeat_main(
        [
            "simulate",
            "--config",
            "drift-demo",
            "--out",
            str(out / "drift-demo"),
            "--seed",
            str(args.seed),
        ]
    ))
    print(
        f"drift-demo: sweep-averaged trace -> {out / 'drift-demo'} "
        f"(exit {codes[-1]})"
    )
    return 1 if any(codes) else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="preset-runs")
    parser.add_argument("--seed", type=int, default=7)
    sys.exit(run(parser.parse_args()))
