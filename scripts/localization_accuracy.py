#!/usr/bin/env python3
"""Scan emitter positions across one gap branch and check reconstruction.

For each true position: simulate a decaying Rabi trace at the local drive
strength, recover the frequency spectrally, invert it through the field
map, and compare the position error against the gap/N resolution budget.

Usage:
    python scripts/localization_accuracy.py [--gap 10] [--t1 25] [--n 9]
"""
import argparse

import numpy as np

from rabibeat.analysis import dominant_frequency, resolution_estimate
from rabibeat.evolve import DecayModel, ManifoldSpec, TimeGrid, rabi_trace_incoherent
from rabibeat.imaging import (
    FieldMap,
    WaveguideGeometry,
    position_from_rabi,
    rabi_at,
    resolution_budget,
)


def recover_rabi(true_rabi, grid, t1):
    trace = rabi_trace_incoherent(
        true_rabi,
        ManifoldSpec.single(),
        grid,
        decay=DecayModel("exponential", t1),
    )
    return dominant_frequency(trace)


def run(args):
    geom = WaveguideGeometry(gap=args.gap, drive_scale=args.drive_scale)
    fmap = FieldMap.from_model(geom, n_points=801, branch="left")
    grid = TimeGrid(0.0, args.t_max, int(300 * args.t_max) + 1)

    # Stay off the edges: the budget assumes the local map gradient is finite.
    positions = np.linspace(0.05 * args.gap, 0.45 * args.gap, args.n)
    worst = 0.0
    print(f"{'x_true (um)':>12} {'x_rec (um)':>12} {'err (nm)':>10} {'budget (nm)':>12}")
    for x_true in positions:
        true_rabi = float(rabi_at(geom, x_true))
        measured = recover_rabi(true_rabi, grid, args.t1)
        budget = resolution_budget(geom.gap, measured, args.t1)
        res = resolution_estimate(measured, budget.n_oscillations)
        loc = position_from_rabi(measured, fmap, resolvable_mhz=res.delta_cyclic)
        err_nm = 1000.0 * abs(loc.position - x_true)
        worst = max(worst, err_nm / budget.delta_x_nm)
        print(
            f"{x_true:12.4f} {loc.position:12.4f} "
            f"{err_nm:10.3f} {budget.delta_x_nm:12.3f}"
        )
    print(f"worst error / budget ratio: {worst:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gap", type=float, default=10.0)
    parser.add_argument("--drive-scale", type=float, default=20.0)
    parser.add_argument("--t1", type=float, default=25.0)
    parser.add_argument("--t-max", type=float, default=40.0)
    parser.add_argument("--n", type=int, default=9)
    run(parser.parse_args())
