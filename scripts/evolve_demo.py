#!/usr/bin/env python3
"""Walk a wave packet around one evolution cycle and watch its norm.

Default mode: build a packet from the lowest modes, evolve it through a
full period in steps, and print the norm and the distance from the
starting state at each step.

--drift-scan instead prints qosc's norm_drift_max: the exact worst-case
relative norm drift under evolution by tau = 1 over the span of modes
n < 10, |  ||Phi f||^2 - ||f||^2 | / ||f||^2, the extremal eigenvalue of
the band's Gram matrix after evolution minus before, relative to before.
No finite set of random draws can exceed it.
"""

import argparse
import math

import numpy as np

from qosc import (DeformationContext, LatticeFunction, evolve, norm_drift_max,
                  rescaled_mode, standard_inner)


def cycle_demo(ctx, band, steps):
    rng = np.random.default_rng(7)
    amp = rng.standard_normal(band) * (0.7 ** np.arange(band))
    amp /= np.linalg.norm(amp)
    packet = None
    for n, a in enumerate(amp):
        part = rescaled_mode(n, ctx)
        vals = a * part.values
        packet = vals if packet is None else packet + vals
    start = LatticeFunction(kind="position", values=packet, rescaled=True)

    norm0 = standard_inner(start, start, ctx).real
    print(f"# q={ctx.q} N={ctx.fock_dim} S={ctx.lattice_depth} band={band}")
    print("step,tau/pi,norm,distance_from_start")
    state = start
    for k in range(steps + 1):
        tau = 2.0 * math.pi * k / steps
        norm = standard_inner(state, state, ctx).real
        diff = LatticeFunction(kind="position",
                               values=state.values - start.values,
                               rescaled=True)
        d = math.sqrt(abs(standard_inner(diff, diff, ctx).real))
        print(f"{k},{tau / math.pi:.3f},{norm / norm0:.15f},{d:.3e}")
        if k < steps:
            state = evolve(state, 2.0 * math.pi / steps, ctx)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--fock-dim", type=int, default=80)
    ap.add_argument("--lattice-depth", type=int, default=30)
    ap.add_argument("--band", type=int, default=10,
                    help="number of lowest modes in the packet")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--drift-scan", action="store_true")
    args = ap.parse_args(argv)

    ctx = DeformationContext(q=args.q, fock_dim=args.fock_dim,
                             lattice_depth=args.lattice_depth)
    if args.drift_scan:
        print(f"q={args.q} tau=1.0 band=10 "
              f"worst_case_drift={norm_drift_max(ctx):.6e}")
    else:
        cycle_demo(ctx, args.band, args.steps)


if __name__ == "__main__":
    main()
