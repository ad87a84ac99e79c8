#!/usr/bin/env python3
"""Walk a wave packet around one evolution cycle and watch its norm.

Default mode: build a packet from the lowest modes, evolve it through a
full period in steps, and print the norm and the distance from the
starting state at each step.

--drift-scan instead computes the exact worst-case relative norm drift
over the span of the lowest modes: with G0/G1 the Gram matrices of the
band before and after evolution, the extremal generalized eigenvalue of
(G1 - G0, G0) is the sup of |  ||Phi f||^2 - ||f||^2 | / ||f||^2 over the
band, which no finite set of random draws can exceed.
"""

import argparse
import math

import numpy as np
import scipy.linalg

from qosc import (DeformationContext, LatticeFunction, evolve, rescale,
                  rescaled_mode, standard_inner)


def band_gram(fns, ctx):
    g = np.empty((len(fns), len(fns)), dtype=complex)
    for i, fi in enumerate(fns):
        for j, fj in enumerate(fns):
            g[i, j] = standard_inner(fi, fj, ctx)
    return g


def drift_scan(ctx, band, tau):
    modes = [rescaled_mode(n, ctx) for n in range(band)]
    moved = [evolve(f, tau, ctx) for f in modes]
    g0 = band_gram(modes, ctx)
    g1 = band_gram(moved, ctx)
    mu = scipy.linalg.eigvalsh(g1 - g0, g0)
    return float(np.max(np.abs(mu)))


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
                    help="number of lowest modes in play")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--tau", type=float, default=1.0,
                    help="evolution angle for --drift-scan")
    ap.add_argument("--drift-scan", action="store_true")
    args = ap.parse_args(argv)

    ctx = DeformationContext(q=args.q, fock_dim=args.fock_dim,
                             lattice_depth=args.lattice_depth)
    if args.drift_scan:
        worst = drift_scan(ctx, args.band, args.tau)
        print(f"q={args.q} tau={args.tau} band={args.band} "
              f"worst_case_drift={worst:.6e}")
    else:
        cycle_demo(ctx, args.band, args.steps)


if __name__ == "__main__":
    main()
