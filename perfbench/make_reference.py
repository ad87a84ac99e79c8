"""Write the reference samples the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run from the repository root. It computes, with the qosc in src/, the
samples described in reference.py for every context in CONTEXTS and
writes them to perfbench/reference/. The sampled sites come from a fixed
seed, so rerunning on unchanged code rewrites identical samples. Only
rerun it on purpose: the files pin the outputs of the code they were
made from, and the benchmark fails when a later change moves an output
by more than the stated tolerance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qosc import (DeformationContext, build_mode_table, build_Q,  # noqa: E402
                  eigendecompose, lattice_weight_window, norm_c_window,
                  spectrum_report)

from reference import CONTEXTS, N_LOW, REF_DIR, ref_path  # noqa: E402

SITE_SEED = 2007
N_SITES = 12  # sampled sites per context, the four window ends included


def sample_sites(S: int) -> np.ndarray:
    ends = {0, 1, 2 * S - 2, 2 * S - 1}
    rng = np.random.default_rng(SITE_SEED)
    inner = rng.choice(np.arange(2, 2 * S - 2), N_SITES - len(ends), replace=False)
    return np.array(sorted(ends | {int(i) for i in inner}))


def main() -> None:
    REF_DIR.mkdir(exist_ok=True)
    for q, S, N in CONTEXTS:
        ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
        table = build_mode_table("position", ctx).values
        c = norm_c_window(ctx)
        sites = sample_sites(S)
        np.savez_compressed(
            ref_path(q, S, N), q=q, S=S, N=N, sites=sites,
            modes_samp=table[:, sites], modes_low=table[:N_LOW],
            gram=(table * c[None, :]) @ table[:N_LOW].T,
            sqrt_w=np.sqrt(lattice_weight_window(ctx)), c=c,
            eig=eigendecompose(build_Q(ctx), ctx)[0],
            s_match=spectrum_report(build_Q(ctx), ctx).s_match)
        print(ref_path(q, S, N).relative_to(ROOT))


if __name__ == "__main__":
    main()
