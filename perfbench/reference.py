"""Committed reference samples and the oracle that checks outputs with them.

Each workload context (q, S, N) has one file reference/q<q>_S<S>_N<N>.npz,
written by make_reference.py. It holds, from the code at the commit that
added the benchmark:

    sites       sampled window indices (interleaved +q^s, -q^s order)
    modes_samp  p_n at the sampled sites, every n < N          (N, k)
    modes_low   p_n at every site for n < N_LOW                (N_LOW, 2S)
    gram        sum_j c_j p_n(x_j) p_m(x_j), m < N_LOW          (N, N_LOW)
    sqrt_w, c   sqrt of the bare weights and the normalized weights (2S)
    eig         eigenvalues of the truncated Q, ascending       (N,)
    s_match     depth of the matched spectrum prefix

From these the oracle predicts, for any tau and any state on modes
n < N_LOW, the sampled kernel block and the evolved state at the sampled
sites, with plain NumPy and no call into qosc:

    Phi_ij(tau) = sqrt_w_i / sqrt_w_j * c_j * sum_n p_n(x_i) p_n(x_j) e^{i n tau}
    (Phi F)_i   = sqrt_w_i * sum_n p_n(x_i) e^{i n tau} (gram b)_n
                  for F = sqrt_w * sum_m b_m p_m

Every check first requires all values to be finite, then compares against
the prediction within TOL times the largest reference magnitude. At
q = 0.5 the windows are identity-grade, so kernels also must satisfy
Phi^tau F_n = e^{i n tau} F_n for n < N_IDENTITY on core rows s < S/2.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "reference"

N_LOW = 16          # modes of the random states; rows of modes_low
N_IDENTITY = 8      # modes tested by the identity check at q = 0.5
TOL = 1e-9          # relative to the largest reference magnitude
IDENTITY_TOL = 1e-9
IDENTITY_Q = (0.5,)

# (q, S, N) of every workload context: q in {0.5, 0.95} x the middle and
# top of the size ladder. cli_io runs at the first one.
CONTEXTS = ((0.5, 128, 320), (0.5, 256, 640), (0.95, 128, 320), (0.95, 256, 640))


def ref_path(q: float, S: int, N: int) -> Path:
    return REF_DIR / f"q{q}_S{S}_N{N}.npz"


def _nonfinite(values, what: str) -> str | None:
    bad = np.size(values) - np.count_nonzero(np.isfinite(values))
    return f"{what}: {bad} non-finite values" if bad else None


def _close(got, want, scale: float, what: str) -> str | None:
    err = float(np.max(np.abs(got - want))) if np.size(want) else 0.0
    if not err <= TOL * scale:
        return f"{what}: max error {err:.3e} > {TOL:.0e} * {scale:.3e}"
    return None


class Reference:
    """Oracle for one context; loads the committed samples."""

    def __init__(self, q: float, S: int, N: int):
        with np.load(ref_path(q, S, N)) as z:
            data = {k: z[k] for k in z.files}
        self.q, self.S, self.N = q, S, N
        if (float(data["q"]), int(data["S"]), int(data["N"])) != (q, S, N):
            raise ValueError(f"reference file does not match context {(q, S, N)}")
        self.sites = data["sites"]
        self.modes_samp = data["modes_samp"]
        self.modes_low = data["modes_low"]
        self.gram = data["gram"]
        self.sqrt_w = data["sqrt_w"]
        self.c = data["c"]
        self.eig = data["eig"]
        self.s_match = int(data["s_match"])
        self._phase_n = np.arange(N)

    # -- inputs -----------------------------------------------------------

    def state(self, b: np.ndarray) -> np.ndarray:
        """Rescaled values F = sqrt_w * sum_m b_m p_m over the whole window."""
        return self.sqrt_w * (b @ self.modes_low[: b.shape[0]])

    # -- predictions ------------------------------------------------------

    def kernel_block(self, tau: float) -> np.ndarray:
        P = self.modes_samp
        ph = np.exp(1j * tau * self._phase_n)
        sw = self.sqrt_w[self.sites]
        return (sw[:, None] / sw[None, :]) * (P.T @ (ph[:, None] * P)) \
            * self.c[self.sites][None, :]

    def evolved(self, tau: float, b: np.ndarray) -> np.ndarray:
        ph = np.exp(1j * tau * self._phase_n)
        g = self.gram[:, : b.shape[0]] @ b
        return self.sqrt_w[self.sites] * (self.modes_samp.T @ (ph * g))

    # -- checks: each returns None or a one-line problem ---------------------

    def check_spectrum(self, values, s_match: int) -> str | None:
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.shape != self.eig.shape:
            return f"spectrum: {vals.shape[0]} eigenvalues, expected {self.eig.shape[0]}"
        if s_match != self.s_match:
            return f"spectrum: s_match {s_match}, expected {self.s_match}"
        problem = _nonfinite(vals, "spectrum")
        if problem:
            return problem
        return _close(vals, self.eig, float(np.max(np.abs(self.eig))), "spectrum")

    def check_mode_table(self, values) -> str | None:
        values = np.asarray(values)
        if values.shape != (self.N, 2 * self.S):
            return f"mode table: shape {values.shape}, expected {(self.N, 2 * self.S)}"
        problem = _nonfinite(values, "mode table")
        if problem:
            return problem
        # Entries grow by many orders of magnitude along deep columns, so
        # each sampled column is held to its own largest magnitude.
        for got, want in ((values[:, self.sites], self.modes_samp),
                          (values[: self.modes_low.shape[0]], self.modes_low)):
            scale = np.max(np.abs(want), axis=0)
            err = np.max(np.abs(got - want), axis=0)
            bad = np.flatnonzero(~(err <= TOL * scale))
            if bad.size:
                j = int(bad[0])
                return (f"mode table: column {j} max error {err[j]:.3e} > "
                        f"{TOL:.0e} * {scale[j]:.3e}")
        return None

    def check_kernel(self, matrix, tau: float) -> str | None:
        matrix = np.asarray(matrix)
        if matrix.shape != (2 * self.S, 2 * self.S):
            return f"kernel: shape {matrix.shape}, expected {(2 * self.S,) * 2}"
        problem = _nonfinite(matrix, "kernel")
        if problem:
            return problem
        want = self.kernel_block(tau)
        problem = _close(matrix[np.ix_(self.sites, self.sites)], want,
                         float(np.max(np.abs(want))), "kernel")
        if problem or self.q not in IDENTITY_Q:
            return problem
        # Phi^tau F_n = e^{i n tau} F_n on core rows s < S/2.
        core = self.S  # interleaved window: rows 2s, 2s+1 for s < S/2
        F = self.sqrt_w[:, None] * self.modes_low[:N_IDENTITY].T
        ph = np.exp(1j * tau * np.arange(N_IDENTITY))
        defect = np.max(np.abs(matrix[:core] @ F - F[:core] * ph[None, :]))
        scale = float(np.max(np.abs(F)))
        if not defect <= IDENTITY_TOL * scale:
            return (f"kernel: identity defect {defect:.3e} > "
                    f"{IDENTITY_TOL:.0e} * {scale:.3e}")
        return None

    def check_evolved(self, values, tau: float, b: np.ndarray) -> str | None:
        values = np.asarray(values)
        if values.shape != (2 * self.S,):
            return f"evolved: shape {values.shape}, expected {(2 * self.S,)}"
        problem = _nonfinite(values, "evolved")
        if problem:
            return problem
        want = self.evolved(tau, b)
        return _close(values[self.sites], want, float(np.max(np.abs(want))),
                      "evolved")


def random_taus(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * math.pi, count)


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Unit-norm complex coefficients on modes n < N_LOW."""
    b = rng.standard_normal(N_LOW) + 1j * rng.standard_normal(N_LOW)
    return b / np.linalg.norm(b)
