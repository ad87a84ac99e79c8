"""Shared deformation context, and the one check of each input rule.

A DeformationContext bundles the deformation parameter q with the
truncation sizes and tolerances every numerical routine needs. Instances
are frozen; derive variants with dataclasses.replace. Every count or
index passes _index, and q, each tolerance and each product base pass
_unit_float; each caller names the error class it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, ValidationError

# The one capacity of every per-context cache (qhermite's weights and half
# table, evolution's certificate, qcore's normalizers): the verify battery
# reads 13 distinct half-table contexts, and 8 is the smallest capacity at
# which it builds none twice (16, 14 and 13 half tables at 4, 6 and 8).
_per_context = lru_cache(maxsize=8)


def _index(i, what: str, hi=math.inf, lo: int = 0,
           exc: type = IndexOutOfRange) -> int:
    """i as an int if it is an int or numpy integer (no bool) in [lo, hi)."""
    if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
            or not lo <= i < hi):
        raise exc(f"{what} must be an int in [{lo}, {hi}), got {i!r}")
    return int(i)


def _unit_float(x, what: str, exc: type = ValidationError) -> float:
    """x as a float if it is a float (or float64) strictly inside (0, 1)."""
    if not (isinstance(x, float) and 0.0 < x < 1.0):
        raise exc(f"{what} must be a float strictly inside (0, 1), got {x!r}")
    return float(x)


@dataclass(frozen=True)
class DeformationContext:
    """Parameters shared by all computations.

    q             deformation parameter, a float strictly inside (0, 1)
    fock_dim      truncation dimension N of the number basis
    lattice_depth number S of geometric levels q^0 .. q^{S-1} per sign
    tail_tol      truncation tolerance for infinite products and series
    match_tol     tolerance for identity checks and spectrum matching

    Sizes are ints >= 1, tolerances floats in (0, 1), or ValidationError.
    """

    q: float
    fock_dim: int = 64
    lattice_depth: int = 32
    tail_tol: float = 1e-15
    match_tol: float = 1e-10

    def __post_init__(self):
        for name in ("q", "tail_tol", "match_tol"):
            object.__setattr__(self, name, _unit_float(getattr(self, name), name))
        for name in ("fock_dim", "lattice_depth"):
            object.__setattr__(self, name, _index(
                getattr(self, name), name, lo=1, exc=ValidationError))


def suggested_depth(q: float, eps: float) -> int:
    """Smallest S with q^S < eps: depth at which lattice tails drop below eps.

    Identity-grade checks (completeness sums, Parseval isometry) need this
    depth; the context default (32) is a compromise for operator work.
    """
    q, eps = _unit_float(q, "q"), _unit_float(eps, "eps")
    return int(math.ceil(math.log(eps) / math.log(q)))
