"""Shared deformation context.

A DeformationContext bundles the deformation parameter q with the
truncation sizes and tolerances every numerical routine needs. Instances
are frozen; derive variants with dataclasses.replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class DeformationContext:
    """Parameters shared by all computations.

    q             deformation parameter, strictly inside (0, 1)
    fock_dim      truncation dimension N of the number basis
    lattice_depth number S of geometric levels q^0 .. q^{S-1} per sign
    tail_tol      truncation tolerance for infinite products and series
    match_tol     tolerance for identity checks and spectrum matching
    """

    q: float
    fock_dim: int = 64
    lattice_depth: int = 32
    tail_tol: float = 1e-15
    match_tol: float = 1e-10

    def __post_init__(self):
        if not (isinstance(self.q, float) and 0.0 < self.q < 1.0):
            raise ValidationError(
                f"q must be a float strictly inside (0, 1), got {self.q!r}")
        if not (isinstance(self.fock_dim, int) and self.fock_dim >= 1):
            raise ValidationError(
                f"fock_dim must be a positive integer, got {self.fock_dim!r}")
        if not (isinstance(self.lattice_depth, int) and self.lattice_depth >= 1):
            raise ValidationError(
                f"lattice_depth must be a positive integer, "
                f"got {self.lattice_depth!r}")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValidationError(
                f"tail_tol must lie in (0, 1), got {self.tail_tol!r}")
        if not (0.0 < self.match_tol < 1.0):
            raise ValidationError(
                f"match_tol must lie in (0, 1), got {self.match_tol!r}")


def suggested_depth(q: float, eps: float) -> int:
    """Smallest S with q^S < eps: depth at which lattice tails drop below eps.

    Identity-grade checks (completeness sums, Parseval isometry) need this
    depth; the context default (32) is a compromise for operator work.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"q must lie in (0, 1), got {q!r}")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps!r}")
    return int(math.ceil(math.log(eps) / math.log(q)))

