"""Discrete q-deformed oscillator: Fock algebra, lattice wavefunctions,
and fractional-Fourier time evolution, with a verification battery that
checks every identity the library relies on.
"""

from importlib import import_module as _import_module

from .context import DeformationContext, suggested_depth
from .errors import (AlreadyRescaled, DimensionMismatch, DomainError,
                     IndexOutOfRange, KindMismatch, NoConvergence,
                     NonConvergent, NotHermitian, NotRescaled, QoscError,
                     TailTooLarge, ValidationError)
from .evolution import (EvolutionKernel, evolve, fractional_ft,
                        group_law_residual, heisenberg_rotation_check,
                        identity_residual, intertwine_residual,
                        inverse_residual, kernel_K, kernel_sign_flip_residual,
                        norm_drift_max, periodicity_residual,
                        phase_map_residual, rescale, rescaled_mode,
                        standard_inner, unitarity_residual, unrescale)
from .fock import (MatchedLevel, SpectrumReport, TridiagonalOperator,
                   build_F_of_H, build_H, build_ladders, build_P, build_Q,
                   commutator, eigendecompose, eigenvalues,
                   spectrum_report)
from .hilbert import (LatticeFunction, ModeExpansion, WavefunctionQuery,
                      apply_H, apply_P, apply_Q, decompose, fock_to_lattice,
                      lattice_inner, mode_function, normalized_eigenfunction,
                      phi_eval, psi_eval, q_difference_P_oracle)
from .qcore import (CoefficientVector, apply_lowering, apply_raising,
                    basis_coeff, coupling, fock_inner, fock_monomial, q_diff,
                    q_number, qpoch, qpoch_inf, scale_op)
from .qhermite import (LatticePoint, ModeTable, build_mode_table,
                       dual_orthogonality_residual, forward_rows,
                       lattice_point, lattice_weight, lattice_weight_window,
                       norm_c, norm_c_window, orthogonality_residuals,
                       window_index, window_levels, window_signs,
                       window_values)
from .serialize import (SCHEMA_VERSION, load_kernel, load_lattice_function,
                        load_mode_table, load_spectrum_report,
                        spectrum_report_payload, verify_report_payload,
                        write_kernel, write_lattice_function,
                        write_mode_table, write_spectrum_report,
                        write_verify_report)

# the battery loads on first access, not with the package or its CLI
_BATTERY = ("verify", "CheckResult", "VerifyReport", "run_verification")


def __getattr__(name):
    if name not in _BATTERY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(".verify", __name__)
    return module if name == "verify" else getattr(module, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_BATTERY))
