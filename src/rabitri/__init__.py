"""Three quantum Rabi cavities on a ring threaded by an artificial gauge
phase: exact photon-transfer dynamics, mean-field phases, quadratic
fluctuations, and critical-exponent extraction."""

from .errors import (ConvergenceError, CriticalPointError, DomainError,
                     FitRejected, InstabilityError, ResourceError,
                     TruncationWarning)
from .model import (MOMENTA, ModelParams, PhaseLabel, bare_coupling,
                    classify_phase, critical_coupling, critical_coupling_min,
                    critical_flux, softest_mode)
from .np_analytics import (MomentumMode, NpObservables, excitation_energies,
                           ground_energy_np, local_photon_np, mode,
                           observables_np, variance_p_np, variance_x_np)
from .meanfield import (MeanFieldSolution, fsp_closed_form, ground_energy_mf,
                        residual_jacobian, residuals, solve_displacements)
from .bogoliubov import (ParaunitarySolution, build_m_matrix,
                         diagonalize_paraunitary, point_observables)
from .dynamics import (FockBasis, Trajectory, build_full_hamiltonian,
                       chirality_metric, evolve, exact_ground_energy,
                       initial_state)
from .scaling import (ExponentReport, PowerLawFit, ReportEntry, SweepSpec,
                      ZPair, exponent_report, fit_power_law, format_report,
                      observables_near, sweep)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "CriticalPointError", "DomainError", "FitRejected",
    "InstabilityError", "ResourceError", "TruncationWarning",
    "MOMENTA", "ModelParams", "PhaseLabel", "bare_coupling", "classify_phase",
    "critical_coupling", "critical_coupling_min", "critical_flux",
    "softest_mode",
    "MomentumMode", "NpObservables", "excitation_energies",
    "ground_energy_np", "local_photon_np", "mode", "observables_np",
    "variance_p_np", "variance_x_np",
    "MeanFieldSolution", "fsp_closed_form", "ground_energy_mf",
    "residual_jacobian", "residuals", "solve_displacements",
    "ParaunitarySolution", "build_m_matrix", "diagonalize_paraunitary",
    "point_observables",
    "FockBasis", "Trajectory", "build_full_hamiltonian", "chirality_metric",
    "evolve", "exact_ground_energy", "initial_state",
    "ExponentReport", "PowerLawFit", "ReportEntry", "SweepSpec", "ZPair",
    "exponent_report", "fit_power_law", "format_report", "observables_near",
    "sweep",
    "__version__",
]
