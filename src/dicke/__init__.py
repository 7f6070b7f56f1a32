"""Solvers for the populations of a collectively decaying emitter ensemble.

Five independent routes to the same diagonal dynamics -- pole-residue
closed forms, Jordan-block propagation, Laplace/resolvent inversion,
certified power series plus a reference integrator, and a quantum-jump
Monte Carlo -- cross-validated against each other, with superradiance
observables (emission rate, burst height and timing) on top.
"""

__version__ = "0.1.0"

from .ladder import DickeLadder, RateMatrix, build_ladder, build_rate_matrix
from .methods import EXACT_METHODS, METHODS, solve_populations
from .observables import (BurstSummary, EmissionCurve, ScanResult, burst_summary,
                          emission_curve, emitted_photons, scaling_scan)
from .precision import PrecisionError, PrecisionPolicy
from .residues import (ResidueTerm, above_equator_closed_form, evaluate_distribution,
                       evaluate_population, residue_terms)
from .spectral import (JordanDecomposition, ResolventElement, eigenvector,
                       generalized_eigenvector, invert_laplace, jordan_decompose,
                       propagate, resolvent_element)
from .states import DiagonalState, EvolutionTable

__all__ = [
    "DickeLadder", "RateMatrix", "build_ladder", "build_rate_matrix",
    "METHODS", "EXACT_METHODS",
    "solve_populations", "BurstSummary", "EmissionCurve", "ScanResult",
    "burst_summary", "emission_curve", "emitted_photons", "scaling_scan",
    "PrecisionError", "PrecisionPolicy", "ResidueTerm",
    "above_equator_closed_form", "evaluate_distribution", "evaluate_population",
    "residue_terms", "JordanDecomposition", "ResolventElement", "eigenvector",
    "generalized_eigenvector", "invert_laplace", "jordan_decompose", "propagate",
    "resolvent_element", "DiagonalState", "EvolutionTable", "__version__",
]
