"""Radial bound states of the 16-component field on the spherical 3-space.

Modules:
  hypergeo    Gauss 2F1 evaluation (terminating and generic parameters)
  model       the radial system (system(j, eps, m) for every j), fourth-order
              operators, factorizations
  closedform  exact wavefunctions and discrete spectra
  verify      residual / factorization / Wronskian checks
  oracle      shooting-method eigenvalues, independent of the closed forms
  cli         command-line interface
"""

from .closedform import (
    DegeneratePair,
    EliminationSingularError,
    Family,
    OffSpectrumError,
    RadialSolution,
    SpectrumEntry,
    degeneracy_map,
    family_levels,
    general_basis,
    spectrum,
    wavefunction_family,
    wavefunction_j0,
)
from .hypergeo import Hyp2F1Params, gauss_2f1, gauss_2f1_derivative
from .model import (
    FirstOrderSystem,
    LinearDifferentialOperator,
    ModeParams,
    QuantumNumbers,
    factor_pair_K,
    factor_pair_M,
    indicial_exponents,
    operator_K4,
    operator_M4,
    system,
)
from .oracle import OracleEigenvalue, ShootingConfig, compare_spectra, shoot_j, shoot_j0
from .verify import (
    VerificationReport,
    cross_consistency,
    factorization_identity,
    residual_operator,
    wronskian4,
)

__version__ = "0.1.0"
