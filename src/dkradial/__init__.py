"""Radial bound states of the 16-component field on the spherical 3-space.

Modules (import each name from its module; importing the package loads none):
  hypergeo    Gauss 2F1 evaluation (terminating and generic parameters)
  model       the radial system (system(j, eps + mu, eps - mu) for every j),
              fourth-order operators, factorizations
  closedform  exact wavefunctions and discrete spectra
  verify      residual / factorization / Wronskian checks
  oracle      shooting-method eigenvalues, independent of the closed forms
  cli         command-line interface
"""
