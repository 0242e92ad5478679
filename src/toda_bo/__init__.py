"""Exact-arithmetic mode algebra, tau functions, conserved charges and a
spectral integrator for a q-deformed Benjamin-Ono system.

Layout:
  scalar   exact rationals, parameter points, symmetric-function helpers
  series   exact Laurent polynomials and the tau-ratio division
  modes    Poisson algebra on mode symbols, field constructors, Hirota ops
  soliton  exact n-soliton tau functions with diagonal time action
  iom      integrals of motion (kernel definitions, Newton forms, closed forms)
  verify   table-driven identity checker producing machine-readable reports
  evolve   floating-point pseudo-spectral time integration
  cli      command-line entry point
"""

__version__ = "0.1.0"
