"""Simulation and numerical-verification toolkit for statistics of randomly
weighted d-dimensional simplicial complexes.

Public names are imported from their submodules, e.g.
`from rwcomplex.harness import run_clt`."""

__version__ = "0.1.0"
