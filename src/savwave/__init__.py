"""Auxiliary-variable integrators for the 1-d stochastic wave equation."""

__version__ = "0.1.0"
