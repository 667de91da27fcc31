"""Simulation laboratory for Lipschitz bandit and experts problems on
explicitly represented metric spaces."""

__version__ = "0.1.0"
