"""Bicycle-count change-rate analysis with latent-factor regression."""

__version__ = "0.1.0"
