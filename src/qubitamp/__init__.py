"""Exact desk-scale simulator of heralded photonic qubit amplification."""

from .amplifier import AmplifierParams, build_scenario

__version__ = "0.1.0"
