"""Deterministic grid-ignited wildfire risk engine.

Simulates fire spread from ignition points placed along transmission
lines, converts burned area and damaged line mileage into dollar losses,
and ranks lines by a normalized risk metric.
"""

__version__ = "0.1.0"
