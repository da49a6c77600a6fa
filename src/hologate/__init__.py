"""Holonomic gate synthesis from closed loops in optical control-parameter space.

The package builds the gates three ways and checks them against each other:
exact weighted areas feeding exact generator exponentials (gates), the
path-ordered transport of the exact connection of dressed Fock-space frames
(connection), and a stroboscopic Kerr-dwell evolution (kicked).
"""

from .exceptions import AdiabaticityWarning, TruncationWarning
from .fock import ControlPoint, TruncatedOperator
from .gates import SIGMA1, SIGMA2, SIGMA12, GateMatrix, Generator, gate_for_loop
from .loops import AreaResult, LoopSpec, PlaneId, Polyline, Rect, area, weight

__all__ = [
    "AdiabaticityWarning",
    "AreaResult",
    "ControlPoint",
    "GateMatrix",
    "Generator",
    "LoopSpec",
    "PlaneId",
    "Polyline",
    "Rect",
    "SIGMA1",
    "SIGMA12",
    "SIGMA2",
    "TruncatedOperator",
    "TruncationWarning",
    "area",
    "gate_for_loop",
    "weight",
]

__version__ = "0.1.0"
