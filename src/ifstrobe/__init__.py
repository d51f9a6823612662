"""Numerical toolbox for periodically pulsed integrate-and-fire systems.

The package analyzes the scalar system x' = f(x) + I(t) with hard reset
x = theta -> x = 0 under a square-wave drive: its stroboscopic map, spike
itineraries, firing and rotation numbers, border-collision curves, spiking
regions and the firing-rate-vs-period staircase under dose conservation.

Its public names are those of its modules' ``__all__``, republished here.
"""

from . import model as _model, strobe as _strobe, bifurcation as _bifurcation, sweep as _sweep
from .model import *
from .strobe import *
from .bifurcation import *
from .sweep import *

__version__ = "0.1.0"

__all__ = _model.__all__ + _strobe.__all__ + _bifurcation.__all__ + _sweep.__all__
