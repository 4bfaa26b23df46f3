"""letrack: open-world video instance tracking and evaluation.

Class-agnostic detections go in, associated and classified tracks come out,
and a two-pass higher-order evaluator scores them in closed (HOTA) or open
(OWTA) world mode.  A seeded synthetic harness generates matched
gt/detections/bank triples for end-to-end testing, and every file the
package writes is canonical JSON, so equal inputs give byte-equal outputs.

Each public name is listed once, in its module's ``__all__``.
"""

from . import assignment, association, classification, core, io, maskops, metrics, rng, synth
from .assignment import *
from .association import *
from .classification import *
from .core import *
from .io import *
from .maskops import *
from .metrics import *
from .rng import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    *assignment.__all__, *association.__all__, *classification.__all__, *core.__all__, *io.__all__,
    *maskops.__all__, *metrics.__all__, *rng.__all__, *synth.__all__, "__version__",
]
