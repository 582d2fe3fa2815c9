"""specminer: infer observer-based pre/post axioms for heap-manipulating
C fragments by symbolic execution.

The package is organized as a pipeline: `frontend` turns source text into a
checked program index, `engine` executes one call symbolically into result
patterns, and `inference` turns patterns into axioms phrased through the
program's own observer functions. `constraints` is the shared condition
language with its decision procedure, `symstate` the shared state model,
`concrete` a plain interpreter used for cross-checking, and `cli` the
command-line entry point.
"""

from .constraints import SatResult, check_sat, entails
from .engine import Limits, SEResult, se
from .frontend import load_program
from .inference import Axiom, Equation, SpecSet, infer_spec
from .symstate import Allocator

__version__ = "0.1.0"

__all__ = [
    "Allocator",
    "Axiom",
    "Equation",
    "Limits",
    "SEResult",
    "SatResult",
    "SpecSet",
    "__version__",
    "check_sat",
    "entails",
    "infer_spec",
    "load_program",
    "se",
]
