"""Log-degree sweeping word grids in matrix algebras.

Submodules:
  words       word enumeration, the word grid, the certificate monomial
  exactalg    exact scalar rings and dense linear algebra
  graphs      the recursive multigraph family and its walk partitions
  genericity  randomized certification, length chains
  witness     deterministic integer witnesses with exact verification
  cli         command-line surface over all of the above

Importing the package loads only the error types.  A submodule is imported
when it is first accessed, so `sweepwords.graphs` works without an explicit
`import sweepwords.graphs`, and each command loads only the modules it runs.
"""

import importlib

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    InvalidInput,
    InvalidModulus,
    InvalidShape,
    InvalidWord,
    SweepwordsError,
    TooLarge,
)

__version__ = "0.1.0"

_SUBMODULES = ("exactalg", "genericity", "graphs", "witness", "words")

__all__ = [
    *_SUBMODULES,
    "ArityMismatch",
    "BudgetExceeded",
    "InvalidInput",
    "InvalidModulus",
    "InvalidShape",
    "InvalidWord",
    "SweepwordsError",
    "TooLarge",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound; importing a submodule
    # binds it as a package attribute, so this runs once per submodule
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
