"""Exception types shared across the package."""


class SweepwordsError(Exception):
    """Base class for all library errors."""


class InvalidWord(SweepwordsError):
    """A word is empty where forbidden or uses letters outside the alphabet."""


class InvalidShape(SweepwordsError):
    """A matrix has the wrong shape for the requested operation."""


class ArityMismatch(SweepwordsError):
    """The number of matrices does not match the required count."""


class InvalidInput(SweepwordsError):
    """Structurally inconsistent inputs: mixed sizes or rings, bad ranges."""


class InvalidModulus(SweepwordsError):
    """The modulus is not an admissible prime."""


class TooLarge(SweepwordsError):
    """The requested exhaustive computation exceeds its hard size cap."""


class BudgetExceeded(SweepwordsError):
    """An exhaustive search ran out of its node-expansion budget."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"search expanded {nodes} nodes, budget {budget}")
        self.nodes = nodes
        self.budget = budget
