"""Exception types shared across the package."""


class HesslabError(Exception):
    """Base class for package-specific failures."""


class CostGuardError(HesslabError):
    """Input is legal but beyond an oracle's cost envelope.  In the package
    only the coloring oracle dotchar.chromatic_qsym raises it, for n above
    CHARACTER_GUARD_N without force=True: it enumerates up to n^n colorings."""


class ConsistencyError(HesslabError):
    """Two independent internal computations disagree.  Never ignored, never downgraded."""


class TheoremViolation(HesslabError):
    """A checked theorem failed on a concrete instance.

    Carries a machine-readable witness so callers (and the CLI) can report
    exactly which instance broke and how.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}
