"""Warning and error categories shared across the package."""


class TruncationWarning(UserWarning):
    """Top-quartile Fock population exceeded the trust budget; results may carry truncation error."""


class AdiabaticityWarning(UserWarning):
    """Kicked evolution leaked more than half the code-space population."""

