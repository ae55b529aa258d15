"""Error types shared across the package."""


class FamilyTooLargeError(RuntimeError):
    """Enumeration would exceed the configured cap; use sampling mode."""

    def __init__(self, count, cap):
        self.count, self.cap = count, cap
        super().__init__(
            f"family too large to enumerate ({count} > cap {cap}); "
            "set family_mode = sample")


class BudgetTableTooLargeError(RuntimeError):
    """The family's budget completion table would exceed its state cap."""


class CoverageUnverifiableError(RuntimeError):
    """The candidate pool is too coarse to certify the requested covering radius."""

    def __init__(self, sigma, required_pool, cap):
        self.sigma = sigma
        self.required_pool = required_pool
        self.cap = cap
        super().__init__(
            f"cannot certify a sigma = {sigma} covering of the direction sphere: "
            f"it needs a candidate pool of about {required_pool} points, over "
            f"the cap of {cap}; increase sigma"
        )


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""
