"""Exception types shared across the package."""


class ConfigError(Exception):
    """A user-facing configuration problem (bad key, bad value, bad flavor)."""


class ContractError(Exception):
    """An internal invariant was violated; indicates a simulation bug."""
