"""Error types shared across the package."""


class ResourceError(RuntimeError):
    """A run would pass a cap (members, budget states, links or levels, the
    operator's bytes of kernel values, or the sphere net's candidate pool);
    refused before the heavy work."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""
