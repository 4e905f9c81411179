class ConfigurationError(ValueError):
    """Invalid parameter, config key, or precondition violation (CLI exit code 2)."""

