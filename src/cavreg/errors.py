class ConfigurationError(ValueError):
    """Invalid parameter, config key, or precondition violation (CLI exit code 2)."""


def check_integers(name: str, *values) -> None:
    """Reject a value that is not an int, as the config parser does: a bool
    is not a count, and a float such as 2.5 would fail only mid-run."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{name} {value!r} is not an integer")
