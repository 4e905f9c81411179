import math
from numbers import Integral


class ConfigurationError(ValueError):
    """Invalid parameter, config key, or precondition violation (CLI exit code 2).

    `key` names the one config key ("section.key") whose value a check
    rejects, and the error reads "key: message"; a check across keys or
    models has no key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.message, self.key = message, key


def check_integers(key: str, *values, least: int | None = None) -> None:
    """Reject a value that is not an integer, numpy's included (a bool is not
    a count, and a float such as 2.5 would fail only mid-run), or one below
    `least`."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigurationError(f"{value!r} is not an integer", key)
        if least is not None and value < least:
            raise ConfigurationError(f"{value} is below {least}", key)


def check_probability(key: str, *values: float) -> None:
    """Reject a value outside [0, 1], nan included."""
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{value!r} is outside [0, 1]", key)


def check_finite(key: str, value: float, *, positive: bool = True) -> None:
    """Reject nan, ±inf and a negative value, and zero too when positive."""
    if not (0.0 < value if positive else 0.0 <= value) or value == math.inf:
        rule = "positive" if positive else "non-negative"
        raise ConfigurationError(f"{value!r} is not {rule} and finite", key)


def check_sweep(key: str, values: list) -> None:
    """Reject an empty sweep list or one that repeats a value: each value is
    one sweep point (one curve, one fit point)."""
    if not values:
        raise ConfigurationError("a sweep needs at least one value", key)
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigurationError(f"repeats the value {repeated[0]}", key)
