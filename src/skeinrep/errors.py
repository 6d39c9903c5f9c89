"""The package's errors and the readers of its JSON schemas.

A leaf module: it imports nothing, so a module that only raises an error
or reads an input file does not load the modules that compute.
"""


class LinkFormatError(ValueError):
    """Malformed diagram code."""


class SpineFormatError(ValueError):
    """Malformed spine description."""


class DomainError(ValueError):
    """Structurally valid input outside the supported domain."""


def json_int(value) -> int:
    """value as a JSON Schema ``integer``: an int, or a float with no
    fractional part; bools, strings and fractions raise ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def json_str(value) -> str:
    """value as a JSON Schema ``string``; anything else raises ValueError."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def json_list(value) -> list:
    """value as a JSON Schema ``array``; anything else raises ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not an array")
    return value


def json_object(value, keys=None) -> dict:
    """value as a JSON object; with keys given, the object may hold no other
    key (the schema's ``"additionalProperties": false``).  Anything else
    raises ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    extra = [k for k in value if keys is not None and k not in keys]
    if extra:
        raise ValueError(f"unknown keys {extra}; allowed are {list(keys)}")
    return value
