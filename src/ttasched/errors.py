"""Input errors, and the one place where input files are read, field
values converted and unknown keys rejected, and where output JSON is
written (the episode report, whose numbers ``pipeline`` formats in one
pass, matches ``json_text`` byte for byte).

It also holds the two helpers every other module builds on: ``_derived``,
the trusted path that builds an object without its constructor's checks,
and ``_ordered_sum``, the one float sum whose rounding does not depend on
the Python version."""

import json
from types import GenericAlias

# the JSON types a field may be required to have, as named in messages
_JSON_TYPES = {str: "a string", bool: "true or false", list: "a list", dict: "an object"}

_INT64 = 2**63


def _derived(cls, **fields):
    """A ``cls`` holding ``fields`` as they are, without its constructor's
    checks: for objects derived from already validated ones, whose fields
    are valid by construction. On a frozen dataclass the result compares,
    hashes and prints as the constructor's would, given the values the
    constructor would have stored."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _ordered_sum(values) -> float:
    """The floats in ``values`` added one at a time, left to right. The
    builtin ``sum`` of floats is compensated from Python 3.12 on, so it can
    differ in the last digit between versions; this sum cannot."""
    total = 0.0
    for value in values:
        total += value
    return total


class InputError(ValueError):
    """Invalid user-supplied document, file, or argument. The CLI maps this
    to exit code 2."""


class TraceExhausted(InputError):
    """System-state trace does not cover the requested simulation time."""


def read_json(path):
    """The JSON document in the file at ``path``; a file that is not JSON
    is an InputError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # incl. bad UTF-8
            raise InputError(f"{path}: invalid JSON ({exc})") from None


def convert(kind, value, name: str):
    """``value``, read from the input field ``name``, as ``kind``.

    ``float`` and ``int`` take a JSON number, not a string or a boolean; an
    integer field takes neither a fractional number nor one beyond 64 bits.
    ``str``, ``bool``, ``list`` and ``dict`` take only a value of that JSON
    type, and ``list[kind]`` a list whose items each convert to ``kind``. A
    missing value (``None``) or one that does not convert is an InputError
    naming the field.
    """
    if type(value) is kind and (kind is not int or -_INT64 <= value < _INT64):
        return value  # the usual case: JSON already gave that type
    if value is None:
        raise InputError(f"{name} is missing")
    if kind is float or kind is int:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                out = kind(value)
            except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
                pass
            else:
                if kind is float or (out == value and -_INT64 <= out < _INT64):
                    return out
        noun = "a number" if kind is float else "an integer"
    elif isinstance(kind, GenericAlias):
        (item,) = kind.__args__
        items = convert(list, value, name)
        return [convert(item, x, f"{name}[{i}]") for i, x in enumerate(items)]
    else:
        noun = _JSON_TYPES[kind]
    raise InputError(f"{name} must be {noun}, got {value!r}")


def reject_unknown(obj: dict, known, what: str) -> None:
    """Reject the keys of the input object ``obj`` outside ``known``, so a
    misspelt optional key is an error rather than a silent default. The
    InputError names ``what`` and the sorted list of unknown keys."""
    unknown = obj.keys() - known
    if unknown:
        raise InputError(f"{what}: unknown fields {sorted(unknown)}")


def json_text(document) -> str:
    """``document`` as JSON text, indented by 2 with sorted keys, ending in
    a newline. NaN and infinities have no JSON form, so a document holding
    one is a ValueError rather than an output that other readers reject."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
