"""The JSON text of every JSON output of the package.

render(obj) returns exactly the text of json.dumps(obj, indent=2) for a
tree of str-keyed dicts, lists, strings, integers, booleans and None,
and raises TypeError on anything else, so no float (and no NaN or
Infinity) can reach an output.  json.dumps runs its C encoder only when
indent is None; this writer keeps the C string escaper and joins each
container's text as soon as the container is finished, which is faster
than the pure-Python indenting encoder and holds fewer pieces alive.
The catalog writes its value types in the same layout, straight from
their fields, with string, the same escaper.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as string


def render(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), for the exact JSON types only, nested at newline."""
    if isinstance(obj, str):
        return string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    separator = "," + inner
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = separator.join([render(value, inner) for value in obj])
        return f"[{inner}{items}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # string raises TypeError on a key that is not a str
        items = [f"{string(key)}: {render(value, inner)}" for key, value in obj.items()]
        return f"{{{inner}{separator.join(items)}{newline}}}"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")
