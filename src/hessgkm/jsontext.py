"""JSON text in one layout: that of ``json.dumps(x, sort_keys=True, indent=2)``.

Every ``--json`` document and the graph export are written by
:func:`document`.  ``json.dumps`` with an indent runs CPython's pure-Python
encoder, a chain of generators that yields each bracket, separator and value
as its own piece.  Here a document is one ``join`` of pieces, an array item
is one ``join`` of its own, and a list of strings is one ``map`` of the C
string encoder.  The output is the same byte for byte; ``verify.oracle_json``
is the ``json.dumps`` path, and the tests hold the two equal on every verb
and on generated documents.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# The encoders of the scalar types, by exact type; subclasses take the
# isinstance path of _parts, as in ``json``.
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class Encoded:
    """An array whose items are given as text, already in the layout at the
    array's items' depth: ``runs`` is an iterable of lists of item texts,
    read once, so a big array need not be held item by item."""

    __slots__ = ("runs",)

    def __init__(self, runs) -> None:
        self.runs = runs


def dumps(x, depth: int = 0) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` for x built of dicts with
    str keys, lists, tuples, str, int, float, bool and None; at ``depth``
    > 0, the text of x as a value nested that many levels deep."""
    return "".join(_parts(x, "\n" + "  " * depth))


def document(x) -> str:
    """The JSON document of x: :func:`dumps` and a newline, in one join."""
    parts = _parts(x, "\n")
    parts.append("\n")
    return "".join(parts)


def _parts(x, nl: str) -> list[str]:
    """The text of x, whose own line begins after ``nl`` (a newline and the
    line's indent), in pieces.  An object's members are spliced into its
    pieces, and each item of an array is joined into one string.  So the
    pieces of a document are its top rows: the items of its big arrays reach
    the one final join as they are, never copied into an array's own string."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        return [scalar(x)]
    inner = nl + "  "
    get = _SCALARS.get
    if isinstance(x, dict):
        if not x:
            return ["{}"]
        parts = []
        lead = "{" + inner
        for k, v in sorted(x.items()):
            parts += (lead, _string(k), ": ")
            f = get(type(v))
            if f is None:
                parts += _parts(v, inner)
            else:
                parts.append(f(v))
            lead = "," + inner
        parts.append(nl + "}")
        return parts
    if isinstance(x, (list, tuple)):
        try:
            items = list(map(_string, x))
        except TypeError:
            items = [f(v) if (f := get(type(v))) else "".join(_parts(v, inner)) for v in x]
    elif isinstance(x, Encoded):
        items = [("," + inner).join(run) for run in x.runs if run]
    elif isinstance(x, str):
        return [_string(x)]
    elif isinstance(x, int):
        return [int.__repr__(x)]
    elif isinstance(x, float):
        return [_float(x)]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return ["[]"]
    parts = ["," + inner] * (2 * len(items) + 1)
    parts[1::2] = items
    parts[0] = "[" + inner
    parts[-1] = nl + "]"
    return parts
