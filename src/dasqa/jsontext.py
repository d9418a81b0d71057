"""JSON text as ``json.dumps(..., indent=2)`` lays it out, without its encoder.

With ``indent``, ``json.dumps`` runs the pure-Python encoder of :mod:`json`.
:func:`dumps` writes the same bytes in one recursive pass: ``IN[d]`` is a
newline and the indent of nesting depth ``d``, ``SEP[d]`` the same after a
comma, :func:`string` is the encoder's own C escape (ASCII output, as
``ensure_ascii`` gives) and :func:`number` its float rule. ``layout.json``
is written from a template of its own with the same pieces.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as string

# a newline and the indent of each nesting depth, and a comma before it
IN = tuple("\n" + "  " * depth for depth in range(8))
SEP = tuple("," + indent for indent in IN)

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def number(value: float) -> str:
    """A float as ``json`` writes it: its repr, with NaN and the infinities
    spelled as JavaScript spells them."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _null(value: None) -> str:
    return "null"


# exact type -> its writer; a subclass of str, int or float goes through dumps's
# isinstance checks, in the order json's encoder makes them
_SCALARS = {str: string, float: number, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__, type(None): _null}


def dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists,
    tuples, strings, floats, ints, booleans and None, nested at most
    ``len(IN) - 2`` deep; ``depth`` is the nesting ``value`` sits at."""
    scalar = _SCALARS.get
    write = scalar(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, str):
        return string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return number(value)
    inner = depth + 1
    parts = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key, item in value.items():
            write = scalar(type(item))
            parts.append(f"{string(key)}: {write(item) if write else dumps(item, inner)}")
        return f"{{{IN[inner]}{SEP[inner].join(parts)}{IN[depth]}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        for item in value:
            write = scalar(type(item))
            parts.append(write(item) if write else dumps(item, inner))
        return f"[{IN[inner]}{SEP[inner].join(parts)}{IN[depth]}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
