"""Indented JSON on the C encoder.

`dumps(obj)` returns the same string as `json.dumps(obj, indent=2)`.  The
standard library serializes with `indent` only on its pure-Python path, so
here a container whose members are all scalars (empty containers count as
scalars) is serialized in one call of a `json.JSONEncoder` without `indent`,
which takes the C encoder, whose item separator carries the newline and
the members' indentation.  Only containers that hold non-empty containers
are walked in Python, and the scalars met on that walk (keys included) get
their text directly rather than from an encoder call, which builds a C
encoder each time.  It stays because replacing it with
`json.dumps(indent=2)` cost bound-grid requests/s in four of four
alternating 10 s benchmark pairs (median 215.1 -> 204.9, -4.7 %, against a
quartile spread of about 2 %).  On small nested replies it keeps level with
`json.dumps(indent=2)` (medians of 3,000 interleaved calls, 2-core x86-64
VM, Python 3.11.7): `bound --method all` 55 against 57 us, `compare` 117
against 126 us, `mult --q 11 --n 3` 27 against 29 us, its tensor 54 against
50 us.

A list whose members are all exact `int`s (the rows of a tensor's `forms`
and `recon`, a modulus, the plan lists) skips the encoder: its text is
joined from `int.__repr__`.  A bool or an int subclass among the members
sends the list to the encoder as before.  This cut `emit_tensor` over the
ten mult-exhaustive cells from 690 to 505 us (min of 40 blocks of 20
rounds, same VM).
"""

from __future__ import annotations

import functools
import json
import math

_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=16)  # one per nesting depth; replies nest at most 6 deep
def _flat(depth: int):
    """encode() of a container whose members sit at `depth` levels of
    indentation, still without its opening and closing line breaks."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


_encode = _flat(0)
_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _float(x: float) -> str:
    # json's spellings of the non-finite floats
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(obj) -> str:
    """The encoder's text of a scalar, without an encoder call for the exact
    types that replies hold."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float:
        return _float(obj)
    if kind is bool or obj is None:
        return _CONSTANTS[obj]
    return _encode(obj)


def _key(key) -> str:
    # json coerces float, bool, None and int keys to their scalar text
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _scalar(key)
    return _scalar(key)


def _dump(obj, depth: int) -> str:
    if isinstance(obj, dict):
        members, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        members, brackets = obj, "[]"
    else:
        return _scalar(obj)
    if not obj:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    if brackets == "[]" and all(type(m) is int for m in obj):
        body = ("," + pad).join(map(int.__repr__, obj))
    elif not any(isinstance(m, _CONTAINERS) and m for m in members):
        body = _flat(depth + 1)(obj)[1:-1]
    elif isinstance(obj, dict):
        body = ("," + pad).join(f"{_key(k)}: {_dump(v, depth + 1)}" for k, v in obj.items())
    else:
        body = ("," + pad).join(_dump(m, depth + 1) for m in obj)
    return brackets[0] + pad + body + pad[:-2] + brackets[1]


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte."""
    return _dump(obj, 0)
