"""The one schema of every JSON record the package reads.

A record maps each key to a *kind*, the JSON type its value must have:
``int``, ``float`` (any finite number), ``bool``, ``str``, ``dict`` (any
object), ``list`` (any array), ``K | None``, ``list[K]``, ``dict[K]`` (an
object of K values) or ``[K, ...]`` (an array of exactly those kinds).
JSON's true and false are no numbers here.  A kind is also the text of the
error that names it.
"""

from __future__ import annotations

import json
import math

from .errors import PolymapError


def is_kind(value, kind: str) -> bool:
    """Whether a decoded JSON value has the type ``kind``."""
    if kind.endswith(" | None"):
        return value is None or is_kind(value, kind.removesuffix(" | None"))
    if kind.startswith("list["):
        return isinstance(value, list) and all(is_kind(item, kind[5:-1]) for item in value)
    if kind.startswith("dict["):
        return isinstance(value, dict) and all(is_kind(item, kind[5:-1]) for item in value.values())
    if kind.startswith("["):
        kinds = kind[1:-1].split(", ")
        return isinstance(value, list) and len(value) == len(kinds) and all(
            map(is_kind, value, kinds))
    types = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
             "list": list}[kind]
    if kind == "float" and isinstance(value, float) and not math.isfinite(value):
        return False  # Python's json reads NaN, Infinity and 1e999; JSON has no such number
    # Python's bool is an int, JSON's true is not
    return isinstance(value, types) and isinstance(value, bool) == (kind == "bool")


def decoded(text: str, context: str, error: type[PolymapError]):
    """The JSON value ``text`` holds; ``error`` naming ``context`` if it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{context} is not valid JSON: {exc}") from exc


def checked(
    raw, kinds: dict[str, str], context: str, error: type[PolymapError],
    header: tuple[str, int] | None = None, required=None,
) -> dict:
    """``raw`` if it is an object of keys of ``kinds``, each value of its
    key's kind, that holds every key of ``required`` (by default all).  A
    ``header`` ``(format, version)`` adds both keys, checked first: ``version``
    must be that JSON integer.  Any mismatch raises ``error`` naming
    ``context`` and the key."""
    if header:
        kinds = {"format": "str", "version": "int", **kinds}
    required = list(kinds if required is None else required)
    if not isinstance(raw, dict):
        keys = f" with keys {', '.join(required)}" if required else ""
        raise error(f"{context} must be a JSON object{keys}, got {type(raw).__name__}")
    found = raw.get("format"), raw.get("version")
    if header and (found != header or type(found[1]) is not int):
        raise error(f"{context} is not a {header[0]} v{header[1]} record: "
                    f"its format is {found[0]!r} and its version {found[1]!r}")
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise error(f"{context} has unknown key(s) {unknown}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise error(f"{context} is missing required key {missing[0]!r}")
    for key, value in raw.items():
        if not is_kind(value, kinds[key]):
            shown = json.dumps(value, default=repr)
            shown = shown if len(shown) <= 60 else f"{shown[:60]}..."
            raise error(f"{context} key {key!r} must be {kinds[key]}, got {shown}")
    return raw
