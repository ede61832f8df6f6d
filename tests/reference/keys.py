"""The two-pass store-key text: a canonical form, then ``json.dumps``.

:func:`repro.core.store.stable_key` writes a key's canonical JSON text
in one pass; this is the form-then-serialize construction it replaced,
kept as the oracle the one-pass text must equal byte for byte.
Dataclasses canonicalize as ``[type name, {field: value}]`` at the top
level and as their field object alone when nested in another
dataclass; floats as ``float.hex``; dict keys as ``str`` of the key.
"""

from __future__ import annotations

import dataclasses
import json


def canonical(value, nested: bool = False):
    """JSON-able canonical form of one cache-key constituent."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: canonical(getattr(value, f.name), nested=True)
                  for f in dataclasses.fields(value)}
        return fields if nested else [type(value).__name__, fields]
    if isinstance(value, (tuple, list)):
        return [canonical(v, nested) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v, nested)
                for k, v in sorted(value.items())}
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a "
                    f"store key")


def key_text(key) -> str:
    """The text ``stable_key`` hashes, built form first."""
    return json.dumps(canonical(key), sort_keys=True, separators=(",", ":"))
