"""The version-3 and -4 frontier writers, and a reader of version 5's
packing.

Version 3 regroups version 2's points into columns: one list per
scalar, a full row where the schedule's layout starts or changes
(carrying the index of its point in ``at``), and four flat delta
columns with per-point offsets, every column a JSON list.  Stores
written by older builds hold these payloads, which
:func:`repro.core.serialization.frontier_from_dict` rejects; the
version-4 writer packs exactly these columns, so this writer is the
oracle the tests check it against.

Version 4 packed those columns as base64 of little-endian doubles and
32-bit ints, with ``-1`` for a clock the layout lacks
(:func:`frontier_to_dict_v4`); version 5 packs the same bytes as hex.
:func:`v3_lists` reads them back with :mod:`struct`, not the
``bytes.fromhex``/``array`` calls the reader under test uses, so a test
can inspect a version-5 payload as the version-3 lists it packs, and
:func:`repack` corrupts one through them.
"""

from __future__ import annotations

import base64
import struct

from reference.frontier_v2 import frontier_to_dict_v2

from repro.core.frontier import Frontier

#: The packed columns of a version-4 or -5 payload, by :mod:`struct` code.
COLUMNS = {"iteration_time": "d", "effective_energy": "d",
           "compute_energy": "d", "delta_offsets": "i", "delta_index": "i",
           "delta_duration": "d", "delta_frequency": "i"}
ROW_COLUMNS = {"ids": "i", "durations": "d", "frequencies": "i",
               "frequency_ids": "i"}


def frontier_to_dict_v3(frontier: Frontier) -> dict:
    """``frontier`` as a version-3 payload."""
    payload = frontier_to_dict_v2(frontier)
    rows, offsets, index, durations, clocks = [], [0], [], [], []
    for k, row in enumerate(payload["rows"]):
        if isinstance(row, dict):
            rows.append(dict(row, at=k))
        else:
            index += row[0::3]
            durations += row[1::3]
            clocks += row[2::3]
        offsets.append(len(index))
    return dict(payload, version=3, rows=rows, delta_offsets=offsets,
                delta_index=index, delta_duration=durations,
                delta_frequency=clocks)


def unpack(text: str, code: str) -> list:
    """One hex-packed column as a list."""
    raw = bytes.fromhex(text)
    return list(struct.unpack(f"<{len(raw) // struct.calcsize(code)}{code}",
                              raw))


def pack(values, code: str) -> str:
    """Inverse of :func:`unpack`."""
    return struct.pack(f"<{len(values)}{code}", *values).hex()


def pack_base64(values, code: str) -> str:
    """:func:`pack`'s bytes as version 4 wrote them."""
    return base64.b64encode(
        struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def frontier_to_dict_v4(frontier: Frontier) -> dict:
    """``frontier`` as a version-4 payload."""
    return dict(packed(frontier_to_dict_v3(frontier), pack_base64),
                version=4)


def v3_lists(payload: dict) -> dict:
    """A version-5 payload with its columns as version 3's lists."""
    lists = {name: unpack(payload[name], code)
             for name, code in COLUMNS.items()}
    lists["delta_frequency"] = [None if f == -1 else f
                                for f in lists["delta_frequency"]]
    rows = [dict(row, **{name: unpack(row[name], code)
                         for name, code in ROW_COLUMNS.items()
                         if name in row})
            for row in payload["rows"]]
    return dict(payload, rows=rows, **lists)


def packed(lists: dict, pack=pack) -> dict:
    """Inverse of :func:`v3_lists`."""
    payload = dict(lists)
    for name, code in COLUMNS.items():
        values = lists[name]
        if name == "delta_frequency":
            values = [-1 if f is None else f for f in values]
        payload[name] = pack(values, code)
    payload["rows"] = [
        dict(row, **{name: pack(row[name], code)
                     for name, code in ROW_COLUMNS.items() if name in row})
        for row in lists["rows"]]
    return payload


def repack(edit):
    """A corruption (of a version-5 payload, in place) editing the
    version-3 lists it packs, then packing them again."""
    def corrupt(payload):
        lists = v3_lists(payload)
        edit(lists)
        payload.update(packed(lists))
    return corrupt
