"""Comparing served result bytes with direct runs.

A served ``result`` object is compared byte for byte with
``json_dumps(result_payload(...))`` of a direct run, except for the
index *provenance*: ``stats.index_source`` / ``stats.index_reason`` and
the ``source=`` detail of the IndexPrune plan line say which storage
tier supplied the shape index (``built``, ``disk`` or ``memory``).  That
depends on what ran before on the session, so a later direct run of the
same key legitimately reads ``memory`` where the first served miss read
``built``.  Everything else -- matches, scores, placements, counters and
the rest of the plan -- must be identical.
"""

from __future__ import annotations

import hashlib
import re

_PLAN_SOURCE = re.compile(rb" source=(?:built|disk|memory)")
_FIELD_VALUE = re.compile(rb'("index_(?:reason|source)":)(null|"[^"]*")')


def normalize(payload: bytes) -> bytes:
    """The payload with index provenance blanked (see module doc)."""
    payload = _FIELD_VALUE.sub(rb"\1null", payload)
    return _PLAN_SOURCE.sub(b" source=*", payload)


def payload_digest(payload: bytes) -> str:
    return hashlib.sha256(normalize(payload)).hexdigest()


def result_bytes(frame: bytes) -> bytes:
    """The verbatim ``result`` object of a WebSocket ``result`` frame.

    The server splices the stored bytes between ``"result":`` and
    ``,"type":"result"}`` (keys in sorted order), so slicing recovers
    them exactly.
    """
    start = frame.index(b'"result":') + len(b'"result":')
    suffix = b',"type":"result"}'
    if not frame.endswith(suffix):
        raise ValueError("not a result frame")
    return frame[start:-len(suffix)]
