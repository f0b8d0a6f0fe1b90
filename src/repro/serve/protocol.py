"""The ``repro serve`` wire protocol: newline-delimited JSON messages.

One request per line, one reply per line, over a Unix-domain socket
(default) or a localhost TCP connection.  A connection may carry any
number of sequential requests; concurrency comes from concurrent
connections (the server handles each connection in its own asyncio
task, and a ``submit`` with ``wait`` holds only its own connection).

Requests (``op`` selects the verb)::

    {"op": "submit", "spec": {...JobSpec.to_dict()...}, "wait": true,
     "deadline_ms": 5000}
    {"op": "submit_many", "specs": [{...}, ...], "deadline_ms": 5000}
    {"op": "await",  "run_id": "<64-hex>", "deadline_ms": 5000}
    {"op": "status", "run_id": "<64-hex>"}
    {"op": "stats"}
    {"op": "health"}
    {"op": "ping"}
    {"op": "drain"}
    {"op": "shutdown"}

Replies always carry ``ok``.  A successful ``submit``/``await`` reply
carries ``run_id``, ``cache`` (``hit`` — served from the store;
``miss`` — this submission executed; ``coalesced`` — attached to an
identical in-flight execution; ``inflight`` — ``wait`` was false) and,
once resolved, ``record`` (the stored ``RunRecord.to_dict()``).  A
*structured failure* reply carries ``ok: false`` plus a machine-
checkable ``reason`` (one of the ``REASON_*`` constants below —
``busy``/``draining`` mean the submission was never accepted and may be
retried elsewhere; ``deadline-exceeded``/``poison-job``/``pool-dead``
resolve an accepted submission), so clients never have to string-match
error text.

``submit_many`` is the one verb that streams: the server writes one
reply line per spec *in completion order*, each tagged with ``index``
(the spec's position in the request), terminated by a
``{"op": "submit_many_done", "n": N}`` line.  One round trip amortizes
the protocol over thousands of specs.

The protocol is deliberately line-based: every message is valid JSON on
one line, so ``socat``/``nc`` sessions and log captures stay readable.
Timelines never cross the wire — they live in the store; replies carry
only the record (spec, digests, counters, per-PE stats).  A record
served from the store or filed by a worker is an :class:`EncodedRecord`,
whose JSON is spliced into the reply line as it was encoded once (the
record file's line, or the worker's), not encoded again;
so is a client's ``JobSpec``, as the ``canonical()`` it keeps.
The server reads each request as its raw line (:func:`read_line`), so a
``submit`` line it already answered from the store is recognised by its
exact bytes instead of being decoded again.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import ReproError

#: maximum encoded message size (a 1k-VP record with per-PE stats is
#: ~200 KB; 64 MB leaves room without letting a client exhaust memory)
MAX_LINE = 1 << 26

OP_SUBMIT = "submit"
OP_SUBMIT_MANY = "submit_many"
OP_AWAIT = "await"
OP_STATUS = "status"
OP_STATS = "stats"
OP_HEALTH = "health"
OP_PING = "ping"
OP_DRAIN = "drain"
OP_SHUTDOWN = "shutdown"

OPS = (OP_SUBMIT, OP_SUBMIT_MANY, OP_AWAIT, OP_STATUS, OP_STATS,
       OP_HEALTH, OP_PING, OP_DRAIN, OP_SHUTDOWN)

#: terminator line of a ``submit_many`` reply stream
OP_SUBMIT_MANY_DONE = "submit_many_done"

#: ``cache`` values a submit/await reply can carry
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_COALESCED = "coalesced"
CACHE_INFLIGHT = "inflight"

#: structured-failure ``reason`` codes (load shedding and resolution)
REASON_BUSY = "busy"                    #: queue over watermark, shed
REASON_DRAINING = "draining"            #: server refusing new submits
REASON_DEADLINE = "deadline-exceeded"   #: client deadline passed
REASON_POISON = "poison-job"            #: job repeatedly killed workers
REASON_POOL_DEAD = "pool-dead"          #: no workers left to run it

REASONS = (REASON_BUSY, REASON_DRAINING, REASON_DEADLINE,
           REASON_POISON, REASON_POOL_DEAD)

#: ``reason`` codes that reject a submission *before* acceptance — the
#: job was never queued, nothing will resolve later, and an identical
#: retry (against this or another server) is always safe
RETRYABLE_REASONS = (REASON_BUSY, REASON_DRAINING)


class ProtocolError(ReproError):
    """Malformed frame or message on the serve protocol."""


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class EncodedRecord(dict):
    """A stored ``RunRecord.to_dict()`` that carries its own compact
    sorted-key JSON."""

    __slots__ = ("json",)

    def __init__(self, record: dict[str, Any], json_text: str | None = None):
        super().__init__(record)
        self.json = _compact(record) if json_text is None else json_text

    def canonical(self) -> str:
        return self.json


def _carried(value: Any) -> str | None:
    """``value``'s own JSON (its ``canonical()``, a list's from its items')."""
    canonical = getattr(value, "canonical", None)
    if canonical is not None:
        return canonical()
    if type(value) is list and any(hasattr(v, "canonical") for v in value):
        return "[" + ",".join(_carried(v) or _compact(v) for v in value) + "]"
    return None


def encode(msg: dict[str, Any]) -> bytes:
    """One message -> one JSON line (sorted keys, compact).  A value
    that carries its own JSON (a stored record, a ``JobSpec``) is spliced
    in as encoded once, byte-identical to its plain dict's encoding."""
    carried = {k: text for k, v in msg.items()
               if (text := _carried(v)) is not None}
    if not carried:
        return (_compact(msg) + "\n").encode()
    return ("{" + ",".join(
        f"{_compact(k)}:{carried[k] if k in carried else _compact(msg[k])}"
        for k in sorted(msg)) + "}\n").encode()


def decode(line: bytes) -> dict[str, Any]:
    try:
        msg = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as e:
        # ValueError covers non-UTF-8 garbage on some json versions; a
        # truncated or binary frame must be a protocol error, never an
        # unhandled exception in the connection task.
        raise ProtocolError(f"bad message: {e}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"message must be a JSON object, "
                            f"got {type(msg).__name__}")
    return msg


def error_reply(error: str, **extra: Any) -> dict[str, Any]:
    return {"ok": False, "error": error, **extra}


def shed_reply(reason: str, error: str, **extra: Any) -> dict[str, Any]:
    """A load-shedding rejection (``busy``/``draining``): the submit
    was *not* accepted and is safe to retry against another server."""
    return {"ok": False, "error": error, "reason": reason,
            "retryable": reason in RETRYABLE_REASONS, **extra}


async def read_line(reader: asyncio.StreamReader) -> bytes | None:
    """Read one message's line, undecoded; None on clean EOF."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise ProtocolError(f"message exceeds {MAX_LINE} bytes") from None
    return line or None


async def write_message(writer: asyncio.StreamWriter,
                        msg: dict[str, Any]) -> None:
    writer.write(encode(msg))
    await writer.drain()
