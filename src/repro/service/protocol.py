"""Wire protocol of the measurement service.

Transport: plain TCP with Nagle off (:func:`connect`) carrying
newline-delimited JSON — one strict-JSON object per line in each
direction.  The protocol is deliberately dumb (no pickle, no framing
beyond ``\\n``) so any language can implement a client and a captured
session is human-readable.

Session layout::

    client → server   {"op": "hello", "version": 6, "min_version": 6,
                       "fingerprint": "...", "space": {...}}   # space optional
    server → client   {"ok": true, "server": {...}, "session": "s1"}
                      # or error + "code" + close

    client → server   {"op": "ping"}
    server → client   {"ok": true, "state": "serving"}       # or "draining"

    client → server   {"op": "resume", "session": "s1"}
    server → client   {"ok": true, "session": "s1", "retained": [4, 5]}

    client → server   {"op": "evaluate_batch", "placements": ["0121…", ...],
                       "batch": 5}            # one char per op, see below
    server → client   {"ok": true, "tickets": [0, 1, 2, ...], "results":
                          [{"ticket": 1, "raw": {...}, "cached": true}]}
                      # the ack: every result known at submit time
    server → client   {"ok": true, "results": [{"ticket": 0, "error":
                          {"kind": "crash", "message": "..."}},
                          {"ticket": 2, "raw": {...}, "cached": false}]}
    ...               # one line per ready set, in *completion* order,
                      # until every ticket has appeared exactly once
                      # (replayed results carry "replayed": true)

    client → server   {"op": "stats"}
    server → client   {"ok": true, "stats": {...}}

    client → server   {"op": "spaces"}
    server → client   {"ok": true, "spaces": [{...}, ...]}    # per-tenant stats

    client → server   {"op": "shutdown"}
    server → client   {"ok": true}                           # then server exits

    peer → server     {"op": "migrate_space", "fingerprint": "...",
                       "target": "host:port"}                # push leg
    server → peer     {"ok": true, "pushed": true}
    peer → server     {"op": "migrate_space", "fingerprint": "...",
                       "space": {...}, "state": {...}}       # adopt leg
    server → peer     {"ok": true, "adopted": true}

Errors are ``{"ok": false, "error": "...", "kind": "..."}``; ``kind`` is
``"protocol"`` for handshake/request-shape violations (the client raises
them — misconfiguration must not be retried), ``"crash"`` for worker
failures (the client surfaces them as
:class:`~repro.sim.faults.EvaluationFault`, which the engine's
:class:`~repro.core.engine.EvaluationPolicy` retries/quarantines),
``"busy"`` when the admission queue is full (retryable backpressure),
``"deadline"`` when the server-side per-request deadline expired
(surfaced as a straggler fault), ``"draining"`` while the server finishes
in-flight work before exiting, and ``"session"`` for a ``resume`` against
an unknown/expired session id.

The handshake pins the *measurement space*: the client sends the
:func:`~repro.graph.fingerprint.placement_space_fingerprint` of its
graph + topology + cost model and the server refuses the connection unless
it hosts that space — a raw outcome is only meaningful to a client that
would have computed the identical one locally.  A multi-tenant
server hosts *many* spaces (see :mod:`repro.service.tenancy`): the
handshake resolves the fingerprint against the space registry, lazily
loading persisted specs, and may instead *adopt* a new space from the
serialized ``space`` spec the client offers.  Refusals carry a structured
``code`` alongside the human-readable ``error``:

``version_range``
    The client's ``[min_version, version]`` range does not contain
    :data:`PROTOCOL_VERSION`.
``unknown_fingerprint``
    The server does not host the space and no adoptable spec was offered.
``space_loading``
    Another connection is materialising the space right now — the one
    retryable refusal (a client may redial after a short pause).

Versioning: a server speaks exactly :data:`PROTOCOL_VERSION`.  The
client offers the range ``[min_version, version]`` it can speak; the
server accepts the handshake only if that range contains its version,
which it echoes in ``server["version"]``.  Every client of this build
offers ``[PROTOCOL_VERSION, PROTOCOL_VERSION]``.  History: v2 added
sessions and replay, v3 multi-tenancy, v4 made ``evaluate_batch`` the one
(batch-tagged) measurement op, v5 replaced its lists of ints with one
char per op, which the server decodes to a memo key without numpy, and v6
answers with one reply line per ready set instead of one per ticket.

Reply lines: the ``evaluate_batch`` ack carries every result already
known when the batch is submitted (memo hits and replays), so an all-hit
batch is answered in one line.  Each later line carries the results that
landed since the previous one, so a slow placement does not hold up the
others.  Tickets still open at the server's request deadline go out as one
final line of ``deadline`` errors.

Sessions and replay: every handshake creates a server-side *session*
(id in the hello reply).  The server retains the results of recently
completed ``evaluate_batch`` calls per session, keyed by the
client-monotonic ``batch`` id that every ``evaluate_batch`` carries.  A
client that loses its connection mid-batch reconnects, re-attaches with
``resume``, and re-sends the same ``batch`` — the server replays
retained ticket results (and attaches to still-running simulations)
instead of re-simulating, making evaluation at-most-once across
connection failures.

Placements: each entry of ``placements`` is a string with one char per
op, ``chr(0x30 + device)`` (:func:`encode_placement`).  Devices 0–79 are
ASCII chars, one byte each on the wire (JSON escapes device 44, ``\\``,
and 79, DEL, but they stay exact).  Larger devices are ``\\u``-escaped and
stay exact too; their code points skip the UTF-16 surrogate block.  The
server turns a string straight into its memo key
(:func:`decode_placement`), so a memo hit never builds an array.  A
string of the wrong length, a non-string or a char below ``'0'`` is
refused with ``kind: "protocol"``.  The length of a placement string is
its graph's op count.

Only *raw* outcomes cross the wire (:class:`~repro.sim.environment.RawOutcome`:
the noiseless makespan or the OOM detail).  Measurement noise and the
environment-clock charge are applied client-side via
``PlacementEnvironment.commit`` — that keeps each searcher's RNG stream and
clock private, which is what makes a remote run bit-for-bit identical to a
local :class:`~repro.sim.backends.SerialBackend` run on the same seed.
"""

from __future__ import annotations

import json
import socket
from typing import IO, Any, Dict, Optional, Tuple

from ..sim.backends import _key_placement, _placement_key
from ..sim.environment import RawOutcome

__all__ = [
    "PROTOCOL_VERSION",
    "MESSAGE_SCHEMA",
    "ADMIN_SCHEMA",
    "NESTED_FIELDS",
    "HANDSHAKE_CODES",
    "ProtocolError",
    "HandshakeError",
    "parse_address",
    "connect",
    "round_trip",
    "read_message",
    "write_message",
    "encode_raw",
    "decode_raw",
    "MAX_DEVICE",
    "encode_placement",
    "decode_placement",
    "error_message",
]

#: Bumped on any incompatible change to the message shapes above.  v2 adds
#: sessions (``ping``/``resume``), batch-result retention/replay, and the
#: backpressure/drain error kinds.  v3 adds multi-tenancy: the ``space``
#: spec offer in ``hello``, structured handshake rejection ``code``s, and
#: the ``spaces`` op.  v4 removes the scalar ``evaluate`` op and makes the
#: ``batch`` id of ``evaluate_batch`` mandatory.  v5 sends each placement
#: as a string of one char per op instead of a list of ints.  v6 answers
#: ``evaluate_batch`` with one line per ready set of results (a ``results``
#: list) instead of one line per ticket.
PROTOCOL_VERSION = 6

#: Cap on one serialised message (a placement line for a ~100k-op graph is
#: well under this); keeps a garbage peer from ballooning server memory.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

#: The authoritative field table per op: which top-level keys may appear
#: in a request line and in its response line(s).  This is *data*, not
#: code — client and server constructors/readers are cross-checked
#: against it by the ``protocol-schema`` lint rule (which AST-extracts
#: this literal; keep it a plain literal), so adding a field here is the
#: one required step when the wire format grows.
MESSAGE_SCHEMA = {
    "hello": {
        "request": ("op", "version", "min_version", "fingerprint", "space"),
        "response": ("ok", "server", "session", "error", "kind", "code"),
    },
    "ping": {
        "request": ("op",),
        "response": ("ok", "state", "error", "kind"),
    },
    "resume": {
        "request": ("op", "session"),
        "response": ("ok", "session", "retained", "error", "kind"),
    },
    "evaluate_batch": {
        "request": ("op", "placements", "batch"),
        "response": ("ok", "tickets", "results", "error", "kind"),
    },
    "stats": {
        "request": ("op",),
        "response": ("ok", "stats", "error", "kind"),
    },
    "spaces": {
        "request": ("op",),
        "response": ("ok", "spaces", "error", "kind"),
    },
    "shutdown": {
        "request": ("op",),
        "response": ("ok", "error", "kind"),
    },
    "migrate_space": {
        "request": ("op", "fingerprint", "target", "space", "state"),
        "response": ("ok", "adopted", "pushed", "error", "kind"),
    },
}

#: Field table for the *router's* admin plane (v3 live resize).  Admin
#: connections open with one of these ops instead of ``hello`` and stay
#: in a request/response loop on the same socket; they are answered by
#: the router itself, never proxied.  Like :data:`MESSAGE_SCHEMA` this
#: must stay a plain literal — the ``protocol-dispatch`` rule
#: AST-extracts it and cross-checks the router's admin handler table.
ADMIN_SCHEMA = {
    "stats": {
        "request": ("op",),
        "response": ("ok", "stats", "error", "kind"),
    },
    "join": {
        "request": ("op", "backend"),
        "response": ("ok", "backends", "migrations", "error", "kind"),
    },
    "leave": {
        "request": ("op", "backend"),
        "response": ("ok", "backends", "migrations", "error", "kind"),
    },
    "membership": {
        "request": ("op",),
        "response": ("ok", "backends", "states", "error", "kind"),
    },
    "migrate": {
        "request": ("op", "fingerprint", "target"),
        "response": ("ok", "migrated", "error", "kind"),
    },
}

#: Keys that appear only *inside* nested payload objects (the ``server``
#: info dict, the ``evaluate_batch`` result items and their ``error``
#: details) — legal in ``.get()`` reads but never as top-level message
#: fields of their own.
NESTED_FIELDS = {
    "message", "kind", "version", "graph", "num_ops", "num_devices", "workers",
    "ticket", "raw", "cached", "replayed",
}

#: The structured rejection codes a refused ``hello`` may carry.
HANDSHAKE_CODES = ("version_range", "unknown_fingerprint", "space_loading")


class ProtocolError(RuntimeError):
    """The peer spoke something that is not this protocol."""


class HandshakeError(ProtocolError):
    """The server refused the session (version or fingerprint mismatch).

    Deliberately *not* an :class:`~repro.sim.faults.EvaluationFault`: a
    mismatched client is misconfigured, and retrying would never succeed
    (``space_loading`` is the one transient code, but redialling is a
    caller decision, not backend policy).  ``code`` carries the server's
    structured rejection code verbatim — one of :data:`HANDSHAKE_CODES`,
    or ``None`` when the refusal carried none.
    """

    def __init__(self, text: str, code: Optional[str] = None) -> None:
        super().__init__(text)
        self.code = code


def write_message(wfile: IO[bytes], message: Dict[str, Any]) -> None:
    """Serialise one message as a strict-JSON line and flush it."""
    data = json.dumps(message, separators=(",", ":"), allow_nan=False).encode("utf-8")
    wfile.write(data + b"\n")
    wfile.flush()


def read_message(rfile: IO[bytes]) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on clean EOF; :class:`ProtocolError` on junk."""
    line = rfile.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
    return message


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` as ``(host, port)``; :class:`ValueError` otherwise."""
    host, sep, port = address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"address must be 'host:port', got {address!r}")
    return host, int(port)


def connect(address: str, timeout: float) -> socket.socket:
    """Dial ``address``: the one way the service opens a socket.

    Nagle is off.  A reply may stream as several small lines (an
    ``evaluate_batch`` ack, then one line per ready set), and with Nagle
    on every line after the first waits for the peer's delayed ACK — a
    ~40 ms floor under each round trip.
    ``timeout`` bounds the connect and every later socket operation.
    """
    sock = socket.create_connection(parse_address(address), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def round_trip(address: str, message: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """One request and its one reply on a fresh connection (health pings,
    router admin ops, migration legs)."""
    with connect(address, timeout) as sock:
        with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
            write_message(wfile, message)
            reply = read_message(rfile)
    if reply is None:
        raise ProtocolError(f"{address} closed the connection mid-request")
    return reply


def encode_raw(raw: RawOutcome) -> Dict[str, Any]:
    """A :class:`RawOutcome` as plain JSON (the breakdown never ships)."""
    oom = None
    if raw.oom_detail is not None:
        oom = [[int(d), float(a), float(b)] for d, (a, b) in raw.oom_detail.items()]
    return {"base_time": raw.base_time, "oom_detail": oom}


def decode_raw(data: Dict[str, Any]) -> RawOutcome:
    """Rebuild a :class:`RawOutcome` encoded by :func:`encode_raw`."""
    try:
        base_time = data["base_time"]
        oom = data["oom_detail"]
    except (TypeError, KeyError) as exc:
        raise ProtocolError(f"malformed raw outcome: missing {exc}") from None
    oom_detail = None
    if oom is not None:
        oom_detail = {int(d): (float(a), float(b)) for d, a, b in oom}
    if base_time is not None:
        base_time = float(base_time)
    return RawOutcome(base_time, oom_detail)


#: Devices 0–79 travel as the ASCII bytes ``'0'``–``'\x7f'``: a key's body
#: byte ``b`` becomes ``b + 0x30``.  A byte of 80 or more maps to ``0xff``,
#: which is not ASCII, so decoding the result fails and sends the placement
#: down the exact wide path.
_UP = bytes(b + 0x30 if b < 80 else 0xFF for b in range(256))
#: The inverse on the server: an ASCII char ``c >= '0'`` is device ``c - 0x30``.
_DOWN = bytes((b - 0x30) & 0xFF for b in range(256))
#: Chars below ``'0'`` carry no device.
_BELOW_ZERO = bytes(range(0x30))
#: Above the ASCII range a device is the code point ``d + 0x30``, shifted
#: past the UTF-16 surrogate block (a lone surrogate does not survive JSON:
#: two adjacent ones come back as one char).
_SURROGATES, _SURROGATE_SPAN = 0xD800, 0x800
#: The largest device a placement string can carry.
MAX_DEVICE = 0x10FFFF - 0x30 - _SURROGATE_SPAN


def _device_char(device: int) -> str:
    if not 0 <= device <= MAX_DEVICE:
        raise ValueError(
            f"device {device} cannot travel in a placement string "
            f"(devices must be in [0, {MAX_DEVICE}])"
        )
    point = device + 0x30
    return chr(point if point < _SURROGATES else point + _SURROGATE_SPAN)


def _char_device(char: str) -> int:
    point = ord(char)
    if point >= _SURROGATES + _SURROGATE_SPAN:
        return point - 0x30 - _SURROGATE_SPAN
    if point >= _SURROGATES:
        raise ProtocolError(f"placement char U+{point:04X} carries no device")
    return point - 0x30


def encode_placement(key: bytes) -> str:
    """The wire string of a placement, from its memo key
    (:func:`~repro.sim.backends._placement_key`): one char per op.

    Devices 0–79 are one ASCII byte each, so the common placement costs
    one ``bytes.translate``.  Larger devices take an exact slow path.  A
    negative device, or one above :data:`MAX_DEVICE`, raises
    :class:`ValueError`: no char carries it.
    """
    if key[:1] == b"\x00":
        try:
            return key[1:].translate(_UP).decode("ascii")
        except UnicodeDecodeError:
            pass
    return "".join(map(_device_char, _key_placement(key).tolist()))


def decode_placement(text: Any, num_ops: int) -> bytes:
    """The memo key of a wire placement string (see :func:`encode_placement`).

    Returns exactly ``_placement_key`` of the placement the client sent,
    without numpy on the ASCII path.  Anything but a string of ``num_ops``
    chars, each at least ``'0'``, is a :class:`ProtocolError`.  Device
    ranges are not checked here: an out-of-range device reaches the
    simulator, which raises.
    """
    if not isinstance(text, str):
        raise ProtocolError(
            f"placement must be a string, got {type(text).__name__}"
        )
    try:
        body = text.encode("ascii").translate(_DOWN, _BELOW_ZERO)
    except UnicodeEncodeError:
        devices = [_char_device(char) for char in text]
        if len(devices) == num_ops and min(devices, default=0) >= 0:
            return _placement_key(devices)
    else:
        if len(body) == num_ops == len(text):
            return b"\x00" + body
    raise ProtocolError(
        f"placement must be {num_ops} chars, each at least '0', "
        f"got {len(text)} chars"
    )


def error_message(message: str, kind: str = "protocol") -> Dict[str, Any]:
    """A ``{"ok": false}`` response line."""
    return {"ok": False, "error": message, "kind": kind}
