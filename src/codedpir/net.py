"""
TCP transport for the retrieval protocol, wire format v5.

Frame: a 1-byte tag, then the u32 big-endian payload length, then the
payload.  The tag names the version and the message type at once: 5 in
its high nibble, the type in its low one, so 0x51 is a QUERY, 0x52 an
ANSWER and 0x53 an ERROR.  A frame whose first byte is no tag gets no
reply and a closed connection, and a client reading one raises
BadMagicError.  Every v1-v4 frame began with its magic's "P" (0x50), so
its first byte alone refuses it.

QUERY: the system tag, the big-endian CRC-32 of (N, K, M, p) as four
big-endian u32s, then the M shifts of a query of scheme.SHIFTS: column
j is the base column (0, 1, ..., k-1) shifted by shift j mod n.  A
server compares the tag with its own before anything else and answers a
mismatch with ERR_PARAM_MISMATCH.  The tag is safe as a check: CRC-32
detects every error burst of 32 bits or fewer, so two systems that
differ in one of the four fields always get different tags; systems
that differ in two or more collide with chance 2^-32, and even then the
server reads the body at its own M and n and never answers a query that
is malformed for its own system.  Parameters are sent in every QUERY,
not once per connection, so every byte count is exact per retrieval.

A shift takes the narrowest of 4, 8 or 16 bits that holds n-1, so
(5,3,3) sends 2 bytes of shifts and (8,5,256) 128.  Nibbles go two to a
byte, high first, an odd count padded with a zero nibble (a server
rejects any other pad, so a query has one encoding); u16s big-endian.
The client draws the master as M shifts; server t's are the master's
with the desired one raised by t mod n, and its live rounds are the OR
of its shifts' low rows (scheme.low_masks), found and packed in Python
past the draw: the shifts are packed once, and only the desired one's
bytes differ between servers.  A server reads M shifts at n's width,
never a layout the peer names, and rejects a shift not below n.  It
expands the shifts through the family table (scheme.family_table): a
query of more than scheme.SMALL_QUERY_ENTRIES entries reaches
scheme.server_answer as a C-contiguous (k, M) scheme.ShiftQuery, u8
for n <= 256; a smaller one as scheme.ShiftRows, row lists of Python
ints built without numpy, as its loop answers them faster than numpy
would.  Their columns are shifted base columns by construction, so the
shift check is the only one a query gets, and server_answer answers it
unchecked.

ANSWER: one head byte, then the live values only, big-endian, in round
order.  The head byte's low 3 bits hold the width w, the fewest of 1, 2
or 4 bytes that hold the largest live value (1 when no round is live);
its high 5 bits hold the answer's sequence, the number of QUERY frames
the server had read on the connection before the one answered, mod 32.
There is no round count and no flag: the client derives each server's
live rounds from the query it sent and places the values of all N
answers in the (N, k) array, 0 in NULL rounds, that scheme.decode
takes.  A width outside {1, 2, 4} or wider than p-1 needs, or a value
not below p, is a WireError; a sequence other than the count of queries
the client sent on the connection before this one a StaleAnswerError,
checked before the length; a length other than 1 + live*w an
AnswerLengthError.  The widths and the sequence are functions of what
the server sees, n, its own answer values and the connection's own
frames, so none tells it anything about the desired file.

ERROR: a u16 code plus UTF-8 detail.  All k rounds ride in one ANSWER:
the scheme has no inter-round dependency, so a retrieval is a single
round trip per server.  Each side bounds the payload it reads by the
size the system's parameters imply before reading it: 4 + ceil(M *
bits / 8) bytes for a QUERY, 1 + w_p * k for an ANSWER, where w_p is
the width of p-1, and MAX_ERROR_PAYLOAD for an ERROR.

Connections persist.  A server answers every QUERY on a connection
until the client closes it, the connection stays idle for
IDLE_TIMEOUT_S seconds, a frame is not complete IDLE_TIMEOUT_S after
its first read, or the server is shut down.  One thread serves every
server started in a process: a selectors loop over their non-blocking
listeners and connections, each connection holding the bytes of a
frame it has begun and its deadline, so an idle or trickling peer costs
a descriptor, not a thread, and stalls no other.  The loop answers and
sends a QUERY before it reads the connection's next frame; a send that
would block closes that connection.  A server keeps at most
MAX_SERVER_CONNECTIONS open: a new one beyond them closes the longest
idle, never one in the middle of a frame.  An accept that finds the
process out of descriptors (EMFILE, ENFILE) closes the longest idle
too; with none idle the loop stops watching that listener until one of
its connections closes, or for ACCEPT_RETRY_S.  Which one goes depends
on timing alone, never on a query.  A frame is read whole: the first read
asks for the header and the longest payload the reader accepts, which
for a server is exactly one QUERY frame, so pipelined queries lose no
byte; only a frame split across reads takes more.  Bytes beyond the
frame in the first read are a WireError: the server replies
ERR_MALFORMED_QUERY and closes the connection, the client aborts the
retrieval and does not pool the socket.

Client sockets are blocking, with kernel timeouts (SO_RCVTIMEO,
SO_SNDTIMEO) set once per connection, so each send and each read is one
system call: a Python timeout would add a poll to each, and setting it
a call of its own; the reads of a split frame wait only for the frame's
time left.  The client pools idle sockets a retrieval's set at a time,
keyed by the N addresses and the timeout they are armed with, each
socket beside the count of queries sent on it, at most
MAX_IDLE_CONNECTIONS sockets in all.  A retrieval takes its set in one
call, sends its N queries, each on its own connection, reads the N
answers in turn, in one thread, and puts the set back in one call.  A
socket goes back to the pool only after the client has accepted its
ANSWER; on any error, timeout, stale or rejected answer it is closed,
so a late answer cannot desync a later retrieval, and a late duplicate
that arrives after a good answer is caught by its sequence.  A pooled
socket that turns out dead, closed at its server's idle timeout or cap,
is replaced once by a new connection, which resends the identical query
frame: a second copy of a query tells the server nothing new, whereas a
fresh query for the same file would.

Download accounting reports element counts (the scheme's cost metric)
and payload byte counts separately.
"""

from __future__ import annotations

import binascii
import contextlib
import errno
import functools
import logging
import math
import selectors
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import scheme
from .rs import make_code
from .scheme import ProtocolError, ServerStorage, SystemParams

logger = logging.getLogger(__name__)

VERSION = 5
MSG_QUERY = 1
MSG_ANSWER = 2
MSG_ERROR = 3

ERR_PARAM_MISMATCH = 1
ERR_MALFORMED_QUERY = 2
ERR_INTERNAL = 3

# Idle client sockets kept for reuse, over all servers; the longest idle
# is closed first.  A retrieval holds N of them, so this serves several
# clients of up to a dozen servers each.
MAX_IDLE_CONNECTIONS = 64

# Seconds a server waits for the next frame on a connection, and the
# longest a frame may take from its first read, before it closes the
# connection, so a silent or trickling client does not hold a slot.
IDLE_TIMEOUT_S = 60.0

# Connections a server keeps open at once.  A connection accepted beyond
# them closes the longest idle one, never one in the middle of a frame
# (the frame's deadline bounds that state), so a flood of connections
# holds no more descriptors and idle peers cannot lock a client out.
MAX_SERVER_CONNECTIONS = 256

# Seconds a listener goes unwatched when an accept finds the process out
# of descriptors and its server has no idle connection to close, unless
# a connection of the serving loop closes first.
ACCEPT_RETRY_S = 1.0

# Longest ERROR payload a client reads; a server cuts its detail to fit.
MAX_ERROR_PAYLOAD = 1024

_HEADER = struct.Struct(">BI")
# A frame tag, the version in its high nibble and the type in its low,
# to the message type.
_FRAME_TYPES = {VERSION << 4 | t: t for t in (MSG_QUERY, MSG_ANSWER, MSG_ERROR)}
# struct timeval (seconds, microseconds), the argument of SO_RCVTIMEO and
# SO_SNDTIMEO; seconds beyond _MAX_TIMEVAL_S are cut to it.
_TIMEVAL = struct.Struct("@ll")
_MAX_TIMEVAL_S = 2**31 - 1
_SYSTEM = struct.Struct(">IIII")
_SYSTEM_TAG = struct.Struct(">I")
# An ANSWER's sequence counts QUERY frames mod 32, in the 5 bits of its
# head byte above the 3 of the width.
_SEQUENCES = 32
# struct code of an answer value of each width, in bytes
_VALUE_CODES = {1: "B", 2: "H", 4: "I"}
# Each hex digit's ASCII code to its value, and back: a query's nibbles
# are the hex digits of its bytes.
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_HEX_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


class WireError(ProtocolError):
    """Malformed frame or payload."""


class BadMagicError(WireError):
    """Frame does not start with a v5 frame tag."""


class HeaderMismatchError(WireError):
    """A QUERY's system tag is not that of the server's (N, K, M, p)."""


class StaleAnswerError(WireError):
    """An ANSWER's sequence is not that of the query last sent on its
    connection: it answers an earlier one."""


class AnswerLengthError(WireError):
    """An ANSWER does not hold exactly one value per live round."""


class ServerSideError(RuntimeError):
    """The server replied with an ERROR message."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"server error {code}: {detail}")
        self.code = code
        self.detail = detail


class RetrievalAbortedError(RuntimeError):
    """A server was unreachable or returned an error; no partial decode."""

    def __init__(self, server_index: int, cause: Exception):
        super().__init__(f"server {server_index} failed: {cause}")
        self.server_index = server_index
        self.cause = cause


# ---------------------------------------------------------------------------
# framing


def _timeval(seconds: float) -> bytes:
    """A struct timeval of `seconds`, rounded up to whole microseconds
    and at least one: a timeval of 0 would mean no timeout at all."""
    micros = max(1, math.ceil(min(seconds, _MAX_TIMEVAL_S) * 1e6))
    return _TIMEVAL.pack(*divmod(micros, 1_000_000))


def _kernel_timeouts(sock: socket.socket, seconds: float) -> None:
    """Make `sock` blocking, its reads and writes each bounded by
    `seconds` in the kernel (SO_RCVTIMEO, SO_SNDTIMEO).  A blocking
    socket sends and receives in one system call, where a socket with a
    Python timeout polls before each."""
    sock.settimeout(None)
    timeval = _timeval(seconds)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _read(sock: socket.socket, size: int) -> bytearray:
    """What one read of at most `size` bytes brings; ConnectionError at
    the end of the stream."""
    chunk = bytearray(size)
    count = sock.recv_into(chunk)
    if not count:
        raise ConnectionError("connection closed mid-frame")
    del chunk[count:]
    return chunk


def _read_rest(sock: socket.socket, frame: bytearray, end: int, deadline: float | None) -> None:
    """Append to `frame` from `sock` until it holds `end` bytes.  With a
    deadline, on the time.monotonic clock, each read's kernel timeout is
    the time left."""
    while len(frame) < end:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame not complete by its deadline")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(left))
        frame += _read(sock, end - len(frame))


def send_message(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    try:
        sock.sendall(_HEADER.pack(VERSION << 4 | msg_type, len(payload)) + payload)
    except BlockingIOError as exc:  # a kernel timeout expired, or a non-blocking send is full
        raise TimeoutError("send timed out") from exc


def recv_message(
    sock: socket.socket,
    limits: dict[int, int],
    timeout: float | None = None,
    pending: bytearray | None = None,
) -> tuple[int, bytearray]:
    """Read one frame.

    `limits` maps message type to the longest payload accepted (0 for a
    type not listed): a longer frame raises WireError before its payload
    is read.  The first read asks for the header and the longest payload
    at once, so a whole frame costs one system call; bytes past the
    frame's end in that read are a WireError too.  With `timeout`, the
    socket's kernel receive timeout in seconds, a frame that the first
    read does not complete must be complete `timeout` after it: the
    reads that complete it wait only for the time left, and the socket's
    timeout is restored after them.  An expired kernel timeout raises
    TimeoutError.

    With `pending`, the socket is non-blocking and `pending` holds the
    bytes of a frame begun by earlier calls (none before a frame's first
    read): a call reads what has arrived, and while the frame is not
    complete it leaves the frame's bytes in `pending` and raises
    BlockingIOError; a complete frame empties `pending`.
    """
    frame = pending
    deadline = None
    try:
        if not frame:
            frame = _read(sock, _HEADER.size + max(limits.values()))
        if len(frame) < _HEADER.size:
            if timeout is not None:
                deadline = time.monotonic() + timeout
            _read_rest(sock, frame, _HEADER.size, deadline)
        tag, length = _HEADER.unpack_from(frame)
        msg_type = _FRAME_TYPES.get(tag)
        if msg_type is None:
            raise BadMagicError(f"0x{tag:02x} is no v5 frame tag")
        if length > limits.get(msg_type, 0):
            raise WireError(f"{length}-byte payload too long for message type {msg_type}")
        end = _HEADER.size + length
        if len(frame) > end:
            raise WireError("bytes beyond the frame")
        if len(frame) < end:
            if timeout is not None and deadline is None:
                deadline = time.monotonic() + timeout
            _read_rest(sock, frame, end, deadline)
    except BlockingIOError as exc:
        if pending is None:  # a kernel timeout (SO_RCVTIMEO) expired
            raise TimeoutError("receive timed out") from exc
        if frame and frame is not pending:
            pending += frame
        raise
    finally:
        if deadline is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(timeout))
    payload = frame[_HEADER.size : end]
    if pending:
        pending.clear()
    return msg_type, payload


# ---------------------------------------------------------------------------
# payloads


def _shift_bits(n: int) -> int:
    """Bits of a shift of [0:n) on the wire: the narrowest of 4, 8 or 16
    that holds n-1."""
    return 4 if n <= 16 else 8 if n <= 256 else 16


def _value_width(value: int) -> int:
    """Bytes of an answer value on the wire: the fewest of 1, 2 or 4
    that hold it."""
    if value < 1 << 8:
        return 1
    if value < 1 << 16:
        return 2
    if value < 1 << 32:
        return 4
    raise WireError(f"answer value {value} does not fit the wire's u32")


def _query_head(params: SystemParams) -> bytes:
    """The system tag that heads a QUERY payload: the CRC-32 of
    (N, K, M, p) as four big-endian u32s, itself a big-endian u32.
    (Not memoized: hashing the params for a cache lookup costs more
    than the CRC of 16 bytes.)"""
    system = _SYSTEM.pack(params.n_servers, params.k_mds, params.m_files, params.prime)
    return _SYSTEM_TAG.pack(zlib.crc32(system))


def _pack_shifts(shifts: list[int], bits: int) -> bytes:
    """The wire bytes of shifts that fit `bits`: nibbles by C string
    calls, each shift as its hex digit, the digits read back two to a
    byte."""
    if bits == 16:
        return struct.pack(f">{len(shifts)}H", *shifts)
    if bits == 8:
        return bytes(shifts)
    digits = bytes(shifts).translate(_HEX_DIGITS) + b"0" * (len(shifts) % 2)
    return binascii.a2b_hex(digits)


def encode_query_payload(params: SystemParams, query) -> bytes:
    """QUERY payload of a k x M query, row lists or an integer array,
    whose columns are shifts of the base column (scheme.SHIFTS): the
    bytes client_retrieve sends.  WireError for any other query."""
    n, k, m = params.n_reduced, params.k_reduced, params.m_files
    entries = np.asarray(query)
    if entries.dtype.kind not in "iu" or entries.shape != (k, m):
        raise WireError(f"query must be {k} x {m} integers")
    shifts = entries[0].astype(np.int64)
    # Row 0 equals itself mod n only where each shift lies in [0:n).
    if not np.array_equal((shifts + np.arange(k)[:, None]) % n, entries):
        raise WireError("query columns are not shifts of the base column")
    return _query_head(params) + _pack_shifts(shifts.tolist(), _shift_bits(n))


def decode_query_payload(payload: bytes, params: SystemParams):
    """The query of a QUERY payload sent to a server of `params`.

    The system tag must be params' own (HeaderMismatchError otherwise);
    the shifts are then read at n's width and must fill the payload
    exactly, with a zero pad nibble, and each must be below n (WireError
    otherwise).  A query of more than SMALL_QUERY_ENTRIES entries comes
    back as a C-contiguous (k, M) scheme.ShiftQuery, u8 for n <= 256
    and u16 above, a smaller one as scheme.ShiftRows, k row lists of
    Python ints: their columns are shifted base columns, which
    scheme.server_answer trusts.
    """
    if len(payload) < _SYSTEM_TAG.size:
        raise WireError("query payload too short")
    if payload[: _SYSTEM_TAG.size] != _query_head(params):
        system = (params.n_servers, params.k_mds, params.m_files, params.prime)
        raise HeaderMismatchError(
            f"query system tag {payload[:_SYSTEM_TAG.size].hex()} is not that of"
            f" this server's (N, K, M, p) = {system}"
        )
    n, k, m = params.n_reduced, params.k_reduced, params.m_files
    bits = _shift_bits(n)
    body = payload[_SYSTEM_TAG.size :]
    size = -(-m * bits // 8)
    if len(body) != size:
        raise WireError(f"expected {m} {bits}-bit shifts in {size} bytes")
    if bits == 4:
        if m % 2 and body[-1] & 0x0F:
            raise WireError("query pad nibble is not zero")
        # one byte per nibble, by C string calls, less the pad
        body = binascii.b2a_hex(body).translate(_HEX_VALUES)[:m]
    columns, table, _ = _shift_lists(n, k)
    try:
        if k * m > scheme.SMALL_QUERY_ENTRIES:
            shifts = np.frombuffer(body, ">u2" if bits == 16 else np.uint8)
            return table.take(shifts, axis=1).view(scheme.ShiftQuery)
        # No numpy: each call costs more than the work of a small query
        # in a server whose caches have cooled.
        shifts = struct.unpack(f">{m}H", body) if bits == 16 else body
        return scheme.ShiftRows(map(list, zip(*map(columns.__getitem__, shifts))))
    except IndexError:
        raise WireError(f"shift {max(shifts)} out of [0:{n})") from None


@functools.lru_cache(maxsize=16)
def _shift_lists(n: int, k: int):
    """The shift family's table as the codecs use it: each shift's column
    as a tuple of Python ints, the columns of a read-only (k, n) array,
    and each shift's low-row mask as a Python int."""
    table = scheme.family_table(n, k, scheme.SHIFTS)
    rows = np.ascontiguousarray(table.T)
    rows.flags.writeable = False
    return tuple(map(tuple, table.tolist())), rows, tuple(scheme.low_masks(table, n).tolist())


@functools.lru_cache(maxsize=64)
def _answer_layout(count: int, width: int) -> struct.Struct:
    """An ANSWER payload of `count` values of `width` bytes.  (Compiled
    once: building the format on every call doubled the codec's cost
    in a server whose caches had cooled.)"""
    return struct.Struct(f">B{count}{_VALUE_CODES[width]}")


def encode_answer_payload(answer: list[int | None], sequence: int = 0) -> bytes:
    """ANSWER payload of k round answers, None in NULL rounds: the head
    byte, `sequence` (in [0:32)) above the width, then the live values
    at that width."""
    values = []
    top = 0
    for value in answer:
        if value is not None:
            values.append(value)
            if value > top:
                top = value
    width = _value_width(top)
    try:
        return _answer_layout(len(values), width).pack(sequence << 3 | width, *values)
    except struct.error as exc:
        raise WireError(f"answer values must be integers in [0:2^32): {exc}") from exc


def decode_answer_payload(
    payload: bytes, count: int, prime: int, sequence: int = 0
) -> tuple[int, ...]:
    """The live values of an ANSWER payload, in round order, given the
    count of live rounds of the query it answers, p, and the sequence
    due: the count of queries sent on the connection before that one,
    mod 32.

    Raises WireError for an empty payload, a width outside {1, 2, 4} or
    wider than p-1 needs, or a value not below p; StaleAnswerError for
    another sequence; and AnswerLengthError unless the payload holds
    exactly `count` values.
    """
    if not payload:
        raise WireError("answer payload empty")
    width = payload[0] & 7
    if width not in _VALUE_CODES or width > _value_width(prime - 1):
        raise WireError(f"answer value width {width} is not allowed for p={prime}")
    if payload[0] >> 3 != sequence:
        raise StaleAnswerError(f"answer sequence {payload[0] >> 3} where {sequence} was due")
    if len(payload) != 1 + count * width:
        raise AnswerLengthError(
            f"{len(payload) - 1} value bytes of width {width}, the query has {count} live rounds"
        )
    values = _answer_layout(count, width).unpack(payload)[1:]  # after the width
    if values and max(values) >= prime:
        raise WireError(f"answer value out of [0:{prime})")
    return values


def encode_error_payload(code: int, detail: str) -> bytes:
    return (struct.pack(">H", code) + detail.encode("utf-8"))[:MAX_ERROR_PAYLOAD]


def decode_error_payload(payload: bytes) -> tuple[int, str]:
    if len(payload) < 2:
        raise WireError("error payload too short")
    (code,) = struct.unpack_from(">H", payload)
    return code, payload[2:].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# server


def _hang_up(sock) -> None:
    """Close a connection, its end of stream sent first: a peer whose
    unread bytes make the close a reset still reads what came before."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_WR)
    sock.close()


class _Connection:
    """An accepted connection as the serving loop keeps it: the socket
    get_request returned, its server, the bytes of a frame begun, the
    QUERY frames read on it, and its deadline on the time.monotonic
    clock: IDLE_TIMEOUT_S after its last answer (or its accept) while it
    is idle, after the first read of its frame while one is begun."""

    __slots__ = ("sock", "server", "pending", "queries", "deadline")

    def __init__(self, sock, server: "StorageServer"):
        self.sock = sock
        self.server: StorageServer | None = server  # None once closed
        self.pending = bytearray()
        self.queries = 0


class _Loop:
    """The one thread that serves every started StorageServer of the
    process: a selectors loop over their listeners, their connections
    and a wake-up socket pair.  It runs from the first `start` until the
    last of its servers is shut down.  `servers` maps each server to its
    open connections; its keys change under _loop_lock, its connection
    sets only on the loop thread."""

    def __init__(self):
        self.selector = selectors.DefaultSelector()
        self._woken, self._wake = socket.socketpair()
        self._woken.setblocking(False)
        self.selector.register(self._woken, selectors.EVENT_READ)
        self.servers: dict[StorageServer, set[_Connection]] = {}
        self._stopping: list[tuple[StorageServer, threading.Event]] = []
        self._paused: list[StorageServer] = []  # listeners not watched
        self._next_check = math.inf  # no deadline falls before it
        self.thread = threading.Thread(target=self._run, name="codedpir-serve", daemon=True)

    def add(self, server: "StorageServer") -> None:
        """Serve `server` (under _loop_lock): the selector takes its
        listener at once, from any thread."""
        self.servers[server] = set()
        self.selector.register(server.socket, selectors.EVENT_READ, server)

    def remove(self, server: "StorageServer") -> None:
        """Stop serving `server` and close its connections; returns once
        the loop has done so."""
        done = threading.Event()
        # Woken under the lock: once the loop has taken this request it
        # may end and close the wake-up pair.
        with _loop_lock:
            self._stopping.append((server, done))
            self._wake.send(b"\0")
        done.wait()

    def _run(self) -> None:
        try:
            while True:
                left = self._next_check - time.monotonic()
                events = self.selector.select(None if left == math.inf else max(left, 0))
                for key, _ in events:
                    target = key.data
                    try:
                        if type(target) is _Connection:
                            if target.server is not None:  # not closed in this batch
                                self._serve(target)
                        elif target is None:
                            if self._stop_servers():
                                return
                        elif target in self.servers:  # not stopped in this batch
                            self._accept(target)
                    except Exception:  # keep serving the other connections
                        logger.exception("internal error in the serving loop")
                        if type(target) is _Connection and target.server is not None:
                            self._close(target)
                if time.monotonic() >= self._next_check:
                    self._expire()
        finally:
            self.selector.close()
            self._woken.close()
            self._wake.close()

    def _watch(self, conn: _Connection, start: float) -> None:
        """Give `conn` the deadline IDLE_TIMEOUT_S after `start`."""
        conn.deadline = start + IDLE_TIMEOUT_S
        if conn.deadline < self._next_check:
            self._next_check = conn.deadline

    def _close_idle(self, server: "StorageServer") -> bool:
        """Close the server's longest idle connection, never one in the
        middle of a frame; False if none is idle."""
        idle = [conn for conn in self.servers[server] if not conn.pending]
        if idle:
            self._close(min(idle, key=lambda conn: conn.deadline))
        return bool(idle)

    def _resume(self) -> None:
        """Watch the listeners paused out of descriptors again."""
        while self._paused:
            server = self._paused.pop()
            self.selector.register(server.socket, selectors.EVENT_READ, server)

    def _accept(self, server: "StorageServer") -> None:
        try:
            sock, _ = server.get_request()
        except OSError as exc:
            # Out of descriptors the listener stays readable: free one, or
            # stop watching it, so that the loop does not spin.
            if exc.errno in (errno.EMFILE, errno.ENFILE) and not self._close_idle(server):
                self.selector.unregister(server.socket)
                self._paused.append(server)
                self._next_check = min(self._next_check, time.monotonic() + ACCEPT_RETRY_S)
            return  # or the peer gave up before its accept
        connections = self.servers[server]
        if len(connections) >= MAX_SERVER_CONNECTIONS and not self._close_idle(server):
            _hang_up(sock)  # every slot holds a frame in progress
            return
        sock.setblocking(False)
        conn = _Connection(sock, server)
        self._watch(conn, time.monotonic())
        connections.add(conn)
        self.selector.register(sock, selectors.EVENT_READ, conn)

    def _serve(self, conn: _Connection) -> None:
        """Read what has arrived on `conn`; answer a complete QUERY
        before its next frame is read."""
        server = conn.server
        begun = bool(conn.pending)
        try:
            msg_type, payload = recv_message(conn.sock, server.frame_limits, pending=conn.pending)
        except BlockingIOError:  # the frame is not complete yet
            if conn.pending and not begun:
                self._watch(conn, time.monotonic())
            return
        except (BadMagicError, OSError):  # no tag, closed
            self._close(conn)
            return
        except WireError as exc:
            self._reply_and_close(conn, str(exc))
            return
        if msg_type != MSG_QUERY:
            self._reply_and_close(conn, "expected QUERY")
            return
        sequence = conn.queries % _SEQUENCES
        conn.queries += 1
        try:
            reply = MSG_ANSWER, server._answer(payload, sequence)
        except HeaderMismatchError as exc:
            reply = MSG_ERROR, encode_error_payload(ERR_PARAM_MISMATCH, str(exc))
        except ProtocolError as exc:
            reply = MSG_ERROR, encode_error_payload(ERR_MALFORMED_QUERY, str(exc))
        except Exception as exc:  # keep the server alive
            logger.exception("internal error answering query")
            reply = MSG_ERROR, encode_error_payload(ERR_INTERNAL, str(exc))
        try:
            send_message(conn.sock, *reply)
        except OSError:  # the client gave up, or its receive buffer is full
            self._close(conn)
            return
        self._watch(conn, time.monotonic())

    def _reply_and_close(self, conn: _Connection, detail: str) -> None:
        with contextlib.suppress(OSError):
            send_message(conn.sock, MSG_ERROR, encode_error_payload(ERR_MALFORMED_QUERY, detail))
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        self.servers[conn.server].discard(conn)
        conn.server = None
        self.selector.unregister(conn.sock)
        _hang_up(conn.sock)
        self._resume()  # a descriptor is free

    def _expire(self) -> None:
        """Close each connection past its deadline, and watch paused
        listeners again."""
        self._resume()
        now = time.monotonic()
        self._next_check = math.inf
        with _loop_lock:
            connections = [conn for held in self.servers.values() for conn in held]
        for conn in connections:
            if conn.deadline <= now:
                self._close(conn)
            elif conn.deadline < self._next_check:
                self._next_check = conn.deadline

    def _stop_servers(self) -> bool:
        """Stop the servers `remove` asked for; True when none is left,
        and then this loop ends."""
        with contextlib.suppress(BlockingIOError):
            self._woken.recv(4096)
        global _loop
        with _loop_lock:
            stopping, self._stopping = self._stopping, []
        for server, _ in stopping:
            if server in self._paused:
                self._paused.remove(server)
            else:
                self.selector.unregister(server.socket)
            for conn in list(self.servers[server]):
                self._close(conn)
        with _loop_lock:
            for server, _ in stopping:
                del self.servers[server]
            finished = not self.servers
            if finished:
                _loop = None
        for _, done in stopping:
            done.set()
        return finished


# The serving loop of the process, while it serves a server.
_loop: _Loop | None = None
_loop_lock = threading.Lock()


class StorageServer:
    """One PIR server over shared read-only storage.

    `start` hands the server to the process's serving loop (_Loop), one
    thread for every server and connection, started with the first
    server; `serve_forever` starts it and blocks until `shutdown`.  The
    loop accepts through `get_request`, reads every frame with
    recv_message and writes it with send_message.  At
    MAX_SERVER_CONNECTIONS it closes the longest idle connection to
    admit a new one, never one in the middle of a frame.  `shutdown`
    closes every open connection and `server_close` the listener too, so
    a stopped server answers nothing more; both return at once.
    """

    def __init__(self, storage: ServerStorage, params: SystemParams, address=("127.0.0.1", 0)):
        self.storage = storage
        self.params = params
        shifts = -(-params.m_files * _shift_bits(params.n_reduced) // 8)
        self.frame_limits = {MSG_QUERY: _SYSTEM_TAG.size + shifts}
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._loop: _Loop | None = None
        self._stopped = threading.Event()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.server_close()

    def get_request(self):
        """Accept a connection: (socket, address)."""
        return self.socket.accept()

    def start(self) -> None:
        """Serve from the process's serving loop, starting it if none runs."""
        global _loop
        with _loop_lock:
            if _loop is None:
                _loop = _Loop()
                _loop.thread.start()
            self._loop = _loop
            _loop.add(self)

    def serve_forever(self) -> None:
        """Serve until `shutdown`."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop serving and close every open connection."""
        with _loop_lock:
            loop, self._loop = self._loop, None
        if loop is not None:
            loop.remove(self)
        self._stopped.set()

    def server_close(self) -> None:
        """Shut down, and close the listener."""
        self.shutdown()
        self.socket.close()

    def _answer(self, payload: bytes, sequence: int) -> bytes:
        """The ANSWER payload of a QUERY payload, of the given sequence."""
        query = decode_query_payload(payload, self.params)
        answer = scheme.server_answer(self.storage, query, self.params)
        return encode_answer_payload(answer, sequence)


def serve(storage_path, listen_address: tuple[str, int]):
    """Load a storage file and serve it until Ctrl-C, then close the server."""
    storage, params = scheme.load_storage(storage_path)
    with StorageServer(storage, params, listen_address) as server:
        logger.info(
            "serving server_index=%d on %s:%d", storage.server_index, *server.server_address
        )
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()


# ---------------------------------------------------------------------------
# client


@dataclass
class RetrievalResult:
    source: list[list[int]]
    download_elements: int
    download_bytes: int  # ANSWER payload bytes read, one answer per server
    upload_bytes: int  # QUERY payload bytes, one query per server


class _ConnectionPool:
    """Idle client sockets, a retrieval's set at a time.  A set is keyed
    by its server addresses and the timeout its sockets are armed with,
    and holds per server (socket, the sequence its next answer must
    carry: the count of queries sent on it, mod 32), or None."""

    def __init__(self):
        self._idle: list[tuple[tuple, list]] = []
        self._count = 0  # idle sockets
        self._lock = threading.Lock()

    def take(self, key) -> list:
        """The set of `key` put back last, or a set of no socket."""
        with self._lock:
            for i in range(len(self._idle) - 1, -1, -1):
                if self._idle[i][0] == key:
                    held = self._idle.pop(i)[1]
                    self._count -= len(held) - held.count(None)
                    return held
        return [None] * len(key[0])

    def put(self, key, held: list) -> None:
        """Keep a set's sockets for reuse.  Beyond MAX_IDLE_CONNECTIONS
        idle sockets, close those of the longest idle set first, in
        server order."""
        evicted = []
        live = len(held) - held.count(None)
        with self._lock:
            if live:
                self._idle.append((key, held))
                self._count += live
            while self._count > MAX_IDLE_CONNECTIONS:
                oldest = self._idle[0][1]
                t = next(t for t, slot in enumerate(oldest) if slot is not None)
                evicted.append(oldest[t][0])
                oldest[t] = None
                self._count -= 1
                if oldest.count(None) == len(oldest):
                    del self._idle[0]
        for sock in evicted:
            sock.close()

    def clear(self) -> None:
        """Close every idle socket."""
        with self._lock:
            idle, self._idle, self._count = self._idle, [], 0
        for _, held in idle:
            for slot in held:
                if slot is not None:
                    slot[0].close()


_pool = _ConnectionPool()


def _connect(address, timeout: float) -> socket.socket:
    """A new connection to `address`, armed with kernel timeouts."""
    sock = socket.create_connection(address, timeout=timeout)
    _kernel_timeouts(sock, timeout)
    return sock


def _client_limits(params: SystemParams) -> dict[int, int]:
    """The longest payload a client reads of each message type: an
    ANSWER of k values of p-1's width, or an ERROR."""
    return {
        MSG_ANSWER: 1 + _value_width(params.prime - 1) * params.k_reduced,
        MSG_ERROR: MAX_ERROR_PAYLOAD,
    }


def _read_answer(
    reply: tuple[int, bytearray], count: int, prime: int, sequence: int
) -> tuple[int, ...]:
    """A server's live values, given the count of live rounds of the
    query it was sent and the sequence due."""
    msg_type, payload = reply
    if msg_type == MSG_ERROR:
        raise ServerSideError(*decode_error_payload(payload))
    if msg_type != MSG_ANSWER:
        raise WireError("expected ANSWER")
    return decode_answer_payload(payload, count, prime, sequence)


def client_retrieve(
    server_addresses,
    theta: int,
    params: SystemParams,
    seed: int,
    timeout: float = 5.0,
) -> RetrievalResult:
    """Networked retrieval; same seed gives the same file as scheme.retrieve.

    Sends every server its query, then reads the answers in turn, over
    pooled connections (see the module docstring), and hands their live
    values, placed in one (N, k) array, to scheme.decode.  A server that
    cannot be reached, times out, replies with an ERROR, or sends an
    answer that does not fit its query aborts the retrieval with
    RetrievalAbortedError naming the server.  For a misfit answer its
    cause is a WireError: a frame longer than k values of p-1's width,
    bytes beyond the frame in the read that began it, a bad width, a
    value outside [0:p), a StaleAnswerError (an answer to an earlier
    query on the connection) or an AnswerLengthError (a length other
    than one value per live round).  `timeout`, in seconds, bounds each
    connect, send and read, and a frame from its first read; ValueError
    unless it is a finite number > 0, and scheme.ParameterError unless
    there is one address per server and theta is a file, before any
    connection is opened.
    """
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(f"timeout={timeout} is not a finite number of seconds > 0")
    addresses = list(server_addresses)
    if len(addresses) != params.n_servers:
        raise scheme.ParameterError(
            f"need {params.n_servers} server addresses, got {len(addresses)}"
        )
    theta = scheme._checked_index(theta, params.m_files, "theta")
    n, k, nn = params.n_reduced, params.k_reduced, params.n_servers
    bits = _shift_bits(n)
    _, table, low = _shift_lists(n, k)
    drawn = scheme.sample_master_rows(params, scheme.make_rng(seed), 1, table.shape[1])[0]
    shifts = drawn.tolist()
    # Server t's shifts are the master's, the desired one raised by t mod
    # n; its live rounds are the OR of its shifts' low rows.
    others, full = 0, (1 << k) - 1
    for j, shift in enumerate(shifts):
        if j != theta:
            others |= low[shift]
            if others == full:
                break
    # The shifts are packed once; per server only the bytes that hold the
    # desired one change: its u16 or byte, or its nibble and its pair's.
    body = bytearray(_pack_shifts(shifts, bits))
    first = theta - theta % 2 if bits == 4 else theta
    window = shifts[first : first + 2] if bits == 4 else [shifts[theta]]
    start = first * bits // 8
    head = _query_head(params)
    limits = _client_limits(params)
    key = (tuple(addresses), timeout)
    idle = _pool.take(key)  # per server, a pooled (socket, sequence) or None
    socks: list[socket.socket] = []
    payloads: list[bytes] = []
    due: list[int] = []  # the sequence each answer must carry
    kept: list = [None] * nn  # the sockets whose answers were accepted
    masks: list[int] = []
    values: list[int] = []
    upload_bytes = download_bytes = 0

    def resend(t: int, exc: OSError) -> None:
        """Replace server t's pooled socket, found dead, by a new
        connection and send the identical query on it, once.  A timeout
        is not taken for a dead socket: the server may still answer."""
        if idle[t] is None or isinstance(exc, TimeoutError):
            raise exc
        idle[t] = None
        socks[t].close()
        socks[t], due[t] = _connect(addresses[t], timeout), 0
        send_message(socks[t], MSG_QUERY, payloads[t])

    try:
        for t, address in enumerate(addresses):
            window[theta - first] = (shifts[theta] + t) % n
            cell = _pack_shifts(window, bits)
            body[start : start + len(cell)] = cell
            payloads.append(head + body)
            masks.append(others | low[window[theta - first]])
            upload_bytes += len(payloads[t])
            sock, sequence = idle[t] or (_connect(address, timeout), 0)
            socks.append(sock)
            due.append(sequence)
            try:
                send_message(sock, MSG_QUERY, payloads[t])
            except OSError as exc:
                resend(t, exc)
        for t in range(nn):
            try:
                reply = recv_message(socks[t], limits, timeout)
            except OSError as exc:
                resend(t, exc)
                reply = recv_message(socks[t], limits, timeout)
            values += _read_answer(reply, masks[t].bit_count(), params.prime, due[t])
            kept[t] = socks[t], (due[t] + 1) % _SEQUENCES
            download_bytes += len(reply[1])
    except (OSError, WireError, ServerSideError) as exc:
        raise RetrievalAbortedError(t, exc) from exc
    finally:
        kept[len(socks) :] = idle[len(socks) :]  # never used: still good
        _pool.put(key, kept)
        for sock, slot in zip(socks, kept):
            if slot is None:
                sock.close()
    # (N, k), 0 in NULL rounds
    placed = iter(values)
    answers = [next(placed) if mask >> s & 1 else 0 for mask in masks for s in range(k)]
    code = make_code(params.n_servers, params.k_mds, params.prime)
    master = table.take(drawn, axis=1)
    return RetrievalResult(
        source=scheme.decode(np.reshape(answers, (nn, k)), master, theta, params, code),
        download_elements=len(values),
        download_bytes=download_bytes,
        upload_bytes=upload_bytes,
    )


def parse_address(text: str) -> tuple[str, int]:
    """(host, port) of "host:port", the port in [0:65535]; ValueError otherwise."""
    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise ValueError(f"bad address {text!r}, expected host:port")
    if int(port) > 65535:
        raise ValueError(f"bad address {text!r}, port {int(port)} out of [0:65535]")
    return host, int(port)
