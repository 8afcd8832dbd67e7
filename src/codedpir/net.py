"""
TCP transport for the retrieval protocol.

Frame: 4-byte magic "PIR1", 1-byte message type, u32 big-endian payload
length, payload.  A QUERY carries (N, K, M, p) as u32s followed by the
k x M query entries as big-endian u16s, row-major.  The client casts
the N queries of a retrieval to that dtype in one step, so a payload is
the header plus the bytes of one server's slice; the server reads the
entries back with one np.frombuffer.  A query of more than
scheme.SMALL_QUERY_ENTRIES entries reaches scheme.server_answer as a
(k, M) array, range-checked against n and then narrowed to the
smallest dtype that holds [0:n) (u8 for n <= 256); a smaller one as
row lists of Python ints, which its loop answers faster than numpy
would.  An ANSWER carries a u16 round count then per round a flag byte
(0 = NULL) and, when present, the field element as a u64 big-endian.
ERROR is a u16 code plus UTF-8 detail.  All k rounds ride in one
ANSWER: the scheme has no inter-round dependency, so a retrieval is a
single round trip per server.  Each side bounds the payload it reads
by the size the system's parameters imply (16 + 2kM bytes for a QUERY,
2 + 9k for an ANSWER, MAX_ERROR_PAYLOAD for an ERROR) before reading
it.

Connections persist.  A server answers every QUERY on a connection
until the client closes it, the connection stays idle for
IDLE_TIMEOUT_S seconds, or the server is closed; it keeps at most
MAX_SERVER_CONNECTIONS open and closes any further one as it accepts
it, so the number of its threads is bounded.  The client keeps idle
sockets in a pool of at most MAX_IDLE_CONNECTIONS, keyed by address; a
retrieval sends its N queries, each on its own connection, then reads
the N answers in turn, in one thread.  A socket goes back to the pool
only after its whole ANSWER frame was read; on any error or timeout it
is closed, so a late answer cannot desync a later retrieval.  A pooled
socket that turns out dead is replaced once by a new connection, which
resends the identical query frame: a second copy of a query tells the
server nothing new, whereas a fresh query for the same file would.

Field elements travel as fixed u64s regardless of p; download
accounting therefore reports element counts (the scheme's cost metric)
and raw byte counts separately.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import scheme
from .rs import make_code
from .scheme import ProtocolError, ServerStorage, SystemParams

logger = logging.getLogger(__name__)

MAGIC = b"PIR1"
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

# Seconds a server waits for the next frame on a connection before it
# closes the connection, so a silent client does not hold a thread.
IDLE_TIMEOUT_S = 60.0

# Connections a server keeps open at once, each served by its own
# thread; one accepted beyond them is closed at once, so a flood of
# connections cannot start threads without bound.
MAX_SERVER_CONNECTIONS = 256

# Longest ERROR payload a client reads; a server cuts its detail to fit.
MAX_ERROR_PAYLOAD = 1024

_HEADER = struct.Struct(">4sBI")
_QUERY_PARAMS = struct.Struct(">IIII")
_QUERY_ENTRY = np.dtype(">u2")


class WireError(ProtocolError):
    """Malformed frame or payload."""


class BadMagicError(WireError):
    """Frame does not start with the protocol magic."""


class ServerSideError(RuntimeError):
    """The server replied with an ERROR message."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"server error {code}: {detail}")
        self.code = code
        self.detail = detail


class ParameterMismatch(ValueError):
    """Endpoint list does not match the system parameters."""


class RetrievalAbortedError(RuntimeError):
    """A server was unreachable or returned an error; no partial decode."""

    def __init__(self, server_index: int, cause: Exception):
        super().__init__(f"server {server_index} failed: {cause}")
        self.server_index = server_index
        self.cause = cause


# ---------------------------------------------------------------------------
# framing


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    buffer = bytearray(count)
    view = memoryview(buffer)
    while view:
        received = sock.recv_into(view)
        if not received:
            raise ConnectionError("connection closed mid-frame")
        view = view[received:]
    return buffer


def send_message(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(MAGIC, msg_type, len(payload)) + payload)


def recv_message(
    sock: socket.socket, limits: dict[int, int] | None = None
) -> tuple[int, bytearray]:
    """Read one frame.  With `limits`, mapping message type to the
    longest payload accepted (0 for a type not listed), a longer frame
    raises WireError before its payload is read."""
    magic, msg_type, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise BadMagicError("bad magic")
    if msg_type not in (MSG_QUERY, MSG_ANSWER, MSG_ERROR):
        raise WireError(f"unknown message type {msg_type}")
    if limits is not None and length > limits.get(msg_type, 0):
        raise WireError(f"{length}-byte payload too long for message type {msg_type}")
    return msg_type, _recv_exact(sock, length)


# ---------------------------------------------------------------------------
# payloads


def encode_query_payload(params: SystemParams, query) -> bytes:
    """QUERY payload of k x M entries, given as row lists or an array.

    An array already of the wire dtype (big-endian u16) is copied as it
    is; any other input is checked to be integers in [0:2^16) first.
    """
    head = _QUERY_PARAMS.pack(
        params.n_servers, params.k_mds, params.m_files, params.prime
    )
    entries = np.asarray(query)
    if entries.dtype != _QUERY_ENTRY:
        if entries.dtype.kind not in "iu":
            raise WireError("query entries must be integers")
        if entries.size and (entries.min() < 0 or entries.max() > 0xFFFF):
            raise WireError("query entry out of the wire's u16 range")
        entries = entries.astype(_QUERY_ENTRY)
    return head + entries.tobytes()


def decode_query_payload(payload: bytes) -> tuple[tuple[int, int, int, int], np.ndarray]:
    """The header (N, K, M, p) and the entries as a flat u16 array."""
    if len(payload) < _QUERY_PARAMS.size:
        raise WireError("query payload too short")
    header = _QUERY_PARAMS.unpack_from(payload)
    if (len(payload) - _QUERY_PARAMS.size) % 2:
        raise WireError("query entries not u16-aligned")
    return header, np.frombuffer(payload, _QUERY_ENTRY, offset=_QUERY_PARAMS.size)


def encode_answer_payload(answer: list[int | None]) -> bytes:
    parts = [struct.pack(">H", len(answer))]
    for value in answer:
        if value is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + struct.pack(">Q", value))
    return b"".join(parts)


def decode_answer_payload(payload: bytes) -> list[int | None]:
    if len(payload) < 2:
        raise WireError("answer payload too short")
    (count,) = struct.unpack_from(">H", payload)
    answer: list[int | None] = []
    offset = 2
    for _ in range(count):
        if offset >= len(payload):
            raise WireError("answer payload truncated")
        flag = payload[offset]
        offset += 1
        if flag == 0:
            answer.append(None)
        elif flag == 1:
            if offset + 8 > len(payload):
                raise WireError("answer payload truncated")
            answer.append(struct.unpack_from(">Q", payload, offset)[0])
            offset += 8
        else:
            raise WireError(f"bad round flag {flag}")
    if offset != len(payload):
        raise WireError("trailing bytes in answer payload")
    return answer


def encode_error_payload(code: int, detail: str) -> bytes:
    return (struct.pack(">H", code) + detail.encode("utf-8"))[:MAX_ERROR_PAYLOAD]


def decode_error_payload(payload: bytes) -> tuple[int, str]:
    if len(payload) < 2:
        raise WireError("error payload too short")
    (code,) = struct.unpack_from(">H", payload)
    return code, payload[2:].decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# server


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        server: StorageServer = self.server  # type: ignore[assignment]
        self.request.settimeout(IDLE_TIMEOUT_S)
        while True:
            try:
                msg_type, payload = recv_message(self.request, server.frame_limits)
            except BadMagicError:
                return  # close without reply
            except OSError:  # closed, idle too long, or server_close
                return
            except WireError as exc:
                self._reply_error(ERR_MALFORMED_QUERY, str(exc))
                return
            if msg_type != MSG_QUERY:
                self._reply_error(ERR_MALFORMED_QUERY, "expected QUERY")
                return
            try:
                answer = self._answer(server, payload)
            except ServerSideError as exc:
                self._reply_error(exc.code, exc.detail)
                continue
            except Exception as exc:  # keep the daemon alive
                logger.exception("internal error answering query")
                self._reply_error(ERR_INTERNAL, str(exc))
                continue
            try:
                send_message(self.request, MSG_ANSWER, encode_answer_payload(answer))
            except OSError:  # the client gave up on this answer
                return

    def _answer(self, server: "StorageServer", payload: bytes) -> list[int | None]:
        try:
            header, flat = decode_query_payload(payload)
        except WireError as exc:
            raise ServerSideError(ERR_MALFORMED_QUERY, str(exc)) from exc
        params = server.params
        expected = (params.n_servers, params.k_mds, params.m_files, params.prime)
        if header != expected:
            raise ServerSideError(
                ERR_PARAM_MISMATCH,
                f"query params {header} do not match storage {expected}",
            )
        k, m = params.k_reduced, params.m_files
        if len(flat) != k * m:
            raise ServerSideError(ERR_MALFORMED_QUERY, f"expected {k * m} entries")
        query = flat.reshape(k, m)
        if k * m <= scheme.SMALL_QUERY_ENTRIES:
            query = query.tolist()  # the loop's input; numpy calls cost more
        elif query.max() < params.n_reduced:
            # Narrowed only once every entry is below n, so none wraps
            # into [0:n); server_answer rejects a wider one with
            # validate_query's message.
            query = query.astype(server.entry_dtype)
        try:
            return scheme.server_answer(server.storage, query, params)
        except ProtocolError as exc:
            raise ServerSideError(ERR_MALFORMED_QUERY, str(exc)) from exc

    def _reply_error(self, code: int, detail: str) -> None:
        try:
            send_message(self.request, MSG_ERROR, encode_error_payload(code, detail))
        except OSError:
            pass


class StorageServer(socketserver.ThreadingTCPServer):
    """One PIR server over shared read-only storage.

    Each connection gets a handler thread that answers its queries until
    the connection closes; a connection accepted while
    MAX_SERVER_CONNECTIONS are open is closed without one.
    `server_close` also ends every open connection, so a stopped server
    answers nothing more.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, storage: ServerStorage, params: SystemParams, address=("127.0.0.1", 0)):
        self.storage = storage
        self.params = params
        self.frame_limits = {MSG_QUERY: _QUERY_PARAMS.size + 2 * params.k_reduced * params.m_files}
        # The narrowest dtype holding [0:n), u8 for n <= 256: a large
        # query reaches scheme.server_answer in it.
        self.entry_dtype = np.min_scalar_type(params.n_reduced - 1)
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def process_request(self, request, client_address):
        # Registered before its thread starts, so close_connections
        # cannot miss a connection whose handler has not run yet.
        with self._connections_lock:
            full = len(self._connections) >= MAX_SERVER_CONNECTIONS
            if not full:
                self._connections.add(request)
        if full:
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection; the server keeps listening."""
        with self._connections_lock:
            connections = list(self._connections)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)  # wakes its handler
            except OSError:
                pass  # already closed by its handler

    def server_close(self):
        super().server_close()
        self.close_connections()


def serve(storage_path, listen_address: tuple[str, int]):
    """Load a storage file and serve it until interrupted."""
    storage, params = scheme.load_storage(storage_path)
    server = StorageServer(storage, params, listen_address)
    logger.info(
        "serving server_index=%d on %s:%d", storage.server_index, *server.server_address
    )
    server.serve_forever()


# ---------------------------------------------------------------------------
# client


@dataclass
class RetrievalResult:
    source: list[list[int]]
    download_elements: int
    download_bytes: int


class _ConnectionPool:
    """Idle client sockets, each with the address it is connected to."""

    def __init__(self):
        self._idle: list[tuple[tuple[str, int], socket.socket]] = []
        self._lock = threading.Lock()

    def take(self, address) -> socket.socket | None:
        """The socket to `address` returned last, if one is idle."""
        with self._lock:
            for i in range(len(self._idle) - 1, -1, -1):
                if self._idle[i][0] == address:
                    return self._idle.pop(i)[1]
        return None

    def put(self, address, sock: socket.socket) -> None:
        """Keep `sock` for reuse, closing the longest idle socket when
        more than MAX_IDLE_CONNECTIONS are kept."""
        with self._lock:
            self._idle.append((address, sock))
            evicted = self._idle[: max(0, len(self._idle) - MAX_IDLE_CONNECTIONS)]
            del self._idle[: len(evicted)]
        for _, old in evicted:
            old.close()

    def clear(self) -> None:
        """Close every idle socket."""
        with self._lock:
            idle, self._idle = self._idle, []
        for _, sock in idle:
            sock.close()


_pool = _ConnectionPool()


class _Link:
    """One server's share of a retrieval: its query, sent on a pooled
    socket when one is idle and on a new connection otherwise."""

    def __init__(self, address, payload: bytes, timeout: float):
        self.address = address
        self.payload = payload
        self.timeout = timeout
        self.sock = _pool.take(address)
        self.fresh = self.sock is None
        if self.fresh:
            self.sock = socket.create_connection(address, timeout=timeout)
        else:
            self.sock.settimeout(timeout)

    def send(self) -> None:
        try:
            send_message(self.sock, MSG_QUERY, self.payload)
        except OSError as exc:
            self._reconnect(exc)

    def receive(self, limits: dict[int, int]) -> tuple[int, bytearray]:
        """The server's reply.  After a whole ANSWER frame the socket
        goes back to the pool; otherwise `close` closes it."""
        try:
            reply = recv_message(self.sock, limits)
        except OSError as exc:
            self._reconnect(exc)
            reply = recv_message(self.sock, limits)
        if reply[0] == MSG_ANSWER:
            _pool.put(self.address, self.sock)
            self.sock = None
        return reply

    def _reconnect(self, exc: OSError) -> None:
        """Replace a pooled socket that turned out dead by a new
        connection and send the identical query on it, once.  A timeout
        is not taken for a dead socket: the server may still answer."""
        if self.fresh or isinstance(exc, TimeoutError):
            raise exc
        self.sock.close()
        self.fresh = True
        self.sock = socket.create_connection(self.address, timeout=self.timeout)
        send_message(self.sock, MSG_QUERY, self.payload)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _read_answer(reply: tuple[int, bytearray], params: SystemParams) -> list[int | None]:
    msg_type, payload = reply
    if msg_type == MSG_ERROR:
        raise ServerSideError(*decode_error_payload(payload))
    if msg_type != MSG_ANSWER:
        raise WireError("expected ANSWER")
    answer = decode_answer_payload(payload)
    if any(value is not None and value >= params.prime for value in answer):
        raise WireError(f"answer value out of [0:{params.prime})")
    return answer


def client_retrieve(
    server_addresses,
    theta: int,
    params: SystemParams,
    seed: int,
    timeout: float = 5.0,
) -> RetrievalResult:
    """Networked retrieval; same seed gives the same file as scheme.retrieve.

    Sends every server its query, then reads the answers in turn, over
    pooled connections (see the module docstring).  A server that
    cannot be reached, times out, replies with an ERROR, or sends an
    answer that does not fit its query (length, NULL pattern, a value
    outside [0:p)) aborts the retrieval with RetrievalAbortedError
    naming the server; for a misfit answer its cause is a WireError or
    scheme.AnswerMismatchError.
    """
    addresses = list(server_addresses)
    if len(addresses) != params.n_servers:
        raise ParameterMismatch(
            f"need {params.n_servers} server addresses, got {len(addresses)}"
        )
    master = scheme.sample_master_queries(params, scheme.make_rng(seed), 1)
    # All N queries in the wire's dtype at once; n < 2^16 is checked by
    # derive_params, so every entry fits.
    queries = scheme.server_queries(master, [theta], params)[0].astype(_QUERY_ENTRY)
    limits = {MSG_ANSWER: 2 + 9 * params.k_reduced, MSG_ERROR: MAX_ERROR_PAYLOAD}
    links: list[_Link] = []
    answers: list[list[int | None]] = []
    payload_bytes = 0
    try:
        for t, address in enumerate(addresses):
            links.append(_Link(address, encode_query_payload(params, queries[t]), timeout))
            links[t].send()
        for t, link in enumerate(links):
            reply = link.receive(limits)
            answers.append(_read_answer(reply, params))
            payload_bytes += len(reply[1])
    except (OSError, WireError, ServerSideError) as exc:
        raise RetrievalAbortedError(t, exc) from exc
    finally:
        for link in links:
            link.close()
    code = make_code(params.n_servers, params.k_mds, params.prime)
    try:
        source = scheme.decode(answers, master[0], theta, params, code)
    except scheme.AnswerMismatchError as exc:
        raise RetrievalAbortedError(exc.server_index, exc) from exc
    return RetrievalResult(
        source=source,
        download_elements=scheme.realized_download(answers),
        download_bytes=payload_bytes,
    )


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {text!r}, expected host:port")
    return host, int(port)
