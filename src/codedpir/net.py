"""
TCP transport for the retrieval protocol.

Frame: 4-byte magic "PIR1", 1-byte message type, u32 big-endian payload
length, payload.  A QUERY carries (N, K, M, p) as u32s followed by the
k x M query entries as u16s row-major; an ANSWER carries a u16 round
count then per round a flag byte (0 = NULL) and, when present, the
field element as a u64 big-endian.  ERROR is a u16 code plus UTF-8
detail.  All k rounds ride in one ANSWER: the scheme has no inter-round
dependency, so a retrieval is a single round trip per server.

Field elements travel as fixed u64s regardless of p; download
accounting therefore reports element counts (the scheme's cost metric)
and raw byte counts separately.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

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

_HEADER = struct.Struct(">4sBI")
_QUERY_PARAMS = struct.Struct(">IIII")


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


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks += chunk
    return chunks


def send_message(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(MAGIC, msg_type, len(payload)) + payload)


def recv_message(sock: socket.socket) -> tuple[int, bytes]:
    magic, msg_type, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise BadMagicError("bad magic")
    if msg_type not in (MSG_QUERY, MSG_ANSWER, MSG_ERROR):
        raise WireError(f"unknown message type {msg_type}")
    return msg_type, _recv_exact(sock, length)


# ---------------------------------------------------------------------------
# payloads


def encode_query_payload(params: SystemParams, query: list[list[int]]) -> bytes:
    head = _QUERY_PARAMS.pack(
        params.n_servers, params.k_mds, params.m_files, params.prime
    )
    entries = [e for row in query for e in row]
    return head + struct.pack(f">{len(entries)}H", *entries)


def decode_query_payload(payload: bytes) -> tuple[tuple[int, int, int, int], list[list[int]]]:
    if len(payload) < _QUERY_PARAMS.size:
        raise WireError("query payload too short")
    header = _QUERY_PARAMS.unpack_from(payload)
    body = payload[_QUERY_PARAMS.size:]
    if len(body) % 2:
        raise WireError("query entries not u16-aligned")
    flat = struct.unpack(f">{len(body) // 2}H", body)
    return header, list(flat)


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
    return struct.pack(">H", code) + detail.encode("utf-8")


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
        while True:
            try:
                msg_type, payload = recv_message(self.request)
            except BadMagicError:
                return  # close without reply
            except (ConnectionError, OSError):
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
            send_message(self.request, MSG_ANSWER, encode_answer_payload(answer))

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
        query = [list(flat[s * m : (s + 1) * m]) for s in range(k)]
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
    """One PIR server over shared read-only storage."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, storage: ServerStorage, params: SystemParams, address=("127.0.0.1", 0)):
        self.storage = storage
        self.params = params
        super().__init__(address, _Handler)

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


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


def _query_one(
    address: tuple[str, int],
    params: SystemParams,
    query: list[list[int]],
    timeout: float,
) -> tuple[list[int | None], int]:
    with socket.create_connection(address, timeout=timeout) as sock:
        send_message(sock, MSG_QUERY, encode_query_payload(params, query))
        msg_type, payload = recv_message(sock)
    if msg_type == MSG_ERROR:
        raise ServerSideError(*decode_error_payload(payload))
    if msg_type != MSG_ANSWER:
        raise WireError("expected ANSWER")
    answer = decode_answer_payload(payload)
    if any(value is not None and value >= params.prime for value in answer):
        raise WireError(f"answer value out of [0:{params.prime})")
    return answer, len(payload)


def client_retrieve(
    server_addresses,
    theta: int,
    params: SystemParams,
    seed: int,
    timeout: float = 5.0,
) -> RetrievalResult:
    """Networked retrieval; same seed gives the same file as scheme.retrieve.

    An answer that does not fit its query (length, NULL pattern, a value
    outside [0:p)) aborts the retrieval with RetrievalAbortedError naming
    the server, its cause a WireError or scheme.AnswerMismatchError.
    """
    addresses = list(server_addresses)
    if len(addresses) != params.n_servers:
        raise ParameterMismatch(
            f"need {params.n_servers} server addresses, got {len(addresses)}"
        )
    master = scheme.sample_master_queries(params, scheme.make_rng(seed), 1)
    queries = scheme.server_queries(master, [theta], params)[0].tolist()
    answers: list[list[int | None] | None] = [None] * params.n_servers
    payload_bytes = 0
    with ThreadPoolExecutor(max_workers=params.n_servers) as pool:
        futures = {
            t: pool.submit(_query_one, addresses[t], params, queries[t], timeout)
            for t in range(params.n_servers)
        }
        for t, future in futures.items():
            try:
                answers[t], nbytes = future.result()
                payload_bytes += nbytes
            except Exception as exc:
                raise RetrievalAbortedError(t, exc) from exc
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


def load_endpoints(path) -> list[tuple[str, int]]:
    """Read a JSON list of "host:port" strings."""
    return [parse_address(entry) for entry in json.loads(Path(path).read_text())]
