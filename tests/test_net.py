import contextlib
import dataclasses
import functools
import itertools
import math
import random
import re
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from codedpir import derive_params, make_rng
from codedpir import net, scheme
from codedpir.rs import make_code
from codedpir.net import (
    MSG_ANSWER,
    MSG_ERROR,
    MSG_QUERY,
    BadMagicError,
    HeaderMismatchError,
    RetrievalAbortedError,
    ServerSideError,
    StorageServer,
    WireError,
    client_retrieve,
    decode_answer_payload,
    decode_error_payload,
    decode_query_payload,
    encode_answer_payload,
    encode_error_payload,
    encode_query_payload,
    parse_address,
    recv_message,
    send_message,
)

from conftest import EXAMPLE_QUERY, SHIFT_QUERY, start_serving, stop_servers
from oracle import answer_queries, live_rounds, retrieve_batch_reference


class CountingSocket:
    """A socket that appends the name of each call of a method in
    COUNTED, as it is made, to `calls`."""

    COUNTED = frozenset(
        {"send", "sendall", "recv", "recv_into", "settimeout", "setsockopt", "setblocking"}
    )

    def __init__(self, sock, calls: list):
        self._sock = sock
        self._calls = calls

    def __getattr__(self, attr):
        method = getattr(self._sock, attr)
        if attr not in self.COUNTED:
            return method

        def counted(*args):
            self._calls.append(attr)  # one append, atomic across threads
            return method(*args)

        return counted


class CountingServer(StorageServer):
    """Counts the connections it accepts, and its handlers' socket calls
    in `calls`."""

    accepts = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[str] = []

    def get_request(self):
        sock, address = super().get_request()
        self.accepts += 1  # only the serving loop accepts
        return CountingSocket(sock, self.calls), address


@pytest.fixture(autouse=True)
def empty_pool():
    """Each test starts and ends with no idle client connection."""
    net._pool.clear()
    yield
    net._pool.clear()


@contextmanager
def serving(storages, params):
    """A started CountingServer per storage, all stopped on exit."""
    servers = [CountingServer(st, params) for st in storages]
    for server in servers:
        start_serving(server)
    try:
        yield servers
    finally:
        stop_servers(servers)


@pytest.fixture
def cluster(example_system):
    params, _, sources, _, storages = example_system
    with serving(storages, params) as servers:
        yield params, sources, [s.server_address for s in servers], servers


@pytest.fixture
def wide_cluster():
    """(8,5,32,257): 160 entries per query, above SMALL_QUERY_ENTRIES, so
    the servers answer by the batch engine."""
    params = derive_params(8, 5, 32, 257)
    assert params.k_reduced * params.m_files > scheme.SMALL_QUERY_ENTRIES
    sources = scheme.random_sources(params, make_rng(32)).tolist()
    _, storages = scheme.encode_system(params, sources)
    with serving(storages, params) as servers:
        yield params, sources, [s.server_address for s in servers], servers


def pack_reference(entries, bits):
    """Wire bytes of a flat entry list, packed with plain Python ints."""
    if bits == 16:
        return struct.pack(f">{len(entries)}H", *entries)
    if bits == 8:
        return bytes(entries)
    padded = list(entries) + [0] * (len(entries) % 2)
    return bytes(high << 4 | low for high, low in zip(padded[0::2], padded[1::2]))


def reference_shifts(query, n):
    """Each column's shift of the base column (0, 1, ..., k-1) mod n,
    after checking that every column is one."""
    rows = np.asarray(query).tolist()
    assert rows == [[(u + s) % n for u in rows[0]] for s in range(len(rows))]
    return rows[0]


def shift_queries(params, seed, theta):
    """The (N, k, M) server queries of the shift master that
    client_retrieve draws from `seed`."""
    master = scheme.sample_master_queries(params, make_rng(seed), 1, scheme.SHIFTS)
    return scheme.server_queries(master, [theta], params)[0]


def in_process_links(monkeypatch, storages, params):
    """Make client_retrieve, given server indices as addresses, reach
    each server's answer through the wire codecs but no socket; return
    the QUERY payloads it sends."""
    sent = []

    class Wire:
        """A connection to server `address` that answers each frame
        sent on it with the next read."""

        def __init__(self, address, timeout):
            self.address, self.queries, self.reply = address, 0, b""

        def sendall(self, frame):
            payload = bytes(frame[net._HEADER.size :])
            sent.append(payload)
            query = decode_query_payload(payload, params)
            answer = scheme.server_answer(storages[self.address], query, params)
            reply = encode_answer_payload(answer, self.queries % 32)
            self.queries += 1
            self.reply = net._HEADER.pack(0x52, len(reply)) + reply

        def recv_into(self, buffer):
            buffer[: len(self.reply)] = self.reply
            return len(self.reply)

        def close(self):
            pass

    monkeypatch.setattr(net, "_connect", Wire)
    return sent


def system_tag(*system):
    """The system tag of (N, K, M, p), computed apart from net."""
    return struct.pack(">I", zlib.crc32(struct.pack(">IIII", *system)))


# The largest prime below 2^32, the widest field the wire carries.
WIDEST_PRIME = 2**32 - 5


def live_values(answer):
    """The values of a k-list answer's live rounds, as the ANSWER
    decoder returns them."""
    return tuple(value for value in answer if value is not None)


def record_frames(monkeypatch, frames: list) -> None:
    """Make every client socket opened from now on append (address,
    bytes) to `frames` for each frame it sends."""
    connect = socket.create_connection

    class Recording:
        def __init__(self, address, *args, **kwargs):
            self.address = address
            self.sock = connect(address, *args, **kwargs)

        def sendall(self, data):
            frames.append((self.address, bytes(data)))
            self.sock.sendall(data)

        def __getattr__(self, attr):
            return getattr(self.sock, attr)

    monkeypatch.setattr(net.socket, "create_connection", Recording)


def count_client_calls(monkeypatch, calls: list) -> None:
    """Make every client socket opened from now on a CountingSocket
    appending to `calls`."""
    connect = socket.create_connection
    monkeypatch.setattr(
        net.socket,
        "create_connection",
        lambda *args, **kwargs: CountingSocket(connect(*args, **kwargs), calls),
    )


@functools.lru_cache(maxsize=None)
def fuzz_storage(params):
    """Server 0's storage of random files of `params`."""
    return scheme.encode_system(params, scheme.random_sources(params, make_rng(0)))[1][0]


def ask(address, payload, params):
    """One QUERY on a new connection; returns the reply frame, read
    within a client's limits for `params`."""
    with socket.create_connection(address, timeout=2.0) as sock:
        send_message(sock, MSG_QUERY, payload)
        return recv_message(sock, net._client_limits(params))


def idle_sockets():
    """(address, socket) of each idle pooled socket, oldest set first,
    each set in server order."""
    return [(a, slot[0]) for key, held in net._pool._idle for a, slot in zip(key[0], held) if slot]


def idle_addresses():
    return [address for address, _ in idle_sockets()]


def pooled_socket(address):
    """The one idle pooled socket to `address`."""
    (sock,) = [sock for a, sock in idle_sockets() if a == address]
    return sock


# Server 0 of the example system alone in a process whose soft
# RLIMIT_NOFILE leaves `free` descriptors: it prints its port and
# `free`; then on "begun N" waits up to 10 s until N connections are
# mid-frame and prints ok (or timeout), on "measure" prints the CPU time
# its serving thread used over 0.5 s of idle, and stops at the end of
# its input.  The process's CPU time would count numpy's OpenBLAS helper
# threads too, which can burn tens of ms after start-up.  The thread's
# stat file is opened before the limit is lowered, as no descriptor is
# free when it is read.
OUT_OF_DESCRIPTORS_SERVER = """
import os, resource, sys, time
from codedpir import derive_params, make_rng, net, scheme

params = derive_params(5, 3, 3, 7)
sources = scheme.random_sources(params, make_rng(1234)).tolist()
_, storages = scheme.encode_system(params, sources)
net.ACCEPT_RETRY_S = 3600.0
server = net.StorageServer(storages[0], params)
server.start()
stat = os.open(f"/proc/self/task/{net._loop.thread.native_id}/stat", os.O_RDONLY)
def cpu_seconds():
    fields = os.pread(stat, 4096, 0).rpartition(b")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime
def is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True
held = [fd for fd in map(int, os.listdir("/proc/self/fd")) if is_open(fd)]
limit = max(held) + 9
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
print(server.server_address[1], limit - len(held), flush=True)
def begun():
    try:
        return sum(1 for conn in list(net._loop.servers[server]) if conn.pending)
    except RuntimeError:  # the loop changed the set meanwhile
        return 0
for line in sys.stdin:
    if line.startswith("begun"):
        deadline = time.monotonic() + 10.0
        while begun() < int(line.split()[1]) and time.monotonic() < deadline:
            time.sleep(0.01)
        print("ok" if time.monotonic() < deadline else "timeout", flush=True)
        continue
    start = cpu_seconds()
    time.sleep(0.5)
    print(cpu_seconds() - start, flush=True)
server.server_close()
"""


def wait_until_closed(socks, timeout=5.0):
    """Wait until the peer of each socket has closed it: it reads as at
    its end."""
    deadline = time.monotonic() + timeout
    for sock in socks:
        ready, _, _ = select.select([sock], [], [], max(0.0, deadline - time.monotonic()))
        assert ready and sock.recv(1, socket.MSG_PEEK) == b""


class TestPayloads:
    def test_query_round_trip(self):
        params = derive_params(5, 3, 3, 7)
        rng = random.Random(0)
        for _ in range(50):
            shifts = [rng.randrange(5) for _ in range(3)]
            query = [[(u + s) % 5 for u in shifts] for s in range(3)]
            payload = encode_query_payload(params, query)
            assert payload[4:] == pack_reference(shifts, 4)
            assert decode_query_payload(bytearray(payload), params) == query

    def test_example_query_golden_bytes(self):
        params = derive_params(5, 3, 3, 7)
        payload = encode_query_payload(params, SHIFT_QUERY)
        assert payload == bytes.fromhex(
            "11dd2bf0"  # the system tag: CRC-32 of N, K, M, p as u32s
            "34" "30"  # the shifts 3, 4, 3 as nibbles, and a zero pad nibble
        )
        # The worked example's columns are not shifts of (0, 1, 2).
        with pytest.raises(WireError, match="not shifts of the base column"):
            encode_query_payload(params, EXAMPLE_QUERY)

    def test_example_query_frame_golden_bytes(self):
        """The whole QUERY frame of the worked example, 11 bytes."""
        payload = encode_query_payload(derive_params(5, 3, 3, 7), SHIFT_QUERY)
        left, right = socket.socketpair()
        with left, right:
            send_message(left, MSG_QUERY, payload)
            frame = right.recv(64)
        assert frame == bytes.fromhex(
            "51"  # the frame tag: version 5, type 1 (QUERY)
            "00000006"  # the payload length
            "11dd2bf0"  # the system tag
            "34" "30"  # the shifts 3, 4, 3 as nibbles, and a zero pad nibble
        )
        assert frame[5:9] == system_tag(5, 3, 3, 7)

    @pytest.mark.parametrize("system", [(5, 3, 3, 7), (8, 5, 256, 65537)])
    def test_system_tag_changes_with_any_one_field(self, system):
        """CRC-32 detects every error burst of 32 bits or fewer, so
        changing any one of the four u32 fields changes the tag: checked
        over a seeded sample of values for each field, the extremes
        included."""
        params = derive_params(*system)
        tag = net._query_head(params)
        assert tag == system_tag(*system)
        rng = random.Random(sum(system))
        fields = ("n_servers", "k_mds", "m_files", "prime")
        for field, value in zip(fields, system):
            values = {0, 1, value - 1, value + 1, 2**32 - 1}
            values.update(rng.randrange(2**32) for _ in range(200))
            values.discard(value)
            for other in values:
                changed = dataclasses.replace(params, **{field: other})
                assert net._query_head(changed) != tag, (field, other)

    def test_system_tags_of_random_tuples_differ(self):
        """Tuples that differ in several fields collide with chance 2^-32
        a pair: none of a seeded sample of 1,000 does."""
        rng = random.Random(19)
        systems = {tuple(rng.randrange(2**32) for _ in range(4)) for _ in range(1000)}
        assert len({system_tag(*system) for system in systems}) == len(systems)

    @pytest.mark.parametrize("shape, bits", [
        ((5, 3, 3, 7), 4), ((5, 3, 43, 7), 4),
        ((17, 2, 3, 17), 8), ((17, 2, 65, 17), 8),
        ((257, 2, 3, 257), 16), ((257, 2, 65, 257), 16),
    ])
    def test_rank_widths_round_trip(self, shape, bits, monkeypatch):
        """n = 5, 17 and 257 take 4-, 8- and 16-bit shifts, on the
        row-list and the array path; every server's query round-trips,
        and a retrieval through the codecs decodes."""
        params = derive_params(*shape)
        n, k, m = params.n_reduced, params.k_reduced, params.m_files
        assert net._shift_bits(n) == bits
        large = k * m > scheme.SMALL_QUERY_ENTRIES
        assert large == (m > 3)
        queries = shift_queries(params, m, 1)
        for query in queries:
            payload = encode_query_payload(params, query)
            assert payload[4:] == pack_reference(reference_shifts(query, n), bits)
            assert len(payload) == 4 + -(-m * bits // 8)
            decoded = decode_query_payload(bytearray(payload), params)
            if large:
                assert decoded.dtype == np.min_scalar_type(n - 1) and decoded.flags.c_contiguous
                decoded = decoded.tolist()
            assert decoded == query.tolist()
        sources = scheme.random_sources(params, make_rng(1))
        _, storages = scheme.encode_system(params, sources)
        sent = in_process_links(monkeypatch, storages, params)
        result = client_retrieve(range(params.n_servers), 1, params, seed=m)
        assert result.source == sources[1].tolist()
        assert sent == [encode_query_payload(params, q) for q in queries]

    @pytest.mark.parametrize("shape", [(257, 1, 129, 257), (12, 7, 2, 13), (71, 70, 2, 73)])
    def test_former_entry_systems_send_shifts(self, shape, monkeypatch):
        """k = 1 and |Omega| > 2^16, whose queries wires v2 and v3 sent
        as k*M entries, send M shifts at n's width like every system, end
        to end; at k = 70 the client's live-round masks take more bits
        than int64 holds."""
        params = derive_params(*shape)
        n, m = params.n_reduced, params.m_files
        sources = scheme.random_sources(params, make_rng(2))
        _, storages = scheme.encode_system(params, sources)
        sent = in_process_links(monkeypatch, storages, params)
        for seed, theta in [(0, 0), (1, m - 1)]:
            sent.clear()
            result = client_retrieve(range(params.n_servers), theta, params, seed=seed)
            assert result.source == sources[theta].tolist()
            assert result.source == scheme.retrieve(theta, storages, params, make_rng(seed))[0]
            bits = net._shift_bits(n)
            assert sent == [
                net._query_head(params) + pack_reference(reference_shifts(q, n), bits)
                for q in shift_queries(params, seed, theta)
            ]

    def test_wide_query_matches_struct_reference(self):
        params = derive_params(8, 5, 256, 65537)
        queries = shift_queries(params, 3, 200)
        head = system_tag(8, 5, 256, 65537)
        for query in queries:
            reference = head + pack_reference(reference_shifts(query, 8), 4)
            assert len(reference) == 4 + 128
            assert encode_query_payload(params, query.tolist()) == reference
            assert encode_query_payload(params, query) == reference
            with pytest.raises(WireError, match="integers"):
                encode_query_payload(params, reference[4:])
            decoded = decode_query_payload(bytearray(reference), params)
            assert decoded.dtype == np.uint8 and decoded.flags.c_contiguous
            assert decoded.tolist() == query.tolist()

    @pytest.mark.parametrize("n_servers, prime, bits", [
        (16, 17, 4), (17, 17, 8), (256, 257, 8), (257, 257, 16),
    ])
    @pytest.mark.parametrize("m_files", [3, 4, 129, 130])
    def test_query_width_follows_n(self, n_servers, prime, bits, m_files):
        """n-1 picks 4, 8 or 16 bits, on the row-list (M = 3, 4) and the
        array (M = 129, 130) path alike, for odd and even shift counts
        (at k = 1 a shift is the entry); a shift beyond n cannot be
        encoded."""
        params = derive_params(n_servers, 1, m_files, prime)
        n = params.n_reduced
        query = [[(n - 1 - i) % n for i in range(m_files)]]
        payload = encode_query_payload(params, query)
        assert payload[4:] == pack_reference(query[0], bits)
        assert len(payload) == 4 + -(-m_files * bits // 8)
        decoded = decode_query_payload(bytearray(payload), params)
        if m_files > scheme.SMALL_QUERY_ENTRIES:
            assert decoded.dtype == (np.uint16 if bits == 16 else np.uint8)
            assert decoded.flags.c_contiguous
            decoded = decoded.tolist()
        assert decoded == query
        with pytest.raises(WireError):
            encode_query_payload(params, [[n] + query[0][1:]])

    @pytest.mark.parametrize("m_files", [3, 27])
    def test_odd_nibble_count_pads_a_zero_nibble(self, m_files):
        """3 shifts of (3,2) and 27 of (16,5): the last byte's low nibble
        is the pad, and a payload with it set is rejected on either
        path."""
        params = derive_params(3 if m_files == 3 else 16, 2 if m_files == 3 else 5, m_files, 257)
        assert net._shift_bits(params.n_reduced) == 4
        large = params.k_reduced * m_files > scheme.SMALL_QUERY_ENTRIES
        assert large == (m_files == 27)
        query = shift_queries(params, 5, 1)[0]
        payload = bytearray(encode_query_payload(params, query))
        assert len(payload) == 4 + (m_files + 1) // 2
        assert payload[-1] & 0x0F == 0
        assert np.array_equal(decode_query_payload(payload, params), query)
        payload[-1] |= 0x01
        with pytest.raises(WireError, match="pad nibble"):
            decode_query_payload(payload, params)

    def test_query_decoder_checks_header_then_own_width(self):
        params = derive_params(5, 3, 3, 7)
        payload = encode_query_payload(params, SHIFT_QUERY)
        for bad in (payload[:-1], payload + b"\x00", payload[:3]):
            with pytest.raises(WireError) as exc:
                decode_query_payload(bad, params)
            assert not isinstance(exc.value, HeaderMismatchError)
        other = derive_params(5, 3, 3, 11)
        # the detail names the server's own system
        with pytest.raises(HeaderMismatchError, match=re.escape("= (5, 3, 3, 7)")):
            decode_query_payload(encode_query_payload(other, SHIFT_QUERY), params)
        with pytest.raises(HeaderMismatchError):  # the header decides first
            decode_query_payload(encode_query_payload(other, SHIFT_QUERY) + bytes(7), params)
        # The same tag with the 9 entries as bytes: a server of (5,3)
        # reads 3 nibble shifts, so the length is wrong.
        wide = payload[:4] + bytes(e for row in SHIFT_QUERY for e in row)
        with pytest.raises(WireError, match="3 4-bit shifts"):
            decode_query_payload(wide, params)

    @pytest.mark.parametrize("entry", [-1, 2**16, 1.5])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_query_entry_outside_u16(self, entry, as_array):
        query = [[3, 4, 3], [0, entry, 0], [1, 0, 4]]
        if as_array:
            query = np.array(query)  # int64, or float64 with 1.5
        with pytest.raises(WireError):
            encode_query_payload(derive_params(5, 3, 3, 7), query)

    def test_answer_round_trip(self):
        rng = random.Random(1)
        for _ in range(100):
            top = rng.choice([7, 2**8, 2**16, WIDEST_PRIME])
            answer = [
                None if rng.random() < 0.3 else rng.randrange(top)
                for _ in range(rng.randint(0, 6))
            ]
            payload = encode_answer_payload(answer)
            values = live_values(answer)
            assert decode_answer_payload(payload, len(values), WIDEST_PRIME) == values

    def test_answer_byte_sizes(self):
        # a width byte, then the live values only, in the fewest of 1, 2
        # or 4 bytes that hold the largest
        assert encode_answer_payload([5]) == bytes([1, 5])
        assert encode_answer_payload([None]) == bytes([1])
        assert encode_answer_payload([]) == bytes([1])
        assert encode_answer_payload([None, 5, 7]) == bytes([1, 5, 7])
        assert encode_answer_payload([255, None]) == bytes([1, 255])
        assert encode_answer_payload([7, 256]) == bytes.fromhex("02" "0007" "0100")
        assert encode_answer_payload([65535]) == bytes.fromhex("02" "ffff")
        assert encode_answer_payload([65536, 1]) == bytes.fromhex("04" "00010000" "00000001")
        assert encode_answer_payload([2**32 - 1]) == bytes.fromhex("04" "ffffffff")
        # the sequence in the head byte's high 5 bits
        assert encode_answer_payload([None, 5, 7], 1) == bytes([1 << 3 | 1, 5, 7])
        assert encode_answer_payload([7, 256], 31) == bytes.fromhex("fa" "0007" "0100")
        for values in ([2**32], [-1], [1.5]):
            with pytest.raises(WireError):
                encode_answer_payload(values)

    def test_truncated_answer(self):
        payload = encode_answer_payload([1, 2])
        with pytest.raises(WireError):
            decode_answer_payload(payload[:-3], 2, 7)
        with pytest.raises(net.AnswerLengthError):
            decode_answer_payload(payload[:-1], 2, 7)
        with pytest.raises(net.AnswerLengthError):
            decode_answer_payload(payload + b"\x00", 2, 7)
        # the sequence is checked before the length
        stale = encode_answer_payload([1, 2], 3)
        for bad in (stale, stale[:-1], stale + b"\x00"):
            with pytest.raises(net.StaleAnswerError):
                decode_answer_payload(bad, 2, 7)

    @pytest.mark.parametrize("prime, widths", [
        (7, [1]), (257, [1, 2]), (65537, [1, 2, 4]), (WIDEST_PRIME, [1, 2, 4]),
    ])
    def test_answer_width_byte(self, prime, widths):
        """Only 1, 2 or 4, and none wider than p-1 needs, in the head
        byte's low 3 bits, checked before the sequence in its high 5."""
        for head in range(256):
            width, sequence = head & 7, head >> 3
            payload = bytes([head]) + bytes(2 * width)
            if width in widths:
                assert decode_answer_payload(payload, 2, prime, sequence) == (0, 0)
                with pytest.raises(net.StaleAnswerError):
                    decode_answer_payload(payload, 2, prime, (sequence + 1) % 32)
            else:
                for due in (sequence, (sequence + 1) % 32):
                    with pytest.raises(WireError) as exc:
                        decode_answer_payload(payload, 2, prime, due)
                    assert not isinstance(exc.value, (net.AnswerLengthError, net.StaleAnswerError))

    @pytest.mark.parametrize("prime", [7, 257, 65537, WIDEST_PRIME])
    def test_answer_value_below_p(self, prime):
        top = encode_answer_payload([None, prime - 1])
        assert decode_answer_payload(top, 1, prime) == (prime - 1,)
        with pytest.raises(WireError, match="out of"):
            decode_answer_payload(encode_answer_payload([None, prime]), 1, prime)

    def test_error_payload_is_bounded(self):
        payload = encode_error_payload(net.ERR_INTERNAL, "x" * 5000)
        assert len(payload) == net.MAX_ERROR_PAYLOAD
        code, detail = decode_error_payload(payload)
        assert (code, detail) == (net.ERR_INTERNAL, "x" * (net.MAX_ERROR_PAYLOAD - 2))

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_address("h:0") == ("h", 0)
        assert parse_address("[::1]:65535") == ("[::1]", 65535)
        for text in ("nope", "h:", "h:-1", "h:65536", "h:99999", "h:\u00b2", "h:\u0663"):
            with pytest.raises(ValueError):
                parse_address(text)


class TestEndToEnd:
    def test_matches_in_process(self, cluster, example_system):
        params, sources, addresses, _ = cluster
        for seed in (0, 1, 2):
            for theta in range(3):
                result = client_retrieve(addresses, theta, params, seed)
                assert result.source == sources[theta]
                in_proc, downloaded = scheme.retrieve(
                    theta, example_system[4], params, make_rng(seed)
                )
                assert result.source == in_proc
                assert result.download_elements == downloaded

    def test_param_mismatch_error(self, cluster):
        params, _, addresses, _ = cluster
        other = derive_params(5, 3, 3, 11)
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, other, seed=0)
        assert exc.value.server_index == 0
        assert isinstance(exc.value.cause, ServerSideError)
        assert exc.value.cause.code == net.ERR_PARAM_MISMATCH

    def test_malformed_query_error_code_2(self, cluster):
        """A column that is no shift of the base column cannot be sent; a
        shift not below n = 5 gets ERR_MALFORMED_QUERY."""
        params, _, addresses, _ = cluster
        dup = [[3, 4, 3], [3, 1, 0], [1, 0, 4]]  # repeated column entry
        with pytest.raises(WireError, match="not shifts"):
            encode_query_payload(params, dup)
        for body, shift in ((bytes([0x50, 0x00]), 5), (bytes([0x04, 0xF0]), 15)):
            msg_type, payload = ask(addresses[0], net._query_head(params) + body, params)
            assert msg_type == MSG_ERROR
            assert decode_error_payload(payload) == (
                net.ERR_MALFORMED_QUERY, f"shift {shift} out of [0:5)"
            )

    def test_answer_frame_gets_expected_query(self, cluster):
        """A zero-length ANSWER frame passes the server's frame limits;
        it gets ERR_MALFORMED_QUERY and a closed connection."""
        params, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(net._HEADER.pack(0x52, 0))
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ERROR
            assert decode_error_payload(reply) == (net.ERR_MALFORMED_QUERY, "expected QUERY")
            assert sock.recv(1) == b""

    def test_protocol_error_is_malformed_and_keeps_the_connection(self, cluster, monkeypatch):
        """A ProtocolError while answering, not only the wire decoder's,
        is replied to with ERR_MALFORMED_QUERY and its message."""
        params, _, addresses, _ = cluster

        def refuse(storage, query, params):
            raise scheme.ProtocolError("query refused")

        monkeypatch.setattr(scheme, "server_answer", refuse)
        payload = encode_query_payload(params, SHIFT_QUERY)
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            for _ in range(2):
                send_message(sock, MSG_QUERY, payload)
                msg_type, reply = recv_message(sock, net._client_limits(params))
                assert msg_type == MSG_ERROR
                assert decode_error_payload(reply) == (net.ERR_MALFORMED_QUERY, "query refused")

    def test_internal_error_keeps_the_connection(self, cluster, monkeypatch, caplog):
        """An exception while answering is logged and replied to with
        ERR_INTERNAL; the connection then answers the next query, whose
        sequence counts the failed one."""
        params, _, addresses, _ = cluster
        honest = scheme.server_answer
        calls = []

        def failing_once(storage, query, params):
            calls.append(storage.server_index)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return honest(storage, query, params)

        monkeypatch.setattr(scheme, "server_answer", failing_once)
        payload = encode_query_payload(params, SHIFT_QUERY)
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            send_message(sock, MSG_QUERY, payload)
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ERROR
            assert decode_error_payload(reply) == (net.ERR_INTERNAL, "boom")
            send_message(sock, MSG_QUERY, payload)
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ANSWER
            assert len(decode_answer_payload(reply, 2, 7, sequence=1)) == 2
        assert calls == [0, 0]
        assert "internal error answering query" in caplog.text

    def test_oversized_query_header_rejected(self, cluster):
        params, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            # announces 2^32 - 1 payload bytes and sends none
            sock.sendall(net._HEADER.pack(0x51, 2**32 - 1))
            msg_type, payload = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ERROR
            assert decode_error_payload(payload)[0] == net.ERR_MALFORMED_QUERY
            assert sock.recv(1) == b""
        msg_type, _ = ask(addresses[0], encode_query_payload(params, SHIFT_QUERY), params)
        assert msg_type == MSG_ANSWER

    def test_wrong_magic_closes_connection(self, cluster):
        _, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(b"NOPE" + bytes(5))
            sock.settimeout(2.0)
            assert sock.recv(1024) == b""

    def test_v1_frame_gets_no_reply(self, cluster):
        """A PIR1 peer's query, the worked example as u16s, is refused
        by magic alone: no reply, a closed connection; and a client
        reading a PIR1 frame raises BadMagicError."""
        params, _, addresses, _ = cluster
        payload = struct.pack(">IIII9H", 5, 3, 3, 7, *[e for row in EXAMPLE_QUERY for e in row])
        v1_frame = struct.pack(">4sBI", b"PIR1", MSG_QUERY, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(v1_frame)
            assert sock.recv(1024) == b""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">4sBI", b"PIR1", MSG_ANSWER, 3) + bytes(3))
            with pytest.raises(BadMagicError):
                recv_message(right, net._client_limits(params))

    def test_v2_frame_gets_no_reply(self, cluster):
        """A PIR2 peer's query, the worked example as nibbles, is refused
        by magic alone: no reply, a closed connection."""
        _, _, addresses, _ = cluster
        payload = struct.pack(">IIII", 5, 3, 3, 7) + bytes.fromhex("3430101040")
        v2_frame = struct.pack(">4sBI", b"PIR2", MSG_QUERY, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(v2_frame)
            assert sock.recv(1024) == b""

    def test_v3_frame_gets_no_reply(self, cluster):
        """A PIR3 peer's query, the worked example as column ranks, is
        refused by magic alone: no reply, a closed connection."""
        _, _, addresses, _ = cluster
        payload = struct.pack(">IIII", 5, 3, 3, 7) + bytes([36, 51, 38])
        v3_frame = struct.pack(">4sBI", b"PIR3", MSG_QUERY, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(v3_frame)
            assert sock.recv(1024) == b""

    def test_v4_frame_gets_no_reply(self, cluster):
        """A PIR4 peer's query, the worked example's shifts after the
        16-byte (N, K, M, p) header, is refused by its first byte alone:
        no reply, a closed connection; and a client reading a PIR4 frame
        raises BadMagicError."""
        params, _, addresses, _ = cluster
        payload = struct.pack(">IIII", 5, 3, 3, 7) + bytes.fromhex("3430")
        v4_frame = struct.pack(">4sBI", b"PIR4", MSG_QUERY, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(v4_frame)
            assert sock.recv(1024) == b""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">4sBI", b"PIR4", MSG_ANSWER, 3) + bytes([1, 5, 4]))
            with pytest.raises(BadMagicError):
                recv_message(right, net._client_limits(params))

    def test_payload_bytes_both_ways(self, cluster):
        """(5,3,3,7): a 4-byte system tag and 3 nibble shifts in 2 bytes
        per server up; a head byte and one byte per element down."""
        params, sources, addresses, _ = cluster
        for seed in range(5):
            result = client_retrieve(addresses, seed % 3, params, seed)
            assert result.source == sources[seed % 3]
            assert result.upload_bytes == 5 * (4 + 2) == 30
            assert result.download_bytes == 5 + result.download_elements

    def test_server_down_aborts_with_index(self, cluster):
        params, _, addresses, servers = cluster
        servers[3].shutdown()
        servers[3].server_close()
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, params, seed=0, timeout=1.0)
        assert exc.value.server_index == 3

    def test_stopped_server_ends_its_open_connections(self, cluster):
        params, sources, addresses, servers = cluster
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        servers[3].shutdown()
        servers[3].server_close()
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, params, seed=1, timeout=1.0)
        assert exc.value.server_index == 3

    def test_idle_connection_closed_by_server(self, cluster, monkeypatch):
        params, sources, addresses, servers = cluster
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection(addresses[0], timeout=5.0) as sock:
            assert sock.recv(1) == b""
        assert client_retrieve(addresses, 1, params, seed=0).source == sources[1]
        wait_until_closed([pooled_socket(address) for address in addresses])
        # Every pooled connection is dead now: each query is resent once.
        assert client_retrieve(addresses, 2, params, seed=1).source == sources[2]
        assert [server.accepts for server in servers] == [3, 2, 2, 2, 2]

    def test_wrong_address_count(self, cluster):
        params, _, addresses, _ = cluster
        with pytest.raises(scheme.ParameterError):
            client_retrieve(addresses[:4], 0, params, seed=0)

    @pytest.mark.parametrize("theta", [-1, 3, 1.5, True])
    def test_theta_out_of_range_opens_no_connection(self, cluster, theta, monkeypatch):
        params, _, addresses, _ = cluster
        opened = []
        monkeypatch.setattr(net.socket, "create_connection", lambda *args, **kw: opened.append(1))
        with pytest.raises(scheme.ParameterError, match="theta"):
            client_retrieve(addresses, theta, params, seed=0)
        assert opened == []

    def test_query_frames_follow_the_seed(self, cluster, monkeypatch):
        """client_retrieve sends each server its query of the seed's
        master, in the reference layout."""
        params, sources, addresses, _ = cluster
        sent = []
        send = net.send_message

        def recording_send(sock, msg_type, payload):
            if msg_type == MSG_QUERY:
                sent.append(bytes(payload))
            send(sock, msg_type, payload)

        monkeypatch.setattr(net, "send_message", recording_send)
        assert client_retrieve(addresses, 2, params, seed=9).source == sources[2]
        master = scheme.gen_master_query(params, make_rng(9))
        head = system_tag(5, 3, 3, 7)
        expected = []
        for t in range(params.n_servers):
            query = scheme.build_server_query(master, 2, t, params)
            expected.append(head + pack_reference(reference_shifts(query, 5), 4))
        assert sent == expected

    def test_server_answers_from_row_lists_of_ints(self, cluster, monkeypatch):
        params, sources, addresses, _ = cluster
        honest = scheme.server_answer
        seen = []

        def server_answer(storage, query, params):
            seen.append(
                type(query) is scheme.ShiftRows
                and len(query) == params.k_reduced
                and all(type(row) is list and len(row) == params.m_files for row in query)
                and all(type(entry) is int for row in query for entry in row)
            )
            return honest(storage, query, params)

        monkeypatch.setattr(scheme, "server_answer", server_answer)
        assert client_retrieve(addresses, 1, params, seed=4).source == sources[1]
        assert seen == [True] * params.n_servers

    def test_connections_beyond_the_cap_are_closed(self, cluster, monkeypatch):
        """At the cap a new connection closes the longest idle one, never
        one in the middle of a frame; with every slot mid-frame the new
        connection itself is closed."""
        params, _, addresses, servers = cluster
        monkeypatch.setattr(net, "MAX_SERVER_CONNECTIONS", 2)
        frame = net._HEADER.pack(0x51, 6) + encode_query_payload(params, SHIFT_QUERY)
        reads = servers[0].calls

        def connect():
            return socket.create_connection(addresses[0], timeout=2.0)

        def begin(sock):
            """Send a frame's first byte, and wait until the server read it."""
            seen = reads.count("recv_into")
            sock.sendall(frame[:1])
            deadline = time.monotonic() + 5.0
            while reads.count("recv_into") == seen:
                assert time.monotonic() < deadline
                time.sleep(0.005)

        def answered(sock, sent=0):
            sock.sendall(frame[sent:])
            return recv_message(sock, net._client_limits(params))[0] == MSG_ANSWER

        with connect() as a, connect() as b:
            assert answered(a) and answered(b)
            begin(a)  # a, the longest idle, is now mid-frame
            with connect() as c:
                assert b.recv(1) == b""  # evicted in its place
                assert answered(a, 1) and answered(c)
                begin(a)
                begin(c)
                with connect() as d:
                    assert d.recv(1) == b""  # no slot is idle
                assert answered(a, 1) and answered(c, 1)
        assert servers[0].accepts == 4

    def test_idle_peers_do_not_lock_the_client_out(self, cluster, monkeypatch):
        """Five idle peers of server 1 fill its three slots; the client's
        connection takes the longest idle one's, without waiting for any
        peer's idle timeout, and once its own pooled connection is
        evicted the query is resent on a new one."""
        params, sources, addresses, servers = cluster
        monkeypatch.setattr(net, "MAX_SERVER_CONNECTIONS", 3)
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 5.0)
        with contextlib.ExitStack() as stack:
            peers = [
                stack.enter_context(socket.create_connection(addresses[1], timeout=2.0))
                for _ in range(5)
            ]
            wait_until_closed(peers[:2])
            start = time.monotonic()
            for seed in range(20):
                theta = seed % 3
                assert client_retrieve(addresses, theta, params, seed).source == sources[theta]
            assert time.monotonic() - start < net.IDLE_TIMEOUT_S
            wait_until_closed(peers[2:3])
            pooled = pooled_socket(addresses[1])
            peers += [
                stack.enter_context(socket.create_connection(addresses[1], timeout=2.0))
                for _ in range(3)
            ]
            wait_until_closed(peers[3:5] + [pooled])
            assert client_retrieve(addresses, 2, params, seed=20).source == sources[2]
        assert servers[1].accepts == 5 + 1 + 3 + 1

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="lists descriptors from /proc")
    @pytest.mark.parametrize("first_bytes", [b"", b"Q"])  # idle peers, peers mid-frame
    def test_out_of_descriptors_does_not_spin(self, cluster, first_bytes):
        """Server 0 runs in a process whose descriptor limit its peers
        fill, with four more peers waiting to be accepted.  The serving
        loop does not turn without sleeping (its thread, measured alone,
        uses under 50 ms of CPU in 0.5 s): it closes idle connections
        to accept them, or, with every connection mid-frame, stops
        watching its listener until a connection closes (the retry timer
        is an hour there).  A retrieval through it then succeeds."""
        params, sources, addresses, _ = cluster
        server = subprocess.Popen(
            [sys.executable, "-c", OUT_OF_DESCRIPTORS_SERVER],
            env={"PYTHONPATH": str(Path(net.__file__).resolve().parents[1])},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            port, free = map(int, server.stdout.readline().split())
            with contextlib.ExitStack() as stack:

                def connect(count):
                    address = ("127.0.0.1", port)
                    for _ in range(count):
                        peer = stack.enter_context(socket.create_connection(address, timeout=2.0))
                        peer.sendall(first_bytes)
                        yield peer

                peers = list(connect(free))
                if first_bytes:
                    server.stdin.write(f"begun {free}\n")
                    server.stdin.flush()
                    assert server.stdout.readline() == "ok\n"
                peers += connect(4)
                server.stdin.write("measure\n")
                server.stdin.flush()
                cpu = float(server.stdout.readline())
                assert cpu < 0.05, f"the serving thread used {cpu:.3f} s of CPU in 0.5 s idle"
                if first_bytes:
                    for peer in peers:
                        peer.close()
                else:
                    wait_until_closed(peers[:4])  # the longest idle, for the last four
                theta = 1
                result = client_retrieve([("127.0.0.1", port)] + addresses[1:], theta, params, 5)
                assert result.source == sources[theta]
            server.stdin.close()
            assert server.wait(timeout=10) == 0
        finally:
            server.kill()
            server.wait()
            server.stdout.close()

    def test_multiple_queries_per_connection(self, cluster):
        params, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            for sequence in range(3):
                send_message(sock, MSG_QUERY, encode_query_payload(params, SHIFT_QUERY))
                msg_type, payload = recv_message(sock, net._client_limits(params))
                assert msg_type == net.MSG_ANSWER
                assert len(decode_answer_payload(payload, 2, 7, sequence)) == 2


class TestLargeQueries:
    """Queries of more than SMALL_QUERY_ENTRIES entries reach
    scheme.server_answer as a narrowed array."""

    def test_every_theta_decodes(self, wide_cluster):
        params, sources, addresses, _ = wide_cluster
        for theta in range(params.m_files):
            result = client_retrieve(addresses, theta, params, seed=theta)
            assert result.source == sources[theta]

    @pytest.mark.parametrize("entry", [8, 15, 255, 259, 65535])
    def test_entry_outside_n(self, entry):
        """(8,1,129,257) sends nibble shifts (at k = 1 a shift is the
        entry): a query with an entry not below n = 8 cannot be encoded;
        one of [8:16) fits a nibble on the wire, gets ERR_MALFORMED_QUERY,
        and the connection answers the next query."""
        params = derive_params(8, 1, 129, 257)
        assert net._shift_bits(8) == 4
        _, storages = scheme.encode_system(params, scheme.random_sources(params, make_rng(3)))
        query = shift_queries(params, 1, 3)[2]
        bad = query.copy()
        bad[0, 5] = entry
        with pytest.raises(WireError, match="not shifts"):
            encode_query_payload(params, bad)
        if entry >= 16:
            return
        payload = bytearray(encode_query_payload(params, query))
        payload[4 + 2] = payload[4 + 2] & 0xF0 | entry  # shift 5, a low nibble
        with serving([storages[2]], params) as servers, socket.create_connection(
            servers[0].server_address, timeout=2.0
        ) as sock:
            send_message(sock, MSG_QUERY, payload)
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ERROR
            assert decode_error_payload(reply) == (net.ERR_MALFORMED_QUERY, f"shift {entry} out of [0:8)")
            send_message(sock, MSG_QUERY, encode_query_payload(params, query))
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ANSWER
            count = int(live_rounds(query, params).sum())
            assert decode_answer_payload(reply, count, params.prime, 1) == live_values(
                scheme.server_answer(storages[2], query.tolist(), params)
            )

    @pytest.mark.parametrize("shift", [8, 15])
    def test_shift_outside_n(self, wide_cluster, shift):
        """At (8,5) a shift travels as a nibble; one not below n = 8 gets
        ERR_MALFORMED_QUERY, and the connection answers the next query."""
        params, _, addresses, servers = wide_cluster
        query = shift_queries(params, 1, 3)[2]
        payload = bytearray(encode_query_payload(params, query))
        payload[4 + 2] = payload[4 + 2] & 0xF0 | shift  # shift 5, a low nibble
        with socket.create_connection(addresses[2], timeout=2.0) as sock:
            send_message(sock, MSG_QUERY, payload)
            assert decode_error_payload(recv_message(sock, net._client_limits(params))[1]) == (
                net.ERR_MALFORMED_QUERY, f"shift {shift} out of [0:8)"
            )
            send_message(sock, MSG_QUERY, encode_query_payload(params, query))
            msg_type, payload = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ANSWER
            count = int(live_rounds(query, params).sum())
            assert decode_answer_payload(payload, count, params.prime, 1) == live_values(
                scheme.server_answer(servers[2].storage, query.tolist(), params)
            )

    @pytest.mark.parametrize("entry", [257, 4095, 65535])
    def test_entry_outside_n_at_16_bits(self, entry):
        """At n = 257 shifts travel as u16s; one not below n is refused
        by the wire decoder, never wrapped into [0:n), and the server
        answers the next query."""
        params = derive_params(257, 1, 129, 257)
        assert params.k_reduced * params.m_files > scheme.SMALL_QUERY_ENTRIES
        sources = scheme.random_sources(params, make_rng(7))
        _, storages = scheme.encode_system(params, sources)
        query = shift_queries(params, 2, 4)[9]
        bad = bytearray(encode_query_payload(params, query))
        bad[4 + 200 : 4 + 202] = struct.pack(">H", entry)  # shift 100
        message = f"shift {entry} out of [0:257)"
        with pytest.raises(WireError, match=re.escape(message)):
            decode_query_payload(bad, params)
        with serving([storages[9]], params) as servers:
            with socket.create_connection(servers[0].server_address, timeout=2.0) as sock:
                send_message(sock, MSG_QUERY, bad)
                assert decode_error_payload(recv_message(sock, net._client_limits(params))[1]) == (
                    net.ERR_MALFORMED_QUERY, message
                )
                send_message(sock, MSG_QUERY, encode_query_payload(params, query))
                msg_type, payload = recv_message(sock, net._client_limits(params))
                assert msg_type == MSG_ANSWER
                count = int(live_rounds(query, params).sum())
                assert decode_answer_payload(payload, count, 257, 1) == live_values(
                    scheme.server_answer(storages[9], query.tolist(), params)
                )

    def test_wide_retrieval_sends_1096_query_bytes(self, monkeypatch):
        """(8,5,256,65537), the benchmark's tcp-wide system: 8 QUERY frames
        of 5 + 4 + 128 bytes, 1,096 B, where wire v4's 9-byte frame and
        16-byte query headers took 1,224, wire v3's u16 ranks 4,296,
        nibble entries 5,320 and u16 entries 20,680."""
        params = derive_params(8, 5, 256, 65537)
        sources = scheme.random_sources(params, make_rng(8)).tolist()
        _, storages = scheme.encode_system(params, sources)
        frames = []
        record_frames(monkeypatch, frames)
        with serving(storages, params) as servers:
            addresses = [server.server_address for server in servers]
            result = client_retrieve(addresses, 200, params, seed=1)
        assert result.source == sources[200]
        assert [frame[0] for _, frame in frames] == [0x51] * 8
        assert sum(len(frame) for _, frame in frames) == 1096
        assert result.upload_bytes == 1096 - 8 * net._HEADER.size == 8 * 132
        # 2 bytes per element (p-1 needs 3, so 4 at most) and a width byte
        assert result.download_bytes <= 8 + 4 * result.download_elements

    def test_server_answers_from_u8_arrays(self, wide_cluster, monkeypatch):
        params, sources, addresses, _ = wide_cluster
        honest = scheme.server_answer
        seen = {}

        def server_answer(storage, query, params):
            seen[storage.server_index] = (
                type(query) is scheme.ShiftQuery
                and query.dtype == np.uint8
                and query.flags.c_contiguous
                and query.shape == (params.k_reduced, params.m_files),
                [bytes(query[r]) for r in range(params.k_reduced)],
            )
            return honest(storage, query, params)

        monkeypatch.setattr(scheme, "server_answer", server_answer)
        assert client_retrieve(addresses, 7, params, seed=11).source == sources[7]
        queries = shift_queries(params, 11, 7)
        assert seen == {
            t: (True, [bytes(row) for row in queries[t].tolist()])
            for t in range(params.n_servers)
        }


class TestShiftQueries:
    """A query the wire decoder builds from shifts reaches server_answer as
    scheme.ShiftQuery (large) or scheme.ShiftRows (small), which it
    answers unchecked; any other query is checked as before."""

    @pytest.mark.parametrize("shape, kind", [
        ((8, 5, 256, 65537), scheme.ShiftQuery),
        ((5, 3, 3, 7), scheme.ShiftRows),
    ])
    def test_retrieval_answers_equal_plain_queries(self, shape, kind, monkeypatch):
        params = derive_params(*shape)
        sources = scheme.random_sources(params, make_rng(6)).tolist()
        _, storages = scheme.encode_system(params, sources)
        honest = scheme.server_answer
        seen = []

        def server_answer(storage, query, params):
            answer = honest(storage, query, params)
            plain_rows = [list(row) for row in query]
            seen.append((
                type(query),
                answer == honest(storage, np.array(query), params),
                answer == honest(storage, plain_rows, params),
            ))
            return answer

        in_process_links(monkeypatch, storages, params)
        monkeypatch.setattr(scheme, "server_answer", server_answer)
        for theta in (0, params.m_files - 1):
            result = client_retrieve(range(params.n_servers), theta, params, seed=theta)
            assert result.source == sources[theta]
        assert seen == [(kind, True, True)] * (2 * params.n_servers)

    @pytest.mark.parametrize("shape", [(8, 5, 256, 65537), (5, 3, 3, 7)])
    @pytest.mark.parametrize("fault", ["repeated entry", "entry not below n"])
    def test_unmarked_invalid_query_is_rejected(self, shape, fault):
        params = derive_params(*shape)
        n = params.n_reduced
        _, storages = scheme.encode_system(params, scheme.random_sources(params, make_rng(2)))
        master = scheme.sample_master_queries(params, make_rng(4), 1)
        bad = scheme.server_queries(master, [1], params)[0, 3].astype(np.uint8)
        if fault == "repeated entry":
            bad[1, 2] = bad[0, 2]
            message = "query column 2 has repeated entries"
        else:
            bad[1, 2] = n
            message = rf"query entry {n} out of \[0:{n}\)"
        for form in (bad, bad.tolist()):
            with pytest.raises(scheme.ProtocolError, match=f"^{message}$"):
                scheme.server_answer(storages[3], form, params)

    @pytest.mark.parametrize("shape, kind", [
        ((8, 1, 129, 257), np.ndarray),  # k = 1: 129 entries
        ((3, 1, 3, 7), list),
    ])
    def test_entries_layout_is_not_marked(self, shape, kind):
        """Only the wire decoder marks a query; the same query as plain
        entries, an array or row lists, is checked by server_answer."""
        params = derive_params(*shape)
        query = shift_queries(params, 1, 2)[1]
        decoded = decode_query_payload(encode_query_payload(params, query), params)
        assert type(decoded) is (scheme.ShiftQuery if kind is np.ndarray else scheme.ShiftRows)
        assert np.array_equal(decoded, query)
        plain = query.copy() if kind is np.ndarray else query.tolist()
        plain[0][1] = params.n_reduced
        with pytest.raises(scheme.ProtocolError, match=f"entry {params.n_reduced} out of"):
            scheme.server_answer(fuzz_storage(params), plain, params)


class TestClientPipeline:
    """client_retrieve places the servers' live values in one (N, k)
    array, 0 in NULL rounds, and decodes it with one scheme.decode."""

    @pytest.mark.parametrize("shape, seeds, nulls", [
        ((5, 3, 3, 7), range(12), True),
        # 256 files: a round is NULL with probability (5/8)^256
        ((8, 5, 256, 65537), range(3), False),
    ])
    def test_decode_gets_the_answer_array(self, shape, seeds, nulls, monkeypatch):
        params = derive_params(*shape)
        code = make_code(*shape[:2], shape[3])
        sources = scheme.random_sources(params, make_rng(shape[2])).tolist()
        _, storages = scheme.encode_system(params, sources, code)
        symbols = np.stack([storage.symbols for storage in storages])
        honest = scheme.decode
        handed = []

        def decode(answers, master, theta, params, code):
            handed.append(answers.copy())
            return honest(answers, master, theta, params, code)

        monkeypatch.setattr(scheme, "decode", decode)
        null_rounds = 0
        with serving(storages, params) as servers:
            addresses = [server.server_address for server in servers]
            for seed in seeds:
                theta = seed % params.m_files
                handed.clear()
                result = client_retrieve(addresses, theta, params, seed=seed)
                master = scheme.sample_master_queries(params, make_rng(seed), 1, scheme.SHIFTS)
                queries = scheme.server_queries(master, [theta], params)[0]
                files, live = retrieve_batch_reference(master, [theta], storages, params, code)
                live = live[0]
                assert len(handed) == 1
                assert handed[0].dtype == np.int64
                assert np.array_equal(handed[0], answer_queries(symbols, queries, params))
                assert not handed[0][~live].any()
                assert result.download_elements == live.sum()
                assert result.source == sources[theta] == files[0].tolist()
                null_rounds += int((~live).sum())
        assert (null_rounds > 0) == nulls


class TestAnswerChecks:
    """The client checks each answer against the query it sent."""

    @pytest.fixture
    def tamper(self, monkeypatch):
        """Make server 2 answer through `change(answer, params)`."""
        honest = scheme.server_answer

        def install(change):
            def server_answer(storage, query, params):
                answer = honest(storage, query, params)
                return change(answer, params) if storage.server_index == 2 else answer

            monkeypatch.setattr(scheme, "server_answer", server_answer)

        return install

    @pytest.fixture
    def tamper_payload(self, monkeypatch):
        """Make server 2 send `change(payload)` as its ANSWER payload."""
        honest = net.StorageServer._answer

        def install(change):
            def answer(server, payload, sequence):
                reply = honest(server, payload, sequence)
                return change(reply) if server.storage.server_index == 2 else reply

            monkeypatch.setattr(net.StorageServer, "_answer", answer)

        return install

    def aborted_by(self, cluster, cause, seed=0):
        params, _, addresses, _ = cluster
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, params, seed=seed)
        assert exc.value.server_index == 2
        assert isinstance(exc.value.cause, cause)

    def test_dropped_live_round(self, cluster, tamper):
        tamper(lambda answer, params: [None] * len(answer))
        self.aborted_by(cluster, net.AnswerLengthError)

    @staticmethod
    def first_seed(params, wanted):
        """The first seed whose query to server 2, for file 0, has live
        rounds for which wanted(live) holds."""
        def server_2_live(seed):
            return live_rounds(shift_queries(params, seed, 0)[2], params)

        return next(seed for seed in itertools.count() if wanted(server_2_live(seed)))

    def test_value_in_null_round(self, cluster, tamper):
        seed = self.first_seed(cluster[0], lambda live: not live.all())
        tamper(lambda answer, params: [0 if a is None else a for a in answer])
        self.aborted_by(cluster, net.AnswerLengthError, seed)

    def test_short_vector(self, cluster, tamper):
        # the last round must be live for its loss to shorten the answer
        seed = self.first_seed(cluster[0], lambda live: live[-1])
        tamper(lambda answer, params: answer[:-1])
        self.aborted_by(cluster, net.AnswerLengthError, seed)

    def test_rejected_answer_leaves_no_idle_socket(self, cluster, tamper):
        """Server 2 answers with one value too few: the retrieval aborts,
        and no socket to server 2 stays in the pool to carry a stale
        frame into the next retrieval."""
        params, sources, addresses, servers = cluster
        seed = self.first_seed(params, lambda live: live[-1])
        tamper(lambda answer, params: answer[:-1])
        for _ in range(3):
            self.aborted_by(cluster, net.AnswerLengthError, seed)
            assert idle_addresses() == addresses[:2]
        assert servers[2].accepts == 3

    def test_late_duplicate_answer_is_never_decoded(self, cluster, monkeypatch):
        """Server 2 sends its first ANSWER again after the client has
        accepted it, and delays its later answers, so the duplicate is
        read alone in place of the answer to its next query on that
        connection, a query with as many live rounds: every retrieval
        returns its source or aborts, the one that meets the duplicate
        with StaleAnswerError."""
        params, sources, addresses, _ = cluster

        def server_2_live(seed):
            return int(live_rounds(shift_queries(params, seed, 0)[2], params).sum())

        second = next(seed for seed in itertools.count(1) if server_2_live(seed) == server_2_live(0))
        accepted, duplicated = threading.Event(), threading.Event()
        senders = []

        def send_again(sock, reply):
            accepted.wait(10)
            send_message(sock, MSG_ANSWER, reply)
            duplicated.set()

        def send_late(sock, reply):
            with contextlib.suppress(OSError):  # the client gave up on it
                send_message(sock, MSG_ANSWER, reply)

        def answer_twice(sock, msg_type, payload):
            if msg_type != MSG_ANSWER or sock.getsockname() != addresses[2]:
                send_message(sock, msg_type, payload)
            elif senders:
                # Sent 0.1 s late from a thread of its own: a sleep on the
                # serving thread would hold back servers 0 and 1 too, and
                # the answer could reach the client with the duplicate.
                senders.append(threading.Timer(0.1, send_late, (sock, payload)))
                senders[-1].start()
            else:
                senders.append(threading.Thread(target=send_again, args=(sock, payload)))
                senders[0].start()
                send_message(sock, msg_type, payload)

        monkeypatch.setattr(net, "send_message", answer_twice)
        outcomes = []
        try:
            for seed in (0, second, second + 1, second + 2):
                try:
                    result = client_retrieve(addresses, 0, params, seed=seed)
                    outcomes.append(result.source == sources[0])
                except RetrievalAbortedError as exc:
                    outcomes.append((exc.server_index, type(exc.cause)))
                if seed == 0:
                    accepted.set()
                    assert duplicated.wait(10)
        finally:
            accepted.set()
            for sender in senders:
                sender.join(10)
                assert not sender.is_alive()
        assert outcomes == [True, (2, net.StaleAnswerError), True, True]

    def test_frame_longer_than_k_rounds(self, cluster, tamper):
        tamper(lambda answer, params: [0] * (len(answer) + 1))
        self.aborted_by(cluster, WireError)

    def test_value_not_below_p(self, cluster, tamper):
        tamper(lambda answer, params: [None if a is None else a + params.prime for a in answer])
        self.aborted_by(cluster, WireError)

    @pytest.mark.parametrize("width", [0, 2, 3, 255])
    def test_width_byte_not_allowed(self, cluster, tamper_payload, width):
        """At p = 7 only width 1 is allowed; the values stay as sent."""
        tamper_payload(lambda payload: bytes([width]) + payload[1:])
        self.aborted_by(cluster, WireError)

    def test_empty_payload(self, cluster, tamper_payload):
        tamper_payload(lambda payload: b"")
        self.aborted_by(cluster, WireError)


class TestConnectionPool:
    def test_retrievals_reuse_connections(self, cluster):
        params, sources, addresses, servers = cluster
        for i in range(50):
            theta = i % 3
            assert client_retrieve(addresses, theta, params, seed=i).source == sources[theta]
        assert sum(server.accepts for server in servers) == params.n_servers

    def test_concurrent_retrievals(self, cluster):
        params, sources, addresses, servers = cluster
        wrong = []

        def client(worker):
            for i in range(25):
                theta = (worker + i) % 3
                try:
                    source = client_retrieve(addresses, theta, params, seed=100 * worker + i).source
                except RetrievalAbortedError as exc:
                    source = exc
                if source != sources[theta]:
                    wrong.append((worker, i, source))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=client, args=(w,)) for w in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        # A connection is opened only while the others to that server are
        # in use, by at most four retrievals at once.
        assert all(1 <= server.accepts <= 4 for server in servers)

    def test_timeout_mid_answer_closes_the_socket(self, cluster, monkeypatch):
        params, sources, addresses, _ = cluster
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        send = net.send_message
        release = threading.Event()
        stalled = []
        lock = threading.Lock()

        def stalling_send(sock, msg_type, payload):
            """Send the first ANSWER in two parts, the second one late."""
            with lock:
                stall = msg_type == MSG_ANSWER and not stalled
                if stall:
                    stalled.append(sock)
            if not stall:
                return send(sock, msg_type, payload)
            frame = net._HEADER.pack(0x52, len(payload)) + payload
            sock.sendall(frame[:3])
            release.wait(10)
            sock.sendall(frame[3:])

        monkeypatch.setattr(net, "send_message", stalling_send)
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 1, params, seed=1, timeout=0.3)
        assert isinstance(exc.value.cause, TimeoutError)
        release.set()
        for seed in (2, 3):
            assert client_retrieve(addresses, 2, params, seed=seed).source == sources[2]

    def test_pool_is_keyed_by_timeout(self, cluster):
        """A pooled socket is reused only by a call of the timeout it was
        armed with; another timeout gets connections of its own."""
        params, sources, addresses, servers = cluster
        for timeout in (5.0, 2.0, 5.0, 2.0):
            result = client_retrieve(addresses, 0, params, seed=0, timeout=timeout)
            assert result.source == sources[0]
        assert [server.accepts for server in servers] == [2] * params.n_servers

    @pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
    def test_timeout_the_kernel_cannot_carry(self, cluster, timeout, monkeypatch):
        params, _, addresses, _ = cluster
        opened = []
        monkeypatch.setattr(net.socket, "create_connection", lambda *args, **kw: opened.append(1))
        with pytest.raises(ValueError, match="timeout"):
            client_retrieve(addresses, 0, params, seed=0, timeout=timeout)
        assert opened == []

    def test_resend_after_stale_connection_is_identical(self, cluster, monkeypatch):
        """Server 2 evicts the pooled connection at its cap: the query is
        resent, identical, on a new connection."""
        params, sources, addresses, servers = cluster
        frames = []
        connect = socket.create_connection
        record_frames(monkeypatch, frames)
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        monkeypatch.setattr(net, "MAX_SERVER_CONNECTIONS", 1)
        pooled = pooled_socket(addresses[2])
        with connect(addresses[2], timeout=2.0):
            wait_until_closed([pooled])
        frames.clear()
        assert client_retrieve(addresses, 1, params, seed=1).source == sources[1]
        to_stale = [frame for address, frame in frames if address == addresses[2]]
        assert len(to_stale) == 2
        assert to_stale[0] == to_stale[1]
        assert len(frames) == params.n_servers + 1
        assert servers[2].accepts == 3

    def test_pool_closes_the_longest_idle_beyond_its_bound(self, cluster, monkeypatch):
        params, sources, addresses, servers = cluster
        monkeypatch.setattr(net, "MAX_IDLE_CONNECTIONS", 2)
        opened = []
        connect = socket.create_connection

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(net.socket, "create_connection", recording_connect)
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        # A set's sockets are closed in server order, so those of servers
        # 0-2 go.
        assert [sock.fileno() == -1 for sock in opened] == [True] * 3 + [False] * 2
        assert idle_addresses() == addresses[3:]
        assert client_retrieve(addresses, 1, params, seed=1).source == sources[1]
        assert [server.accepts for server in servers] == [2, 2, 2, 1, 1]

    def test_send_failure_on_a_pooled_socket_resends_once(self, cluster, monkeypatch):
        """A pooled socket whose send fails is replaced by a new
        connection, which carries the identical query before the next
        server's is sent."""
        params, sources, addresses, servers = cluster
        frames = []
        record_frames(monkeypatch, frames)
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        pooled_socket(addresses[2]).shutdown(socket.SHUT_WR)
        frames.clear()
        assert client_retrieve(addresses, 1, params, seed=1).source == sources[1]
        assert [address for address, _ in frames] == addresses[:3] + addresses[2:]
        assert frames[2][1] == frames[3][1]
        assert [server.accepts for server in servers] == [1, 1, 2, 1, 1]


class TestFraming:
    """A frame is read whole, bytes beyond it are refused, and a frame
    must be complete within the receive timeout of its first read."""

    def test_two_queries_in_one_write_get_two_answers(self, cluster):
        params, _, addresses, _ = cluster
        payload = encode_query_payload(params, SHIFT_QUERY)
        frame = net._HEADER.pack(0x51, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(frame + frame)
            # One answer's payload exactly: a read for a longer one could
            # run into the second answer, which a client never awaits.
            limits = {MSG_ANSWER: 3}
            first, second = recv_message(sock, limits), recv_message(sock, limits)
        # the same values, the second answer's sequence one higher
        assert first[1][1:] == second[1][1:] and second[1][0] == first[1][0] | 1 << 3
        assert first[0] == second[0] == MSG_ANSWER

    def test_short_query_then_another_frame_is_malformed(self, cluster):
        """A QUERY two bytes short, then a valid one in the same write:
        the first read runs past the short frame's end."""
        params, _, addresses, _ = cluster
        payload = encode_query_payload(params, SHIFT_QUERY)
        short = net._HEADER.pack(0x51, len(payload) - 2) + payload[:-2]
        valid = net._HEADER.pack(0x51, len(payload)) + payload
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(short + valid)
            msg_type, reply = recv_message(sock, net._client_limits(params))
            assert msg_type == MSG_ERROR
            assert decode_error_payload(reply) == (
                net.ERR_MALFORMED_QUERY, "bytes beyond the frame"
            )
            assert sock.recv(1) == b""
        assert ask(addresses[0], payload, params)[0] == MSG_ANSWER

    def test_two_answers_in_one_write_abort_the_retrieval(self, cluster, monkeypatch):
        params, sources, addresses, servers = cluster
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        send = net.send_message

        def doubled_send(sock, msg_type, payload):
            if msg_type == MSG_ANSWER and sock.getsockname() == addresses[2]:
                frame = net._HEADER.pack(0x52, len(payload)) + payload
                return sock.sendall(frame + frame)
            return send(sock, msg_type, payload)

        monkeypatch.setattr(net, "send_message", doubled_send)
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 1, params, seed=1)
        assert exc.value.server_index == 2
        assert isinstance(exc.value.cause, WireError)
        assert str(exc.value.cause) == "bytes beyond the frame"
        monkeypatch.setattr(net, "send_message", send)
        assert client_retrieve(addresses, 2, params, seed=2).source == sources[2]
        # Server 2's socket was not pooled; those of servers 3 and 4,
        # never read, were closed with it.
        assert [server.accepts for server in servers] == [1, 1, 2, 2, 2]

    def test_reply_of_another_type_aborts_the_retrieval(self, cluster, monkeypatch):
        """A zero-length QUERY frame passes the client's frame limits and
        is refused as no ANSWER."""
        params, _, addresses, _ = cluster
        send = net.send_message

        def query_reply(sock, msg_type, payload):
            if msg_type == MSG_ANSWER and sock.getsockname() == addresses[2]:
                return sock.sendall(net._HEADER.pack(0x51, 0))
            return send(sock, msg_type, payload)

        monkeypatch.setattr(net, "send_message", query_reply)
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 1, params, seed=1)
        assert exc.value.server_index == 2
        assert type(exc.value.cause) is WireError
        assert str(exc.value.cause) == "expected ANSWER"

    def test_split_frame_restores_the_receive_timeout(self):
        left, right = socket.socketpair()
        with left, right:
            net._kernel_timeouts(right, 2.0)
            armed = right.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)
            frame = net._HEADER.pack(0x52, 3) + bytes([1, 2, 3])
            left.sendall(frame[:3])
            rest = threading.Timer(0.2, left.sendall, [frame[3:]])
            rest.start()
            try:
                reply = recv_message(right, {MSG_ANSWER: 4}, 2.0)
            finally:
                rest.join()
            assert reply == (MSG_ANSWER, bytearray([1, 2, 3]))
            assert right.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16) == armed

    def test_trickled_frame_is_closed_at_its_deadline(self, cluster, monkeypatch):
        """A peer sends a QUERY header, then one payload byte every 0.1 s:
        no read waits the 0.2 s idle timeout, but the frame is closed
        within two of them; the server still answers an honest client."""
        params, sources, addresses, _ = cluster
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.2)
        payload = encode_query_payload(params, SHIFT_QUERY)
        closed = False
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(net._HEADER.pack(0x51, len(payload)))
            start = time.monotonic()
            sock.settimeout(0.1)
            for byte in payload:
                try:
                    sock.sendall(bytes([byte]))
                    closed = sock.recv(1) == b""
                except TimeoutError:
                    continue
                except ConnectionError:  # reset: a byte came after the close
                    closed = True
                break
            elapsed = time.monotonic() - start
        assert closed
        assert elapsed < 2 * 0.2
        assert client_retrieve(addresses, 1, params, seed=0).source == sources[1]

    def test_every_first_byte_but_a_tag_is_a_bad_magic(self):
        """Of the 256 first bytes only 0x51, 0x52 and 0x53 name a frame;
        each of the other 253 raises BadMagicError, read with a server's
        limits or a client's."""
        tags = {0x51: MSG_QUERY, 0x52: MSG_ANSWER, 0x53: MSG_ERROR}
        left, right = socket.socketpair()
        with left, right:
            right.settimeout(2.0)
            refused = 0
            for first in range(256):
                for limits in ({MSG_QUERY: 6}, {MSG_ANSWER: 4, MSG_ERROR: 4}):
                    left.sendall(net._HEADER.pack(first, 0))
                    if first in tags:
                        assert recv_message(right, limits) == (tags[first], bytearray())
                        continue
                    with pytest.raises(BadMagicError):
                        recv_message(right, limits)
                    refused += 1
        assert refused == 2 * 253

    def test_timeout_below_a_microsecond_still_expires(self):
        """A timeval of 0 would block for good; 1e-9 s arms 1 µs."""
        assert net._timeval(1e-9) == net._TIMEVAL.pack(0, 1)
        assert net._timeval(2.5) == net._TIMEVAL.pack(2, 500_000)
        left, right = socket.socketpair()
        with left, right:
            net._kernel_timeouts(right, 1e-9)
            # Had the read no timeout, this frame would end it after 2 s.
            late = threading.Timer(2.0, left.sendall, [bytes(9)])
            late.start()
            try:
                with pytest.raises(TimeoutError):
                    recv_message(right, {MSG_ANSWER: 4})
            finally:
                late.cancel()
                late.join()


class ByteCountingSocket:
    """An accepted socket that adds the bytes of each recv_into and
    sendall to its server's totals and forwards every other attribute:
    the wrapper the benchmark's server host puts on each accepted
    socket."""

    __slots__ = ("_sock", "_server")

    def __init__(self, sock, server):
        self._sock = sock
        self._server = server

    def recv_into(self, buffer, *args):
        nbytes = self._sock.recv_into(buffer, *args)
        self._server.up += nbytes
        return nbytes

    def sendall(self, data, *flags):
        self._server.down += len(data)  # before sending, as the host counts
        self._sock.sendall(data, *flags)

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


class HostedServer(StorageServer):
    """A server that wraps each accepted socket through get_request."""

    up = down = 0

    def get_request(self):
        sock, address = super().get_request()
        return ByteCountingSocket(sock, self), address


class TestServingLoop:
    """One thread serves every server of the process, and no peer
    stalls it."""

    def test_one_thread_serves_every_server_and_connection(self, example_system):
        params, _, sources, _, storages = example_system
        wide = derive_params(8, 5, 32, 257)
        wide_sources = scheme.random_sources(wide, make_rng(32)).tolist()
        _, wide_storages = scheme.encode_system(wide, wide_sources)
        before = set(threading.enumerate())
        with serving(storages, params) as small, serving(wide_storages, wide) as large:
            with contextlib.ExitStack() as peers:
                for server in small + large:
                    for _ in range(3):
                        peers.enter_context(
                            socket.create_connection(server.server_address, timeout=2.0)
                        )
                systems = ((params, small, sources), (wide, large, wide_sources))
                for seed in range(3):
                    for system, servers, files in systems:
                        addresses = [server.server_address for server in servers]
                        source = client_retrieve(addresses, seed, system, seed).source
                        assert source == files[seed]
                (loop,) = set(threading.enumerate()) - before
                assert loop.name == "codedpir-serve"
        # The loop ends with the last server it serves.
        loop.join(5)
        assert not loop.is_alive()

    def test_servers_started_and_stopped_from_many_threads(self, example_system):
        """Four threads each start a cluster, retrieve from it and stop
        it, ten times over, with a short switch interval: every
        retrieval returns its file, and the loop ends with the last
        server however its starts and stops interleave."""
        params, _, sources, _, storages = example_system
        errors = []

        def cycle(index):
            try:
                for round_ in range(10):
                    with serving(storages, params) as servers:
                        addresses = [server.server_address for server in servers]
                        theta = (index + round_) % params.m_files
                        result = client_retrieve(addresses, theta, params, seed=round_)
                        assert result.source == sources[theta]
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=cycle, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert net._loop is None
        for thread in threading.enumerate():
            if thread.name == "codedpir-serve":
                thread.join(5)
                assert not thread.is_alive()

    def test_a_trickling_peer_stalls_no_retrieval(self, cluster, monkeypatch):
        """A peer sends server 0 one byte of a frame and nothing more:
        retrievals from the same process finish before the frame's
        deadline, none waiting for it, and the peer is closed at it."""
        params, sources, addresses, _ = cluster
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.5)
        with socket.create_connection(addresses[0], timeout=2.0) as peer:
            peer.sendall(bytes([0x51]))
            begun = time.monotonic()
            for seed in range(10):
                theta = seed % 3
                assert client_retrieve(addresses, theta, params, seed).source == sources[theta]
            assert time.monotonic() - begun < net.IDLE_TIMEOUT_S
            assert peer.recv(1) == b""
            assert 0.9 * net.IDLE_TIMEOUT_S < time.monotonic() - begun < 3 * net.IDLE_TIMEOUT_S

    def test_a_send_that_would_block_closes_only_its_connection(self, example_system):
        """A peer whose receive buffer is full makes the server's sendall
        raise BlockingIOError: that connection is closed, and the loop
        serves on."""
        params, _, sources, _, storages = example_system

        class Full:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data):
                raise BlockingIOError("send buffer full")

            def __getattr__(self, attr):
                return getattr(self._sock, attr)

        class FullFirst(StorageServer):
            accepts = 0

            def get_request(self):
                sock, address = super().get_request()
                self.accepts += 1
                return (Full(sock) if self.accepts == 1 else sock), address

        servers = [FullFirst(storages[0], params)] + [
            StorageServer(storage, params) for storage in storages[1:]
        ]
        for server in servers:
            start_serving(server)
        try:
            addresses = [server.server_address for server in servers]
            with socket.create_connection(addresses[0], timeout=2.0) as peer:
                send_message(peer, MSG_QUERY, encode_query_payload(params, SHIFT_QUERY))
                assert peer.recv(1) == b""
            assert client_retrieve(addresses, 1, params, seed=3).source == sources[1]
        finally:
            stop_servers(servers)

    def test_the_benchmark_host_sees_every_frame(self, example_system, monkeypatch):
        """The host wraps each accepted socket through get_request and
        traces net.recv_message and net.send_message by name: its byte
        totals equal the frames that the retrievals report, and every
        server frame is read and written through those functions, on the
        serving thread, a QUERY answered before the next frame is read.
        A frame begun meanwhile by another peer makes recv_message raise,
        never return an empty result."""
        params, _, sources, _, storages = example_system
        frames = []
        recv, send = net.recv_message, net.send_message

        def traced_recv(sock, *args, **kwargs):
            result = recv(sock, *args, **kwargs)
            if isinstance(sock, ByteCountingSocket):
                frames.append((threading.current_thread().name, result[0]))
            return result

        def traced_send(sock, msg_type, payload):
            send(sock, msg_type, payload)
            if isinstance(sock, ByteCountingSocket):
                frames.append((threading.current_thread().name, msg_type))

        monkeypatch.setattr(net, "recv_message", traced_recv)
        monkeypatch.setattr(net, "send_message", traced_send)
        query = net._HEADER.pack(0x51, 6) + encode_query_payload(params, SHIFT_QUERY)
        servers = [HostedServer(storage, params) for storage in storages]
        for server in servers:
            start_serving(server)
        try:
            addresses = [server.server_address for server in servers]
            with socket.create_connection(addresses[0], timeout=2.0) as peer:
                peer.sendall(query[:3])
                results = [
                    client_retrieve(addresses, seed % 3, params, seed) for seed in range(10)
                ]
                peer.sendall(query[3:])
                reply = recv(peer, net._client_limits(params))
        finally:
            stop_servers(servers)
        assert [result.source for result in results] == [sources[s % 3] for s in range(10)]
        header = net._HEADER.size
        frame_count = 10 * params.n_servers
        assert sum(server.up for server in servers) == (
            sum(result.upload_bytes for result in results) + header * frame_count + len(query)
        )
        assert sum(server.down for server in servers) == (
            sum(result.download_bytes for result in results) + header * (frame_count + 1)
            + len(reply[1])
        )
        assert frames == [("codedpir-serve", MSG_QUERY), ("codedpir-serve", MSG_ANSWER)] * (
            frame_count + 1
        )


class TestSyscallBudget:
    """On a pooled connection each frame costs one system call at each
    end: the client's sendall and recv_into, the server's recv_into and
    sendall, with no timeout set per retrieval."""

    @pytest.mark.parametrize("system", ["cluster", "wide_cluster"])
    def test_pooled_retrieval_makes_one_call_per_frame(self, system, request, monkeypatch):
        params, sources, addresses, _ = request.getfixturevalue(system)
        calls = []
        count_client_calls(monkeypatch, calls)
        assert client_retrieve(addresses, 0, params, seed=0).source == sources[0]
        # Each new connection is armed once.
        nn = params.n_servers
        assert sorted(calls) == sorted(
            ["settimeout", "setsockopt", "setsockopt", "sendall", "recv_into"] * nn
        )
        calls.clear()
        for seed in range(1, 6):
            assert client_retrieve(addresses, 1, params, seed=seed).source == sources[1]
        assert sorted(calls) == sorted(["sendall", "recv_into"] * 5 * nn)

    @pytest.mark.parametrize("system", ["cluster", "wide_cluster"])
    def test_server_makes_one_read_and_one_send_per_query(self, system, request):
        params, sources, addresses, servers = request.getfixturevalue(system)
        for seed in range(5):
            assert client_retrieve(addresses, 2, params, seed=seed).source == sources[2]
        net._pool.clear()  # each connection's last read then sees the close
        deadline = time.monotonic() + 5.0
        while any(server.calls.count("recv_into") < 6 for server in servers):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for server in servers:
            assert server.accepts == 1
            # made non-blocking once, one read and one send per query, a
            # last read
            expected = ["setblocking", "recv_into"]
            assert sorted(server.calls) == sorted(expected + ["recv_into", "sendall"] * 5)


class TestFuzz:
    """Arbitrary bytes from a peer fail with WireError, or ConnectionError
    when they end mid-frame, and never stop a server."""

    # Frames with any first byte, a v5 tag or not, length and body, and
    # QUERY payloads with the worked example's system tag or any other.
    frames = st.builds(
        lambda tag, length, body: net._HEADER.pack(tag, length) + body,
        st.integers(0, 255) | st.sampled_from([0x51, 0x52, 0x53]),
        st.integers(0, 2**32 - 1) | st.integers(0, 64),
        st.binary(max_size=64),
    )
    query_payloads = st.builds(
        lambda tag, body: tag + body,
        st.just(system_tag(5, 3, 3, 7)) | st.binary(min_size=4, max_size=4),
        st.binary(max_size=40),
    )
    peer_bytes = st.binary(max_size=128) | frames | query_payloads.map(
        lambda payload: net._HEADER.pack(0x51, len(payload)) + payload
    )
    # ANSWER payloads with any head byte: every width and sequence.
    answer_payloads = st.builds(
        lambda head, values: bytes([head]) + values, st.integers(0, 255), st.binary(max_size=24)
    )
    # Shift bodies of the right length, shifts below n or not:
    # (5,3,3,7) 3 nibbles and a pad; (8,5,32,257) 32 nibbles, decoded to
    # an array; (17,2,65,17) 65 bytes, n = 17, decoded to an array;
    # (3,2,3,7) 3 nibbles and a pad, n = 3.
    shift_payloads = (
        st.builds(
            lambda body: system_tag(5, 3, 3, 7) + body,
            st.binary(min_size=2, max_size=2),
        )
        | st.builds(
            lambda seed, top: system_tag(8, 5, 32, 257)
            + net._pack_shifts(np.random.default_rng(seed).integers(0, top, 32).tolist(), 4),
            st.integers(0, 2**32 - 1),
            st.sampled_from([8, 16]),  # every shift below n, or most not
        )
        | st.builds(
            lambda seed, top: system_tag(17, 2, 65, 17)
            + bytes(np.random.default_rng(seed).integers(0, top, 65).tolist()),
            st.integers(0, 2**32 - 1),
            st.sampled_from([17, 18, 256]),
        )
        | st.builds(
            lambda body: system_tag(3, 2, 3, 7) + body,
            st.binary(min_size=2, max_size=2) | st.binary(max_size=4),
        )
    )
    wide_query_payloads = st.builds(
        lambda body: system_tag(8, 5, 32, 257) + body, st.binary(max_size=100)
    )

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.binary(max_size=64)
        | query_payloads
        | shift_payloads
        | wide_query_payloads
        | answer_payloads,
        count=st.integers(0, 6),
        prime=st.sampled_from([7, 257, 65537, WIDEST_PRIME]),
        sequence=st.integers(0, 31),
    )
    def test_payload_decoders(self, payload, count, prime, sequence):
        for params in (
            derive_params(5, 3, 3, 7),
            derive_params(8, 5, 32, 257),
            derive_params(17, 2, 65, 17),
            derive_params(3, 2, 3, 7),
        ):
            try:
                query = decode_query_payload(payload, params)
            except WireError:
                continue
            scheme.validate_query(query, params)  # each shift named a column
            storage = fuzz_storage(params)
            answer = scheme.server_answer(storage, query, params)
            assert type(query) in (scheme.ShiftQuery, scheme.ShiftRows)
            assert answer == scheme.server_answer(storage, np.array(query), params)
            assert answer == scheme.server_answer(storage, [list(row) for row in query], params)
            # a decoded query is encoded back to its own payload
            assert encode_query_payload(params, query) == bytes(payload)
        try:
            values = decode_answer_payload(payload, count, prime, sequence)
        except WireError:
            pass
        else:
            assert payload[0] >> 3 == sequence and len(values) == count
            assert all(0 <= value < prime for value in values)
        try:
            decode_error_payload(payload)
        except WireError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(data=peer_bytes, limits=st.sampled_from([
        {MSG_QUERY: 4 + 2},  # a (5,3,3,7) server's limits, then a client's
        {MSG_ANSWER: 1 + 1 * 3, MSG_ERROR: net.MAX_ERROR_PAYLOAD},
    ]))
    def test_recv_message(self, data, limits):
        """On a socket with a Python timeout, on one armed with kernel
        timeouts and read with its frame deadline, and on a non-blocking
        one read as the serving loop reads it: the same frames, then the
        same error.  Fed a byte at a time, the non-blocking read returns
        those frames too, resuming each one from `pending`."""
        outcomes = []
        for mode in ("python", "kernel", "pending"):
            read = []
            left, right = socket.socketpair()
            with left, right:
                if mode == "kernel":
                    net._kernel_timeouts(right, 2.0)
                else:
                    right.settimeout(2.0 if mode == "python" else 0.0)
                left.sendall(data)
                left.shutdown(socket.SHUT_WR)
                pending = bytearray() if mode == "pending" else None
                try:
                    while True:
                        read.append(recv_message(
                            right, limits, 2.0 if mode == "kernel" else None, pending
                        ))
                except (WireError, ConnectionError) as exc:
                    read.append(type(exc))
            outcomes.append(read)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        left, right = socket.socketpair()
        with left, right:
            right.setblocking(False)
            pending, read = bytearray(), []
            try:
                for byte in data:
                    left.sendall(bytes([byte]))
                    try:
                        read.append(recv_message(right, limits, pending=pending))
                    except BlockingIOError:
                        pass
            except (WireError, ConnectionError):
                pass
        frames = [frame for frame in outcomes[0] if type(frame) is tuple]
        assert read[: len(frames)] == frames

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=peer_bytes)
    def test_server_survives(self, cluster, data):
        params, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            try:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(4096):  # until the server ends the connection
                    pass
            except TimeoutError:
                raise
            except OSError:
                pass  # the server closed it first
        msg_type, _ = ask(addresses[0], encode_query_payload(params, SHIFT_QUERY), params)
        assert msg_type == MSG_ANSWER


def test_importing_net_does_not_load_scipy():
    src = Path(net.__file__).resolve().parents[1]
    code = "import sys, codedpir.net; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, timeout=60
    )
    assert result.returncode == 0
