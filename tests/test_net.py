import random
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from codedpir import derive_params, make_rng
from codedpir import net, scheme
from codedpir.net import (
    MSG_QUERY,
    RetrievalAbortedError,
    ServerSideError,
    StorageServer,
    WireError,
    client_retrieve,
    decode_answer_payload,
    decode_query_payload,
    encode_answer_payload,
    encode_query_payload,
    parse_address,
    recv_message,
    send_message,
)


@pytest.fixture
def cluster(example_system):
    params, _, sources, _, storages = example_system
    servers = [StorageServer(st, params) for st in storages]
    for server in servers:
        server.start()
    yield params, sources, [s.server_address for s in servers], servers
    # Each shutdown waits up to the server's 0.5 s poll interval; in
    # parallel the five waits overlap.
    stoppers = [threading.Thread(target=server.shutdown) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=10)
        assert not stopper.is_alive()
    for server in servers:
        server.server_close()


class TestPayloads:
    def test_query_round_trip(self):
        params = derive_params(5, 3, 3, 7)
        rng = random.Random(0)
        for _ in range(50):
            query = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            payload = encode_query_payload(params, query)
            header, flat = decode_query_payload(payload)
            assert header == (5, 3, 3, 7)
            assert flat == [e for row in query for e in row]

    def test_answer_round_trip(self):
        rng = random.Random(1)
        for _ in range(100):
            answer = [
                None if rng.random() < 0.3 else rng.randrange(2**40)
                for _ in range(rng.randint(0, 6))
            ]
            assert decode_answer_payload(encode_answer_payload(answer)) == answer

    def test_answer_byte_sizes(self):
        # present round = 9 bytes (flag + u64), NULL round = 1 byte
        assert len(encode_answer_payload([5])) == 2 + 9
        assert len(encode_answer_payload([None])) == 2 + 1
        assert len(encode_answer_payload([None, 5, 7])) == 2 + 1 + 9 + 9

    def test_truncated_answer(self):
        payload = encode_answer_payload([1, 2])[:-3]
        with pytest.raises(WireError):
            decode_answer_payload(payload)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        with pytest.raises(ValueError):
            parse_address("nope")


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
        query = [[3, 4, 3], [0, 1, 0], [1, 0, 4]]
        with pytest.raises(ServerSideError) as exc:
            net._query_one(addresses[0], other, query, timeout=2.0)
        assert exc.value.code == net.ERR_PARAM_MISMATCH

    def test_malformed_query_error_code_2(self, cluster):
        params, _, addresses, _ = cluster
        dup = [[3, 4, 3], [3, 1, 0], [1, 0, 4]]  # repeated column entry
        with pytest.raises(ServerSideError) as exc:
            net._query_one(addresses[0], params, dup, timeout=2.0)
        assert exc.value.code == net.ERR_MALFORMED_QUERY

    def test_wrong_magic_closes_connection(self, cluster):
        _, _, addresses, _ = cluster
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            sock.sendall(b"NOPE" + bytes(5))
            sock.settimeout(2.0)
            assert sock.recv(1024) == b""

    def test_server_down_aborts_with_index(self, cluster):
        params, _, addresses, servers = cluster
        servers[3].shutdown()
        servers[3].server_close()
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, params, seed=0, timeout=1.0)
        assert exc.value.server_index == 3

    def test_wrong_address_count(self, cluster):
        params, _, addresses, _ = cluster
        with pytest.raises(net.ParameterMismatch):
            client_retrieve(addresses[:4], 0, params, seed=0)

    def test_multiple_queries_per_connection(self, cluster):
        params, _, addresses, _ = cluster
        query = [[3, 4, 3], [0, 1, 0], [1, 0, 4]]
        with socket.create_connection(addresses[0], timeout=2.0) as sock:
            for _ in range(3):
                send_message(sock, MSG_QUERY, encode_query_payload(params, query))
                msg_type, payload = recv_message(sock)
                assert msg_type == net.MSG_ANSWER
                assert decode_answer_payload(payload)[0] is None


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

    def aborted_by(self, cluster, cause):
        params, _, addresses, _ = cluster
        with pytest.raises(RetrievalAbortedError) as exc:
            client_retrieve(addresses, 0, params, seed=0)
        assert exc.value.server_index == 2
        assert isinstance(exc.value.cause, cause)

    def test_dropped_live_round(self, cluster, tamper):
        tamper(lambda answer, params: [None] * len(answer))
        self.aborted_by(cluster, scheme.AnswerMismatchError)

    def test_value_in_null_round(self, cluster, tamper):
        tamper(lambda answer, params: [0 if a is None else a for a in answer])
        self.aborted_by(cluster, scheme.AnswerMismatchError)

    def test_short_vector(self, cluster, tamper):
        tamper(lambda answer, params: answer[:-1])
        self.aborted_by(cluster, scheme.AnswerMismatchError)

    def test_value_not_below_p(self, cluster, tamper):
        tamper(lambda answer, params: [None if a is None else a + params.prime for a in answer])
        self.aborted_by(cluster, WireError)


def test_importing_net_does_not_load_scipy():
    src = Path(net.__file__).resolve().parents[1]
    code = "import sys, codedpir.net; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, timeout=60
    )
    assert result.returncode == 0
