import threading

import pytest

from codedpir import derive_params, encode_system, make_rng
from codedpir.rs import make_code
from codedpir.scheme import random_sources

# query matrix of the worked (5,3,3) example; desired file index 0
EXAMPLE_QUERY = [[3, 4, 3], [0, 1, 0], [1, 0, 4]]

# a (5,3,3) master of the shift family, the queries the TCP client sends:
# the base column (0, 1, 2) shifted by 3, 4 and 3 mod 5
SHIFT_QUERY = [[3, 4, 3], [4, 0, 4], [0, 1, 0]]


@pytest.fixture
def example_system():
    """(5,3,3) system over F_7 with random files, as in the worked example."""
    params = derive_params(5, 3, 3, 7)
    rng = make_rng(1234)
    sources = random_sources(params, rng).tolist()
    code = make_code(5, 3, 7)
    encoded, storages = encode_system(params, sources, code)
    return params, code, sources, encoded, storages


def start_serving(server) -> threading.Thread:
    """Run server.serve_forever on a daemon thread, polling for shutdown
    every 5 ms: StorageServer.start keeps serve_forever's 0.5 s, which
    every stop would wait out."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.005}, daemon=True
    )
    thread.start()
    return thread


def stop_servers(servers) -> None:
    """Shut the servers down in parallel, then close them."""
    stoppers = [threading.Thread(target=server.shutdown) for server in servers]
    for stopper in stoppers:
        stopper.start()
    for stopper in stoppers:
        stopper.join(timeout=10)
        assert not stopper.is_alive()
    for server in servers:
        server.server_close()
