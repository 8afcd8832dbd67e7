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


def start_serving(server) -> None:
    """Hand the server to the process's serving loop."""
    server.start()


def stop_servers(servers) -> None:
    """Shut the servers down and close them; each returns at once."""
    for server in servers:
        server.server_close()
