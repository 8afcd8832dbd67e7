import json
import socket

import pytest

from codedpir import cli, net, scheme

from conftest import start_serving, stop_servers


def run(argv):
    return cli.main(argv)


def usage_error(argv, capsys) -> str:
    """The stderr of an argv that argparse refuses, which exits 2."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pir ")
    return err


@pytest.fixture
def no_sockets(monkeypatch):
    """Fail any attempt to open a socket."""
    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", refuse)


class TestSetup:
    def test_writes_files(self, tmp_path, capsys):
        out = tmp_path / "sys"
        assert run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "7",
                    "--seed", "1", "--out", str(out)]) == 0
        assert len(list(out.glob("storage-*.bin"))) == 5
        assert len(list(out.glob("source-*.json"))) == 3
        header, body = (out / "storage-0.bin").read_bytes().split(b"\n", 1)
        assert json.loads(header)["params"] == {"n": 5, "k": 3, "m": 3, "p": 7}
        # 3 fragments of 2 values, a byte each at p = 7
        assert len(body) == 3 * 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["setup", "--n", "4", "--k", "2", "--m", "2", "--p", "257",
                 "--seed", "9", "--out", str(out)])
        assert (a / "storage-1.bin").read_bytes() == (b / "storage-1.bin").read_bytes()

    def test_ingest_empty_file(self, tmp_path):
        blob = tmp_path / "empty.bin"
        blob.write_bytes(b"")
        out = tmp_path / "sys"
        assert run(["setup", "--n", "5", "--k", "3", "--m", "2", "--p", "257",
                    "--out", str(out), "--source", str(blob)]) == 0
        doc = json.loads((out / "source-0.json").read_text())
        assert doc["byte_length"] == 0
        assert doc["rows"] == [[0, 0, 0], [0, 0, 0]]

    def test_non_prime_modulus(self, tmp_path, capsys):
        assert run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "4",
                    "--out", str(tmp_path / "x")]) == 2


class TestRetrieve:
    @pytest.fixture
    def system_dir(self, tmp_path):
        out = tmp_path / "sys"
        run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "7",
             "--seed", "1", "--out", str(out)])
        return out

    def test_in_process(self, system_dir, capsys):
        assert run(["retrieve", "--theta", "0", "--storage-dir", str(system_dir),
                    "--seed", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        source = json.loads((system_dir / "source-0.json").read_text())
        assert doc["rows"] == source["rows"]
        assert doc["file_len"] == 6
        assert doc["capacity"] == "25/49"

    def test_theta_out_of_range(self, system_dir, capsys):
        assert run(["retrieve", "--theta", "3", "--storage-dir", str(system_dir)]) == 2
        assert capsys.readouterr().err == "error: theta=3 out of [0:3)\n"

    def test_networked_theta_out_of_range(self, capsys, no_sockets):
        assert run(["retrieve", "--theta", "-1", "--servers", ",".join(["h:1"] * 5),
                    "--n", "5", "--k", "3", "--m", "3"]) == 2
        assert capsys.readouterr().err == "error: theta=-1 out of [0:3)\n"

    def test_port_out_of_range(self, capsys, no_sockets):
        """A port beyond 65535 is refused before any connection, not
        taken mod 65536 by the socket layer."""
        servers = ",".join(["127.0.0.1:1"] * 4 + ["127.0.0.1:99999"])
        assert run(["retrieve", "--theta", "0", "--servers", servers,
                    "--n", "5", "--k", "3", "--m", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: bad address '127.0.0.1:99999', port 99999 out of [0:65535]\n"
        )

    def test_decoding_error_exits_1(self, system_dir, capsys, monkeypatch):
        def fail(*args):
            raise scheme.DecodingError("answers do not decode")

        monkeypatch.setattr(scheme, "retrieve", fail)
        assert run(["retrieve", "--theta", "0", "--storage-dir", str(system_dir)]) == 1
        assert capsys.readouterr().err == "error: answers do not decode\n"

    def test_needs_exactly_one_source(self, system_dir):
        assert run(["retrieve", "--theta", "0"]) == 2
        assert run(["retrieve", "--theta", "0", "--storage-dir", str(system_dir),
                    "--servers", "h:1"]) == 2

    def test_bad_server_address(self, capsys):
        assert run(["retrieve", "--theta", "0", "--servers", "bad",
                    "--n", "5", "--k", "3", "--m", "3"]) == 2
        assert capsys.readouterr().err == "error: bad address 'bad', expected host:port\n"

    def test_wrong_address_count(self, capsys):
        assert run(["retrieve", "--theta", "0", "--servers", "h:1,h:2",
                    "--n", "5", "--k", "3", "--m", "3"]) == 2
        assert capsys.readouterr().err == "error: need 5 server addresses, got 2\n"

    def _retrieve_fails(self, system_dir, capsys, code, message):
        assert run(["retrieve", "--theta", "1", "--storage-dir", str(system_dir)]) == code
        assert message in capsys.readouterr().err

    def test_missing_server_file(self, system_dir, capsys):
        (system_dir / "storage-4.bin").unlink()
        self._retrieve_fails(system_dir, capsys, 3, "has no storage file for server 4")

    def test_duplicate_server_index(self, system_dir, capsys):
        (system_dir / "storage-4.bin").write_bytes((system_dir / "storage-3.bin").read_bytes())
        self._retrieve_fails(system_dir, capsys, 3, "both hold server 3")

    def test_server_index_out_of_range(self, system_dir, capsys):
        header, body = (system_dir / "storage-3.bin").read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["server_index"] = 7
        (system_dir / "storage-4.bin").write_bytes(json.dumps(doc).encode() + b"\n" + body)
        self._retrieve_fails(system_dir, capsys, 2, "server_index must be an integer in [0:5)")

    def test_mixed_params(self, system_dir, tmp_path, capsys):
        other = tmp_path / "other"
        run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "11", "--seed", "1",
             "--out", str(other)])
        (system_dir / "storage-4.bin").write_bytes((other / "storage-4.bin").read_bytes())
        capsys.readouterr()
        self._retrieve_fails(system_dir, capsys, 3, "hold different systems")

    def test_no_storage_files(self, tmp_path, capsys):
        self._retrieve_fails(tmp_path, capsys, 3, "no storage-*.bin files")

    def test_networked_partial_cluster_aborts(self, system_dir, capsys):
        storage, params = scheme.load_storage(system_dir / "storage-0.bin")
        server = net.StorageServer(storage, params)
        start_serving(server)
        host, port = server.server_address
        try:
            # 5 addresses, but 4 of them dead
            addrs = ",".join([f"{host}:{port}"] + [f"{host}:1" for _ in range(4)])
            assert run(["retrieve", "--theta", "0", "--servers", addrs,
                        "--n", "5", "--k", "3", "--m", "3", "--p", "7",
                        "--seed", "0"]) == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_networked_json_counts_payload_bytes(self, system_dir, capsys):
        servers = []
        for t in range(5):
            storage, params = scheme.load_storage(system_dir / f"storage-{t}.bin")
            servers.append(net.StorageServer(storage, params))
            start_serving(servers[-1])
        addrs = ",".join(f"{host}:{port}" for host, port in (s.server_address for s in servers))
        try:
            assert run(["retrieve", "--theta", "1", "--servers", addrs, "--n", "5", "--k", "3",
                        "--m", "3", "--p", "7", "--seed", "2", "--format", "json"]) == 0
        finally:
            net._pool.clear()
            stop_servers(servers)
        doc = json.loads(capsys.readouterr().out)
        source = json.loads((system_dir / "source-1.json").read_text())
        assert doc["rows"] == source["rows"]
        # 5 queries of a 4-byte system tag and 3 nibble shifts in 2 bytes;
        # a head byte and one byte per element back
        assert doc["upload_payload_bytes"] == 5 * (4 + 2) == 30
        assert doc["download_payload_bytes"] == 5 + doc["download_elements"]


class TestServe:
    @pytest.mark.parametrize("content, message", [
        (b"not json\n", "no JSON object header line"),
        (b'{"format": "pir-mds-storage/2"}\n', "storage params must be the integers"),
    ])
    def test_malformed_storage_is_a_usage_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "storage-0.bin"
        path.write_bytes(content)
        assert run(["serve", "--storage", str(path), "--listen", "127.0.0.1:0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.fixture
    def storage_file(self, tmp_path, capsys):
        run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "7", "--out", str(tmp_path)])
        capsys.readouterr()
        return str(tmp_path / "storage-0.bin")

    def test_port_out_of_range(self, storage_file, capsys, no_sockets):
        assert run(["serve", "--storage", storage_file, "--listen", "127.0.0.1:99999"]) == 2
        assert capsys.readouterr().err == (
            "error: bad address '127.0.0.1:99999', port 99999 out of [0:65535]\n"
        )

    def test_ctrl_c_closes_the_server_and_exits_0(self, storage_file, monkeypatch):
        servers = []

        def interrupted(server, *args, **kwargs):
            servers.append(server)
            raise KeyboardInterrupt

        monkeypatch.setattr(net.StorageServer, "serve_forever", interrupted)
        assert run(["serve", "--storage", storage_file, "--listen", "127.0.0.1:0"]) == 0
        assert len(servers) == 1 and servers[0].socket.fileno() == -1


class TestVerify:
    def test_capacity(self, capsys):
        assert run(["verify", "--mode", "capacity", "--n", "5", "--k", "3",
                    "--m", "3", "--p", "7"]) == 0
        out = capsys.readouterr().out
        assert "25/49" in out

    def test_bound(self, capsys):
        assert run(["verify", "--mode", "bound", "--n", "5", "--k", "3",
                    "--m", "3", "--p", "7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["L"] == 6 and doc["bound"] == 6 and doc["tight"]

    def test_privacy_exhaustive(self, capsys):
        assert run(["verify", "--mode", "privacy", "--n", "2", "--k", "1",
                    "--m", "2", "--p", "257"]) == 0

    def test_privacy_budget_exceeded(self, capsys):
        assert run(["verify", "--mode", "privacy", "--n", "5", "--k", "3",
                    "--m", "3", "--p", "7", "--budget", "10"]) == 2

    def test_rank(self, capsys):
        assert run(["verify", "--mode", "rank", "--n", "4", "--k", "2",
                    "--m", "2", "--p", "257", "--trials", "20"]) == 0

    @pytest.mark.parametrize("mode, flag, value, least", [
        ("privacy", "--samples", "-5", 0),
        ("rank", "--trials", "0", 1),
    ])
    def test_count_below_its_least(self, mode, flag, value, least, capsys):
        err = usage_error(["verify", "--mode", mode, "--n", "5", "--k", "3", "--m", "3",
                           flag, value], capsys)
        assert f"argument {flag}: must be at least {least}, got {value}" in err

    def test_count_not_an_integer(self, capsys):
        assert "argument --samples: invalid count value: 'x'" in usage_error(
            ["verify", "--mode", "privacy", "--n", "5", "--k", "3", "--m", "3",
             "--samples", "x"], capsys)

    def test_enumerate(self, capsys):
        assert run(["verify", "--mode", "enumerate", "--n", "3", "--k", "2",
                    "--m", "2", "--p", "257", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True


class TestEnvironment:
    # A command that falls back on the variable: its flag is absent.
    UNFLAGGED = {
        "PIR_SEED": ["verify", "--mode", "rank", "--n", "4", "--k", "2", "--m", "2",
                     "--p", "257", "--trials", "1"],
        "PIR_PRIME": ["verify", "--mode", "capacity", "--n", "5", "--k", "3", "--m", "3"],
    }

    @pytest.mark.parametrize("name", ["PIR_SEED", "PIR_PRIME"])
    def test_malformed_variable_is_a_usage_error(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "abc")
        assert run(self.UNFLAGGED[name]) == 2
        assert capsys.readouterr().err == f"error: {name} must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "capacity", "--n", "5", "--k", "3", "--m", "3",
         "--p", "7", "--seed", "4"],
        ["verify", "--mode", "rank", "--n", "4", "--k", "2", "--m", "2",
         "--p", "257", "--trials", "1", "--seed", "4"],
        ["bench", "--grid", "5,3,3", "--seed", "1"],
    ])
    def test_flag_beats_malformed_variable(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("PIR_SEED", "abc")
        monkeypatch.setenv("PIR_PRIME", "x")
        assert run(argv) == 0

    def test_storage_dir_retrieve_ignores_prime_variable(self, tmp_path, monkeypatch, capsys):
        """`retrieve --storage-dir` takes p from the storage files, so a
        malformed PIR_PRIME does not stop it; `--servers` mode reads it."""
        out = tmp_path / "sys"
        run(["setup", "--n", "5", "--k", "3", "--m", "3", "--p", "7", "--seed", "1",
             "--out", str(out)])
        capsys.readouterr()
        monkeypatch.setenv("PIR_PRIME", "x")
        assert run(["retrieve", "--storage-dir", str(out), "--theta", "0"]) == 0
        capsys.readouterr()
        assert run(["retrieve", "--servers", "127.0.0.1:1", "--n", "5", "--k", "3",
                    "--m", "3", "--theta", "0"]) == 2
        assert capsys.readouterr().err == "error: PIR_PRIME must be an integer, got 'x'\n"

    def test_serve_reads_neither_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PIR_SEED", "abc")
        monkeypatch.setenv("PIR_PRIME", "x")
        missing = tmp_path / "storage-0.bin"
        assert run(["serve", "--storage", str(missing), "--listen", "127.0.0.1:0"]) == 3
        assert "PIR_" not in capsys.readouterr().err

    def test_variables_fill_absent_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PIR_SEED", "9")
        monkeypatch.setenv("PIR_PRIME", "11")
        run(["setup", "--n", "4", "--k", "2", "--m", "2", "--out", str(tmp_path / "env")])
        monkeypatch.delenv("PIR_SEED")
        monkeypatch.delenv("PIR_PRIME")
        run(["setup", "--n", "4", "--k", "2", "--m", "2", "--p", "11", "--seed", "9",
             "--out", str(tmp_path / "flags")])
        for t in range(4):
            name = f"storage-{t}.bin"
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


class TestBench:
    def test_single_point_csv(self, capsys):
        assert run(["bench", "--grid", "5,3,3", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("N,K,M,p,L")
        assert "25/49" in lines[1]

    def test_invalid_point_noted_on_stderr(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        assert run(["bench", "--grid", "3,3,2;5,3,3", "--trials", "0",
                    "--out", str(target)]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err
        assert len(target.read_text().strip().splitlines()) == 2

    def test_negative_trials(self, capsys):
        err = usage_error(["bench", "--grid", "5,3,3", "--trials", "-1"], capsys)
        assert "argument --trials: must be at least 0, got -1" in err

    def test_bad_grid(self, capsys):
        assert run(["bench", "--grid", "5,3"]) == 2

    def test_grid_point_not_an_integer(self, capsys):
        assert run(["bench", "--grid", "5,x,3"]) == 2
        assert capsys.readouterr().err == (
            "error: bad grid point '5,x,3', expected N,K,M[,p]\n"
        )
