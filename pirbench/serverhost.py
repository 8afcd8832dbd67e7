"""
Server host of the tcp workloads: one process running N StorageServers.

The benchmark starts it as a child process (`python3 serverhost.py FD
INDEX_FILE TRACED SRC`) and drives it over the socket FD, so the
servers compete with the client for the machine's cores as separate
deployments would.  Each command is a tuple whose first item names it;
every command gets exactly one reply.  The host stops on "stop" or when
the socket closes.

Besides serving, the host observes the servers from outside the
package's code:
- bytes each accepted socket receives and sends, frame headers included;
- connections accepted;
- the first two rows of every query a server answers, tagged with the
  retrieval index the client publishes in INDEX_FILE (see SharedIndex),
  for the privacy check;
- in a traced run, spans of the package's functions.
"""

from __future__ import annotations

import mmap
import resource
import struct
import sys
import threading
import traceback
from array import array


class SharedIndex:
    """One int64 in a file that the client and the host both map: the
    index of the retrieval in flight, written by the client and read by
    the host without a system call."""

    def __init__(self, path, create: bool = False):
        if create:
            with open(path, "wb") as f:
                f.write(struct.pack("q", -1))
        with open(path, "r+b") as f:
            self._map = mmap.mmap(f.fileno(), 8)

    @property
    def value(self) -> int:
        return struct.unpack_from("q", self._map)[0]

    @value.setter
    def value(self, index: int) -> None:
        struct.pack_into("q", self._map, 0, index)

    def close(self) -> None:
        self._map.close()


class _CountingSocket:
    """An accepted socket that adds every byte moved to its host's totals."""

    __slots__ = ("_sock", "_host")

    def __init__(self, sock, host: "_Host"):
        self._sock = sock
        self._host = host

    def recv(self, size, *flags):
        data = self._sock.recv(size, *flags)
        self._host.count(up=len(data))
        return data

    def recv_into(self, buffer, *args):
        nbytes = self._sock.recv_into(buffer, *args)
        self._host.count(up=nbytes)
        return nbytes

    def sendall(self, data, *flags):
        # Counted before sending: the client can only finish a retrieval
        # after the bytes left, so totals are complete when it asks.
        self._host.count(down=len(data))
        self._sock.sendall(data, *flags)

    def send(self, data, *flags):
        sent = self._sock.send(data, *flags)
        self._host.count(down=sent)
        return sent

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


class _Host:
    def __init__(self, retrieval_index, traced: bool):
        from codedpir import net, scheme

        import tracing

        self.net = net
        self.scheme = scheme
        self.retrieval_index = retrieval_index
        self.batches: list[list] = []
        self.retiring: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._reset()
        self._record_queries()
        self.tracer = None
        if traced:
            self.tracer = tracing.package_tracer(self._trace_hooks())
            self.tracer.install()

        host = self

        class CountingServer(net.StorageServer):
            def get_request(self):
                sock, address = super().get_request()
                host.count(accepts=1)
                return _CountingSocket(sock, host), address

        self.server_class = CountingServer

    def _reset(self):
        with self._lock:
            self.up = self.down = self.accepts = 0
            self.recorded: dict[int, tuple[array, bytearray]] = {}

    def count(self, up=0, down=0, accepts=0):
        with self._lock:
            self.up += up
            self.down += down
            self.accepts += accepts

    def _record_queries(self):
        """Wrap scheme.server_answer to keep rows 0 and 1 of each query
        answered, after the answer succeeded (so bad queries are still
        rejected by the package, not by the recorder)."""
        original = self.scheme.server_answer
        host = self

        def server_answer(storage, query, params):
            answer = original(storage, query, params)
            index = host.retrieval_index.value
            with host._lock:
                indices, rows = host.recorded.setdefault(
                    storage.server_index, (array("q"), bytearray())
                )
                indices.append(index)
                rows += bytes(query[0]) + bytes(query[1])
            return answer

        server_answer.__module__ = original.__module__
        server_answer.__name__ = original.__name__
        self.scheme.server_answer = server_answer

    def _trace_hooks(self):
        msg_query = self.net.MSG_QUERY

        def after_recv(tracer, result, end):
            if result[0] == msg_query:
                tracer.thread_state.query_at = end

        def after_send(tracer, result, end):
            start = getattr(tracer.thread_state, "query_at", None)
            if start is not None:
                tracer.sample("server_handle", end - start)
                tracer.thread_state.query_at = None

        return {
            "net.recv_message": (None, after_recv),
            "net.send_message": (None, after_send),
        }

    # commands -------------------------------------------------------------

    def load(self, paths):
        """Load each storage file and serve it; reply with a batch number
        and the servers' addresses."""
        batch = []
        for path in paths:
            storage, params = self.scheme.load_storage(path)
            server = self.server_class(storage, params)
            server.start()
            batch.append(server)
        self.batches.append(batch)
        return len(self.batches) - 1, [server.server_address for server in batch]

    def begin(self):
        self._reset()
        if self.tracer is not None:
            self.tracer.take()

    def cpu(self) -> float:
        """CPU seconds this process has used so far, all threads."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime

    def end(self):
        """Counts since `begin`, this process's peak resident set in KiB
        so far (before the reply is built), and the trace."""
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with self._lock:
            counts = {
                "peak_kib": peak_kib,
                "up": self.up,
                "down": self.down,
                "accepts": self.accepts,
                "recorded": {t: (idx, bytes(rows)) for t, (idx, rows) in self.recorded.items()},
            }
        counts["trace"] = self.tracer.take() if self.tracer is not None else None
        return counts

    def trace(self, on: bool):
        if self.tracer is None:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def retire(self, batch: int):
        """Start shutting down the servers of one batch, without waiting:
        each takes up to its poll interval to stop."""
        for server in self.batches[batch]:
            thread = threading.Thread(target=_close, args=(server,))
            thread.start()
            self.retiring.append(thread)
        self.batches[batch] = []

    def stop(self):
        """Shut every server down."""
        for batch in range(len(self.batches)):
            self.retire(batch)
        for thread in self.retiring:
            thread.join(timeout=10)


def _close(server) -> None:
    server.shutdown()
    server.server_close()


def main(conn, retrieval_index, traced: bool) -> None:
    """Serve commands from `conn` until "stop"."""
    try:
        host = _Host(retrieval_index, traced)
        conn.send(("ok", None))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            command, *args = conn.recv()
        except EOFError:
            host.stop()
            return
        try:
            reply = getattr(host, command)(*args)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            continue
        conn.send(("ok", reply))
        if command == "stop":
            return


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    fd, index_path, traced, src = sys.argv[1:]
    sys.path.insert(0, src)
    main(Connection(int(fd)), SharedIndex(index_path), traced == "1")
