#!/usr/bin/env python3
"""
Benchmark of the codedpir package: retrieval latency, throughput, CPU,
memory and bytes on the wire, end to end and per layer.

    python3 pirbench/run.py --workload tcp-533 --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree: it imports `codedpir` from
`src/` there and from nowhere else.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Lines before it give the same figures for people.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from array import array
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    system: tuple[int, int, int, int]  # (N, K, M, p)
    tcp: bool
    # Shares of --seconds spent retrieving and running sim.run_trials;
    # local-533 spends the rest on one full enumeration.
    retrieve_share: float
    trials_share: float
    trial_batch: int  # trials per sim.run_trials call, 0.07 to 0.1 s each
    enumerate: bool
    setup_reps: int  # set-ups per run; setup_s is their median
    retrieval_round: int  # retrievals between two looks at the clock


WORKLOADS = {
    "local-533": Workload((5, 3, 3, 257), False, 0.45, 0.45, 1000, True, 21, 200),
    "tcp-533": Workload((5, 3, 3, 257), True, 0.75, 0.25, 1000, False, 9, 20),
    "tcp-wide": Workload((8, 5, 256, 65537), True, 0.75, 0.25, 20, False, 9, 10),
}

# The p99 printed with the results needs ten samples beyond it.
MIN_RETRIEVALS = 1000

# Retrievals whose queries local-533 replays through the wire codec.
LOCAL_BYTE_SAMPLE = 1000

# The machine-speed probe (see machine_probe) and the times its two
# parts take on the reference machine: timing metrics are scaled to that
# speed.
PROBE_STEPS = 60
PROBE_MATRIX = np.random.default_rng(0).integers(0, 257, size=(8, 8))
REFERENCE_PROBE_S = 0.4e-3
PROBE_ROUND_TRIPS = 5
REFERENCE_LOOPBACK_S = 0.5e-3


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def fail(message: str) -> None:
    print(f"pirbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import codedpir from this tree's src/, refusing any other copy."""
    package_dir = SRC / "codedpir"
    if not (package_dir / "__init__.py").is_file():
        fail(f"no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import codedpir
    from codedpir import net, rs, scheme, sim

    if Path(codedpir.__file__).resolve().parent != package_dir.resolve():
        fail(f"imported codedpir from {codedpir.__file__}, not from {package_dir}")
    return net, rs, scheme, sim


# ---------------------------------------------------------------------------
# the server host process


class ServerHost:
    """Client side of serverhost.main, running in a child process that
    every way out of the benchmark stops and waits for."""

    REPLY_TIMEOUT_S = 60

    def __init__(self, traced: bool, workdir: Path):
        import serverhost

        self.retrieval_index = serverhost.SharedIndex(workdir / "retrieval-index", create=True)
        ours, theirs = socket.socketpair()
        with ours, theirs:
            self.process = subprocess.Popen(
                [
                    sys.executable, str(HERE / "serverhost.py"), str(theirs.fileno()),
                    str(workdir / "retrieval-index"), str(int(traced)), str(SRC),
                ],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL, stdout=sys.stderr,
            )
            self.conn = Connection(ours.detach())
        try:
            self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self):
        if not self.conn.poll(self.REPLY_TIMEOUT_S):
            raise TimeoutError("server host did not reply")
        status, value = self.conn.recv()
        if status != "ok":
            raise RuntimeError(f"server host failed:\n{value}")
        return value

    def call(self, command: str, *args):
        self.conn.send((command, *args))
        return self._reply()

    def close(self) -> None:
        """Stop the servers and the process, and wait for it to end."""
        try:
            if self.process.poll() is None:
                self.call("stop")
        finally:
            self.conn.close()  # a host that missed "stop" sees EOF and stops
            self.retrieval_index.close()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    first_error: str | None = None

    def failure(self, count: int, error: str) -> None:
        self.failed += count
        if self.first_error is None:
            self.first_error = error


def _echo(sock) -> None:
    sock.sendall(sock.recv(64))


def machine_probe(loopback: bool) -> float:
    """The time a fixed computation takes over its time on the reference
    machine: the machine's current slowness, measured apart from the
    program under test.  Like the program, it runs small numpy
    operations mod p driven from Python; with `loopback`, as on the tcp
    workloads, it also starts threads that echo a message over a socket
    pair.  It starts no thread the tracer could count: call it with
    tracing off."""
    t0 = perf_counter()
    x = PROBE_MATRIX
    for _ in range(PROBE_STEPS):
        x = (x @ PROBE_MATRIX) % 257
        x = x[np.argsort(x[:, 0], kind="stable")]
    reference = REFERENCE_PROBE_S
    if loopback:
        reference += REFERENCE_LOOPBACK_S
        for _ in range(PROBE_ROUND_TRIPS):
            ours, theirs = socket.socketpair()
            with ours, theirs:
                echo = threading.Thread(target=_echo, args=(theirs,))
                echo.start()
                ours.sendall(bytes(64))
                ours.recv(64)
                echo.join()
    return (perf_counter() - t0) / reference


def speed_scale(before: float, after: float) -> float:
    """The factor that scales a time to the reference speed, from the
    probes just before and just after the work timed."""
    return 2 / (before + after)


@dataclass
class Round:
    retrievals: int
    wall_s: float
    cpu_s: float  # every process of the workload
    traced: bool
    scale: float  # to the reference speed (speed_scale)
    latencies: slice  # this round's entries in Log.latencies_ns


@dataclass
class Log:
    # Arrays rather than lists: the garbage collector does not walk
    # them, so its pauses do not grow with the length of the run.
    latencies_ns: array = field(default_factory=lambda: array("q"))
    elements: array = field(default_factory=lambda: array("q"))
    thetas: array = field(default_factory=lambda: array("q"))
    retrievals: Tally = field(default_factory=Tally)
    rounds: list[Round] = field(default_factory=list)
    trials: Tally = field(default_factory=Tally)
    trials_done: int = 0
    per_server_load: list[int] = field(default_factory=list)
    # (trials/s, scale to the reference speed) per batch
    trial_rates: list[tuple[float, float]] = field(default_factory=list)


class Measurement:
    """Retrieval rounds and sim.run_trials batches, interleaved.

    A shared machine's speed can drift by tens of percent within
    seconds, so both activities are spread over the whole run rather
    than given one window each, and every round, batch and set-up is
    timed with machine_probe on both sides (see speed_scale).  In a traced
    run, retrieval rounds alternate between untraced and traced, which
    gives the tracing overhead from rounds that ran under the same
    conditions.
    """

    def __init__(self, workload, sources, one, cpu_now, theta_rng, trial_fn, tracer, host, rebuild):
        self.workload = workload
        self.sources = sources
        self.one = one
        self.cpu_now = cpu_now
        self.theta_rng = theta_rng
        self.trial_fn = trial_fn
        self.tracer = tracer
        self.host = host
        self.rebuild = rebuild
        self.log = Log()

    def run(self, seconds: float) -> Log:
        """Measure for about `seconds`; the set-ups after the first are
        spread evenly over the run, so setup_s sees its mix of periods."""
        w = self.workload
        budget = {self.retrieval_round: w.retrieve_share * seconds, self.trial_batch: w.trials_share * seconds}
        spent = dict.fromkeys(budget, 0.0)
        # A traced run needs one untraced and one traced round at least.
        min_count = 2 * w.retrieval_round if self.tracer else MIN_RETRIEVALS
        setups_left = w.setup_reps - 1
        setup_every = (w.retrieve_share + w.trials_share) * seconds / w.setup_reps
        start = perf_counter()
        while True:
            if setups_left and perf_counter() - start >= setup_every * (w.setup_reps - setups_left):
                self.rebuild()
                setups_left -= 1
            behind = [
                step for step in budget
                if spent[step] < budget[step]
                or (step == self.retrieval_round and self.log.retrievals.attempted < min_count)
            ]
            if not behind:
                break
            step = min(behind, key=lambda s: spent[s] / budget[s])
            t0 = perf_counter()
            step()
            spent[step] += perf_counter() - t0
        for _ in range(setups_left):
            self.rebuild()
        return self.log

    def _trace(self, on: bool, prefixes=None) -> None:
        if on:
            self.tracer.install(prefixes)
        else:
            self.tracer.uninstall()
        if self.host and prefixes is None:
            self.host.call("trace", on)

    def retrieval_round(self) -> None:
        """One closed-loop round: each retrieval starts when the last ended."""
        log = self.log
        traced = self.tracer is not None and len(log.rounds) % 2 == 1
        thetas = self.theta_rng.integers(0, self.workload.system[2], size=self.workload.retrieval_round)
        before = machine_probe(self.workload.tcp)
        if traced:
            self._trace(True)
        first = len(log.latencies_ns)
        cpu0, wall0 = self.cpu_now(), perf_counter()
        for theta in thetas.tolist():
            index = len(log.thetas)
            log.thetas.append(theta)
            log.retrievals.attempted += 1
            t0 = perf_counter_ns()
            try:
                decoded, elements = self.one(index, theta)
            except Exception:
                log.retrievals.failure(1, traceback.format_exc())
                continue
            log.latencies_ns.append(perf_counter_ns() - t0)
            if not checks.files_equal(decoded, self.sources[theta]):
                log.retrievals.mismatched += 1
                log.retrievals.failure(1, f"retrieval {index}: file {theta} differs from its source")
                continue
            log.elements.append(elements)
        wall = perf_counter() - wall0
        cpu = self.cpu_now() - cpu0
        if traced:
            self._trace(False)
        scale = speed_scale(before, machine_probe(self.workload.tcp))
        log.rounds.append(Round(len(thetas), wall, cpu, traced, scale, slice(first, len(log.latencies_ns))))

    def trial_batch(self) -> None:
        """One sim.run_trials call; a failed call fails all its trials."""
        log = self.log
        batch = self.workload.trial_batch
        log.trials.attempted += batch
        # Trials are computation in process, so the probe is too.
        before = machine_probe(False)
        if self.tracer:
            self._trace(True, prefixes=("sim.",))
        t0 = perf_counter()
        try:
            stats = self.trial_fn(batch)
        except Exception:
            log.trials.failure(batch, traceback.format_exc())
        else:
            elapsed = perf_counter() - t0
            log.trial_rates.append((batch / elapsed, speed_scale(before, machine_probe(False))))
            log.trials_done += stats.trials
            loads = stats.per_server_load
            log.per_server_load = [a + b for a, b in zip(log.per_server_load, loads)] or list(loads)
        finally:
            if self.tracer:
                self._trace(False, prefixes=("sim.",))


class _ByteCounter:
    """Socket stand-in that counts what net.send_message writes."""

    def __init__(self):
        self.count = 0

    def sendall(self, data):
        self.count += len(data)


def replay_wire_bytes(net, scheme, params, storages, query_seeds, thetas):
    """Bytes the TCP transport would move for these retrievals.

    Regenerates each retrieval's queries from its seed, answers them in
    process and frames query and answer with net.send_message, so the
    count follows the package's own framing and codecs.  Returns
    (upload bytes, download bytes, elements).
    """
    up, down, elements = _ByteCounter(), _ByteCounter(), 0
    for seed, theta in zip(query_seeds, thetas):
        master = scheme.gen_master_query(params, scheme.make_rng(seed))
        for t in range(params.n_servers):
            query = scheme.build_server_query(master, theta, t, params)
            answer = scheme.server_answer(storages[t], query, params)
            net.send_message(up, net.MSG_QUERY, net.encode_query_payload(params, query))
            net.send_message(down, net.MSG_ANSWER, net.encode_answer_payload(answer))
            elements += sum(1 for a in answer if a is not None)
    return up.count, down.count, elements


# ---------------------------------------------------------------------------
# the run


def generate_sources(system, rng):
    """M source files of lam x K field elements, from the benchmark's seed."""
    n_servers, k_mds, m_files, prime = system
    n, k = checks.reduced(n_servers, k_mds)
    return [rng.integers(0, prime, size=(n - k, k_mds)).tolist() for _ in range(m_files)]


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


@dataclass
class System:
    params: object
    code: object
    storages: list
    addresses: list | None  # tcp: one (host, port) per server
    batch: int | None  # tcp: the server host's batch number


def set_up(workload, sources, rs, scheme, host, workdir, rep: int) -> tuple[float, System]:
    """Build the system once; return the time taken and the system.

    Set-up covers derive_params, make_code and encode_system, and on
    tcp workloads also save_storage and load_storage of every server's
    file and the time until every server's socket accepts a connection.
    """
    n_servers, k_mds, _, prime = workload.system
    t0 = perf_counter()
    params = scheme.derive_params(*workload.system)
    code = rs.make_code(n_servers, k_mds, prime)
    _, storages = scheme.encode_system(params, sources, code)
    addresses = batch = None
    if host:
        paths = []
        for t, storage in enumerate(storages):
            path = workdir / f"storage-{rep}-{t}.json"
            scheme.save_storage(path, storage, params)
            paths.append(str(path))
        batch, addresses = host.call("load", paths)
        addresses = [tuple(address) for address in addresses]
        for address in addresses:
            socket.create_connection(address, timeout=5).close()
    return perf_counter() - t0, System(params, code, storages, addresses, batch)


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    net, rs, scheme, sim = import_package()
    workload = WORKLOADS[workload_name]
    n_servers, k_mds, m_files, prime = workload.system
    n_red, k_red = checks.reduced(n_servers, k_mds)
    rng = np.random.default_rng(seed)
    sources = generate_sources(workload.system, rng)
    theta_rng = np.random.default_rng(rng.integers(2**62))
    trial_rng = np.random.default_rng(rng.integers(2**62))
    query_seed_base = int(rng.integers(2**40))

    tracer = tracing.package_tracer(client_hooks()) if traced else None
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root()))
    report = {"workload": workload_name, "checks": {}, "info": {}}
    host = None
    try:
        host = ServerHost(traced, workdir) if workload.tcp else None
        before = machine_probe(workload.tcp)
        if tracer:
            tracer.install()
        setup_time, system = set_up(workload, sources, rs, scheme, host, workdir, 0)
        if tracer:
            tracer.uninstall()
        # (seconds, scale to the reference speed) per set-up
        setup_times = [(setup_time, speed_scale(before, machine_probe(workload.tcp)))]
        params, code, storages, addresses = (
            system.params, system.code, system.storages, system.addresses
        )
        if tracer:
            setup_trace = tracing.merge(
                tracer.take(), host.call("end")["trace"] if host else empty_trace()
            )
            if host:
                host.call("trace", False)

        def rebuild():
            """Another timed set-up, whose system is then dropped."""
            before = machine_probe(workload.tcp)
            elapsed, extra = set_up(workload, sources, rs, scheme, host, workdir, len(setup_times))
            setup_times.append((elapsed, speed_scale(before, machine_probe(workload.tcp))))
            if host:
                host.call("retire", extra.batch)

        if host:
            index_cell = host.retrieval_index

            def one(index, theta):
                index_cell.value = index
                if tracer:
                    tracer.request_id = index
                result = net.client_retrieve(addresses, theta, params, query_seed_base + index)
                return result.source, result.download_elements

            def cpu_now():
                return process_time() + host.call("cpu")

            host.call("begin")
        else:

            def one(index, theta):
                rng = scheme.make_rng(query_seed_base + index)
                return scheme.retrieve(theta, storages, params, rng, code)

            cpu_now = process_time

        def trial_fn(batch):
            return sim.run_trials(params, batch, int(trial_rng.integers(2**62)), theta_policy="uniform")

        log = Measurement(
            workload, sources, one, cpu_now, theta_rng, trial_fn, tracer, host, rebuild
        ).run(seconds)

        enum_points, enum_tally = 0, Tally()
        if workload.enumerate:
            enum_points = checks.query_space_size(n_servers, k_mds, m_files)
            enum_tally.attempted = enum_points
            if tracer:
                tracer.install(prefixes=("sim.",))
            t0 = perf_counter()
            try:
                exact = sim.exact_expectation_by_enumeration(params)
            except Exception:
                enum_tally.failure(enum_points, traceback.format_exc())
            else:
                report["checks"]["enumeration equals the closed form"] = (
                    exact == checks.expected_download(n_servers, k_mds, m_files)
                )
            report["info"]["enumeration seconds"] = perf_counter() - t0
            if tracer:
                tracer.uninstall()
        # Peaks are read before the benchmark's own bookkeeping after the
        # run (the host's reply, the privacy tables), which would add to them.
        client_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        host_counts = host.call("end") if host else None
        host_peak_kib = host_counts["peak_kib"] if host else 0

        if tracer:
            run_trace = tracing.merge(
                tracer.take(), host_counts["trace"] if host else empty_trace()
            )

        retrievals = log.retrievals.attempted
        if host:
            up_bytes, down_bytes = host_counts["up"], host_counts["down"]
            bytes_elements = sum(log.elements)
        else:
            sample = min(LOCAL_BYTE_SAMPLE, retrievals)
            up, down, elements = replay_wire_bytes(
                net, scheme, params, storages,
                [query_seed_base + i for i in range(sample)], log.thetas[:sample],
            )
            scale = retrievals / sample
            up_bytes, down_bytes, bytes_elements = up * scale, down * scale, elements * scale
        if host:
            host.close()
        host = None
    finally:
        if host:
            host.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # checks ------------------------------------------------------------------
    expected = checks.expected_download(n_servers, k_mds, m_files)
    mean_ok, mean = checks.mean_within(log.elements, expected)
    mean = mean if log.elements else 0.0  # every retrieval failed; correct is false
    report["checks"][
        f"mean download {mean:.4f} within {checks.MEAN_Z_LIMIT:g} SE of {float(expected):.4f}"
    ] = mean_ok
    report["checks"]["run_trials per-server loads within tolerance"] = checks.server_loads_within(
        log.per_server_load, log.trials_done, k_red,
        checks.expected_server_load(n_servers, k_mds, m_files),
    )
    report["checks"]["every decoded file equals its source"] = log.retrievals.mismatched == 0
    report["checks"]["wire bytes counted in both directions"] = up_bytes > 0 and down_bytes > 0
    if workload.tcp:
        pvalues = privacy_pvalues(host_counts["recorded"], log.thetas, n_red)
        report["checks"][
            f"each server's view independent of theta (min p {min(pvalues):.3g} >= {checks.PRIVACY_ALPHA:g})"
        ] = len(pvalues) == n_servers and min(pvalues) >= checks.PRIVACY_ALPHA

    tallies = {"retrievals": log.retrievals, "trials": log.trials, "enumeration points": enum_tally}
    report["tallies"] = tallies
    report["correct"] = all(report["checks"].values())
    report["attempted"] = sum(t.attempted for t in tallies.values())
    report["failed"] = sum(t.failed for t in tallies.values())
    report["info"]["retrieval rounds"] = len(log.rounds)
    report["info"]["trial batches"] = len(log.trial_rates)

    if not traced:
        # Timings are scaled to the reference speed (see README.md,
        # "Timing on a shared machine"); the unscaled ones are printed.
        rounds = log.rounds

        def latencies_ms(scaled: bool) -> np.ndarray:
            parts = [
                np.asarray(log.latencies_ns[r.latencies], dtype=np.float64) * (r.scale if scaled else 1.0)
                for r in rounds
            ]
            # Every retrieval failed: correct is false, the figures are moot.
            return np.concatenate(parts + [np.zeros(0)]) / 1e6 if log.latencies_ns else np.zeros(1)

        scaled_ms = latencies_ms(True)
        report["metrics"] = {
            "setup_s": median([t * scale for t, scale in setup_times]),
            "retrieve_p50_ms": float(np.percentile(scaled_ms, 50)),
            "retrievals_per_s": median([r.retrievals / (r.wall_s * r.scale) for r in rounds]),
            "cpu_ms_per_retrieval": 1e3 * median([r.cpu_s * r.scale / r.retrievals for r in rounds]),
            "peak_rss_mb": (client_peak_kib + host_peak_kib) / 1024,
            "download_elements_per_retrieval": mean,
            "download_bytes_per_retrieval": down_bytes / retrievals,
            "upload_bytes_per_retrieval": up_bytes / retrievals,
            "trials_per_s": median([rate / scale for rate, scale in log.trial_rates]),
        }
        # Printed, not gated: ten-run sets spread 0.7-1.5 of their median,
        # because stalls from outside the program set this tail.
        report["info"]["retrieve_p99_ms"] = float(np.percentile(scaled_ms, 99))
        report["info"]["retrievals timed"] = len(log.latencies_ns)
        report["info"]["machine speed / reference speed"] = median([r.scale for r in rounds])
        report["info"]["unscaled setup_s"] = median([t for t, _ in setup_times])
        report["info"]["unscaled retrieve_p50_ms"] = float(np.percentile(latencies_ms(False), 50))
        report["info"]["unscaled retrievals_per_s"] = median([r.retrievals / r.wall_s for r in rounds])
        report["info"]["unscaled cpu_ms_per_retrieval"] = 1e3 * median([r.cpu_s / r.retrievals for r in rounds])
        report["info"]["unscaled trials_per_s"] = median([rate for rate, _ in log.trial_rates])
    else:
        per_retrieval = {
            flag: median([r.wall_s * r.scale / r.retrievals for r in log.rounds if r.traced == flag])
            for flag in (False, True)
        }
        traced_count = sum(r.retrievals for r in log.rounds if r.traced)
        report["metrics"] = layer_metrics(
            setup_trace, run_trace, host_counts, traced_count, retrievals, workload, enum_points,
            setup_connections=(len(setup_times) - 1) * n_servers if workload.tcp else 0,
            overhead_pct=100 * (per_retrieval[True] / per_retrieval[False] - 1),
            bytes_per_element=down_bytes / bytes_elements if bytes_elements else 0.0,
        )
    return report


def work_root() -> Path:
    root = ROOT / ".pirbench_work"
    root.mkdir(exist_ok=True)
    return root


def empty_trace() -> dict:
    return {"durations": {}, "self_times": {}, "samples": {}}


def client_hooks():
    """Client-side hooks: the wait on each server, and the inputs that a
    per-column or per-position-set cache would key on."""

    def after_send(tracer, result, end):
        tracer.thread_state.sent_at = end

    def after_recv(tracer, result, end):
        sent = getattr(tracer.thread_state, "sent_at", None)
        if sent is not None:
            tracer.sample("server_wait", (tracer.request_id, end - sent))

    def on_decode(tracer, args):
        _answers, master, theta = args[:3]
        tracer.sample("desired_column", tuple(row[theta] for row in master))

    def on_erasure_decode(tracer, args):
        code, known = args[:2]
        if isinstance(known, (list, tuple)):
            positions = tuple(sorted({pos for pos, _ in known})[: code.k_msg])
            tracer.sample("position_set", positions)

    return {
        "net.send_message": (None, after_send),
        "net.recv_message": (None, after_recv),
        "scheme.decode": (on_decode, None),
        "rs.erasure_decode": (on_erasure_decode, None),
    }


def privacy_pvalues(recorded, thetas, n_reduced) -> list[float]:
    """One χ² p-value per server, over every query it answered."""
    thetas = np.asarray(thetas)
    pvalues = []
    for t in sorted(recorded):
        indices, rows = recorded[t]
        indices = np.frombuffer(indices, dtype=np.int64)
        rows = np.frombuffer(rows, dtype=np.uint8).reshape(len(indices), 2, -1)
        categories = checks.column_categories(rows[:, 0, :], rows[:, 1, :], n_reduced)
        pvalues.append(checks.theta_independence_pvalue(categories, thetas[indices], n_reduced))
    return pvalues or [0.0]


def layer_metrics(
    setup, measured, host_counts, traced_retrievals, retrievals, workload, enum_points,
    setup_connections, overhead_pct, bytes_per_element,
) -> dict:
    """Per-layer figures: set-up spans from `setup`; everything else
    from `measured`, whose spans come from the traced retrieval rounds
    and from the sim.* spans of trial batches and the enumeration."""

    def med(part, name, scale, key="durations"):
        values = part[key].get(name)
        return median(values) / scale if values else 0.0

    def calls(part, name):
        return len(part["durations"].get(name, ()))

    samples = measured["samples"]
    waits = samples.get("server_wait", [])
    wait_max: dict[int, int] = {}
    for request, wait in waits:
        wait_max[request] = max(wait, wait_max.get(request, 0))
    columns = samples.get("desired_column", [])
    positions = samples.get("position_set", [])
    trial_runs = measured["durations"].get("sim.run_trials", ())
    enum_runs = measured["durations"].get("sim.exact_expectation_by_enumeration", ())
    return {
        "rs.encode_us": med(setup, "rs.encode", 1e3),
        "rs.erasure_decode_us": med(measured, "rs.erasure_decode", 1e3),
        "rs.recovery_matrix_us": med(measured, "rs.recovery_matrix", 1e3),
        "rs.erasure_decode_calls_per_retrieval": calls(measured, "rs.erasure_decode") / traced_retrievals,
        "scheme.server_answer_us": med(measured, "scheme.server_answer", 1e3),
        "scheme.validate_query_us": med(measured, "scheme.validate_query", 1e3),
        "scheme.decode_us": med(measured, "scheme.decode", 1e3, key="self_times"),
        "scheme.gen_master_query_us": med(measured, "scheme.gen_master_query", 1e3),
        "scheme.build_server_query_us": med(measured, "scheme.build_server_query", 1e3),
        "scheme.encode_system_ms": med(setup, "scheme.encode_system", 1e6),
        "scheme.save_storage_ms": med(setup, "scheme.save_storage", 1e6),
        "scheme.load_storage_ms": med(setup, "scheme.load_storage", 1e6),
        "sim.trial_us": median(trial_runs) / 1e3 / workload.trial_batch if trial_runs else 0.0,
        "sim.enum_point_us": median(enum_runs) / 1e3 / enum_points if enum_runs else 0.0,
        "net.connections_per_retrieval": (
            (host_counts["accepts"] - setup_connections if host_counts else 0) / retrievals
        ),
        "net.threads_per_retrieval": calls(measured, "thread.start") / traced_retrievals,
        "net.fanout_ms": med(measured, "net.client_retrieve", 1e6, key="self_times"),
        "net.server_wait_ms": median([w for _, w in waits]) / 1e6,
        "net.server_wait_max_ms": median(list(wait_max.values())) / 1e6,
        "net.server_handle_us": median(samples.get("server_handle", [])) / 1e3,
        "net.encode_query_payload_us": med(measured, "net.encode_query_payload", 1e3),
        "net.decode_query_payload_us": med(measured, "net.decode_query_payload", 1e3),
        "net.encode_answer_payload_us": med(measured, "net.encode_answer_payload", 1e3),
        "net.decode_answer_payload_us": med(measured, "net.decode_answer_payload", 1e3),
        "net.download_bytes_per_element": bytes_per_element,
        "cache.distinct_column_share": len(set(columns)) / len(columns) if columns else 0.0,
        "cache.distinct_position_set_share": len(set(positions)) / len(positions) if positions else 0.0,
        "trace.overhead_pct": overhead_pct,
    }


# ---------------------------------------------------------------------------
# output


def print_report(report: dict, traced: bool) -> None:
    units = declared_units()[1 if traced else 0]
    if set(units) != set(report["metrics"]):
        fail(f"measured metrics {sorted(report['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    print(f"workload {report['workload']} ({'traced' if traced else 'untraced'})")
    for name, value in report["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for what, tally in report["tallies"].items():
        print(f"  {what}: attempted {tally.attempted}, failed {tally.failed}")
        if tally.first_error:
            print(f"    first failure: {tally.first_error.strip().splitlines()[-1]}")
    for name, ok in report["checks"].items():
        print(f"  check {'pass' if ok else 'FAIL'}: {name}")
    for name, value in report["info"].items():
        print(f"  {name}: {value:.6g}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated benchmark still stops its server host on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for every process of the run, so the speed probe times the
    # CPU the work runs on and the client and server host never wait for
    # each other across CPUs whose speeds differ.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
