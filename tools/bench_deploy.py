#!/usr/bin/env python3
"""
Deployment-shaped pairs: one process per server, several client
processes at once, a parent revision against this source tree.

    python3 tools/bench_deploy.py --parent HEAD --systems 5,3,3,257 8,5,256,65537 \\
        --clients 1,4 --pairs 6 --seconds 10 --out BENCH_deploy.json

pirbench/run.py hosts all N servers of a system in one process and
drives them from one client.  This script measures the shape `pir
serve` is deployed in: each server runs in a process of its own
(StorageServer.serve_forever, as `pir serve` runs it), and C client
processes retrieve at once, each over its own pooled connections, for
--seconds.  No process is pinned to a CPU.

For each system, client count and pair, both sides run one after the
other (the parent first in even pairs, the change first in odd ones).
A side encodes the system with its own package (sources drawn from the
pair's seed), saves the N storage files, starts the N servers, lets
each client make 20 untimed retrievals, and then times every retrieval
of every client until the common end.  Each retrieval is checked
against its source file.  Per run it records the median latency over
all clients' retrievals (`retrieve_p50_ms`), their 90th percentile,
retrievals per second over all clients, and the CPU of servers and
clients per retrieval; the output has bench_pairs.py's layout, one
entry per system and client count.  Exits 1 if any retrieval was
wrong, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export, summarize

DIRECTIONS = {
    "retrieve_p50_ms": "lower",
    "retrieve_p90_ms": "lower",
    "retrievals_per_s": "higher",
    "cpu_ms_per_retrieval": "lower",
}
WARM_RETRIEVALS = 20

# Each child below runs with PYTHONPATH set to one side's src.
SETUP = r"""
import json, sys
from pathlib import Path
from codedpir import scheme
system, out, seed = tuple(map(int, sys.argv[1].split(","))), Path(sys.argv[2]), int(sys.argv[3])
params = scheme.derive_params(*system)
sources = scheme.random_sources(params, scheme.make_rng(seed))
_, storages = scheme.encode_system(params, sources)
for t, storage in enumerate(storages):
    scheme.save_storage(out / f"storage-{t}.json", storage, params)
(out / "sources.json").write_text(json.dumps(sources.tolist()))
"""

SERVER = r"""
import contextlib, resource, sys
from codedpir import net, scheme
def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
storage, params = scheme.load_storage(sys.argv[1])
server = net.StorageServer(storage, params)
print(server.server_address[1], flush=True)
begun = cpu()
with contextlib.suppress(KeyboardInterrupt):
    server.serve_forever()
print(cpu() - begun, flush=True)
"""

CLIENT = r"""
import json, resource, sys, time
from codedpir import net, scheme
def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
system = tuple(map(int, sys.argv[1].split(",")))
addresses = [("127.0.0.1", int(port)) for port in sys.argv[2].split(",")]
sources = json.load(open(sys.argv[3]))
seed, start, seconds, warm = int(sys.argv[4]), float(sys.argv[5]), float(sys.argv[6]), int(sys.argv[7])
params = scheme.derive_params(*system)
def right(seed):
    theta = seed % params.m_files
    return net.client_retrieve(addresses, theta, params, seed).source == sources[theta]
wrong = sum(not right(seed + i) for i in range(warm))
seed += warm
time.sleep(max(0.0, start - time.time()))
end, begun, latencies = start + seconds, cpu(), []
while time.time() < end:
    t0 = time.perf_counter()
    wrong += not right(seed)
    latencies.append(time.perf_counter() - t0)
    seed += 1
print(json.dumps({"latencies": latencies, "cpu": cpu() - begun, "wrong": wrong}))
"""


def run_side(tree: Path, system: str, clients: int, seed: int, seconds: float) -> dict:
    """One run of `clients` client processes against one process per
    server, all importing the package from `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory(prefix="bench-deploy-") as scratch:
        work = Path(scratch)
        subprocess.run([sys.executable, "-c", SETUP, system, str(work), str(seed)], env=env, check=True)
        n_servers = int(system.split(",")[0])
        servers = [
            subprocess.Popen(
                [sys.executable, "-c", SERVER, str(work / f"storage-{t}.json")],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for t in range(n_servers)
        ]
        try:
            ports = [server.stdout.readline().strip() for server in servers]
            start = time.time() + 2.0 + 0.5 * clients
            runners = [
                subprocess.Popen(
                    [
                        sys.executable, "-c", CLIENT, system, ",".join(ports),
                        str(work / "sources.json"), str((seed * 1000 + c) * 10**6),
                        repr(start), repr(seconds), str(WARM_RETRIEVALS),
                    ],
                    env=env, stdout=subprocess.PIPE, text=True,
                )
                for c in range(clients)
            ]
            outputs = [runner.communicate()[0] for runner in runners]
            if any(runner.returncode for runner in runners):
                raise RuntimeError(f"a client exited with an error ({tree}, {system})")
            reports = [json.loads(output) for output in outputs]
        finally:
            for server in servers:
                server.send_signal(signal.SIGINT)
            server_cpu = [float(server.communicate()[0].strip() or "nan") for server in servers]
    latencies = np.concatenate([report["latencies"] for report in reports])
    count = len(latencies)
    return {
        "retrievals": count,
        "wrong": sum(report["wrong"] for report in reports),
        "metrics": {
            "retrieve_p50_ms": float(np.median(latencies)) * 1e3,
            "retrieve_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "retrievals_per_s": count / seconds,
            "cpu_ms_per_retrieval": (sum(server_cpu) + sum(r["cpu"] for r in reports))
            / count * 1e3,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--systems", nargs="+", default=["5,3,3,257", "8,5,256,65537"])
    parser.add_argument("--clients", default="1,4", help="client process counts, '1,4'")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        trees = {"parent": Path(scratch), "change": ROOT}
        doc = {
            "command": " ".join(["python3", "tools/bench_deploy.py"] + sys.argv[1:]),
            "parent_commit": export(args.parent, trees["parent"]),
            "machine": {
                "cpus": len(os.sched_getaffinity(0)),
                "arch": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "pairs": {},
        }
        for system in args.systems:
            for clients in map(int, args.clients.split(",")):
                runs = {"parent": [], "change": []}
                for index in range(args.pairs):
                    seed = args.first_seed + index
                    order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                    for side in order:
                        result = run_side(trees[side], system, clients, seed, args.seconds)
                        runs[side].append(result)
                        print(
                            f"{system} clients={clients} seed {seed} {side}: "
                            f"wrong={result['wrong']} "
                            + " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items()),
                            file=sys.stderr,
                            flush=True,
                        )
                doc["pairs"][f"{system} clients={clients}"] = {
                    "wrong": {side: sum(r["wrong"] for r in results) for side, results in runs.items()},
                    "metrics": {
                        name: summarize(
                            [r["metrics"][name] for r in runs["parent"]],
                            [r["metrics"][name] for r in runs["change"]],
                            better,
                        )
                        for name, better in DIRECTIONS.items()
                    },
                }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(sum(entry["wrong"].values()) for entry in doc["pairs"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
