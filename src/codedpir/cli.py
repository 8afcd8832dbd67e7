"""
Operator entry point: one binary, five subcommands.

    pir setup     build source manifests and per-server storage files
    pir serve     run one storage file as a TCP server
    pir retrieve  fetch a file, in-process or against live servers
    pir verify    runtime checks: capacity, bound, privacy, rank, enumerate
    pir bench     parameter sweeps with Monte-Carlo trials

Exit codes, decided in main alone: 0 success or pass; 1 a check failed
or a retrieval did not decode (DecodingError); 2 a usage or parameter
error (ParameterError, BudgetExceededError, a port outside [0:65535],
a count below its least); 3 an I/O or network error
(RetrievalAbortedError).  `pir serve` stops on Ctrl-C and exits 0.
Flags beat the PIR_SEED / PIR_PRIME environment variables, which beat
the defaults (seed 0, p 257).  PIR_PRIME is read only where the
parameters come from flags, so `pir retrieve --storage-dir`, which
takes p from the storage files, never reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, net, scheme, sim

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# main's exit code for each library error, by exact class; an error whose
# message needs a path or other context is raised as a CliError instead.
EXIT_CODES = {
    scheme.ParameterError: EXIT_USAGE,
    analysis.BudgetExceededError: EXIT_USAGE,
    scheme.DecodingError: EXIT_CHECK_FAILED,
    net.RetrievalAbortedError: EXIT_IO,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise CliError(f"{name} must be an integer, got {value!r}", EXIT_USAGE) from None


def _fill_from_environment(args) -> None:
    """Give an absent --seed of the parsed subcommand the value of
    PIR_SEED, else 0.  A subcommand without the flag, or a flag that was
    given, never reads the variable."""
    if getattr(args, "seed", 0) is None:
        args.seed = _env_int("PIR_SEED", 0)


def _params_from_args(args) -> scheme.SystemParams:
    """The parameters the flags give; an absent --p is PIR_PRIME's value,
    else the default prime."""
    prime = args.p if args.p is not None else _env_int("PIR_PRIME", scheme.DEFAULT_PRIME)
    return scheme.derive_params(args.n, args.k, args.m, prime)


def _count(least: int):
    """The argparse type of a count: an integer of at least `least`."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of servers N")
    parser.add_argument("--k", type=int, required=True, help="MDS dimension K")
    parser.add_argument("--m", type=int, required=True, help="number of files M")
    parser.add_argument("--p", type=int, help="field prime p")


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, default=sim.exact_json, indent=2))
    else:
        _emit_text(doc)


def _emit_text(doc, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(doc, list):
        for item in doc:
            _emit_text(item, indent)
    else:
        print(f"{pad}{doc}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_setup(args) -> int:
    params = _params_from_args(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out_dir}: {exc}", EXIT_IO) from exc

    byte_length = None
    if args.source == "random":
        rng = scheme.make_rng(args.seed)
        sources = scheme.random_sources(params, rng).tolist()
    else:
        try:
            data = Path(args.source).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read {args.source}: {exc}", EXIT_IO) from exc
        sources, byte_length = scheme.ingest_bytes(data, params)

    _, storages = scheme.encode_system(params, sources)
    try:
        for i, rows in enumerate(sources):
            doc = scheme.source_to_json(rows, i, params, byte_length)
            (out_dir / f"source-{i}.json").write_text(json.dumps(doc))
        for storage in storages:
            scheme.save_storage(
                out_dir / f"storage-{storage.server_index}.bin", storage, params
            )
    except OSError as exc:
        raise CliError(f"cannot write to {out_dir}: {exc}", EXIT_IO) from exc
    print(
        f"wrote {params.m_files} source manifests and "
        f"{params.n_servers} storage files to {out_dir}"
    )
    return EXIT_OK


def cmd_serve(args) -> int:
    try:
        address = net.parse_address(args.listen)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    try:
        net.serve(args.storage, address)
    except OSError as exc:
        raise CliError(str(exc), EXIT_IO) from exc
    except scheme.ParameterError as exc:
        raise CliError(f"{args.storage}: {exc}", EXIT_USAGE) from exc
    return EXIT_OK


def _load_storage_dir(storage_dir: Path):
    """The N storages of one system, in server order: every storage file
    in the directory must hold the same params, and each server index
    in [0:N) must have exactly one file."""
    paths = sorted(storage_dir.glob("storage-*.bin"))
    if not paths:
        raise CliError(f"no storage-*.bin files in {storage_dir}", EXIT_IO)
    by_index, params = {}, None
    for path in paths:
        try:
            storage, file_params = scheme.load_storage(path)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
        except scheme.ParameterError as exc:
            raise CliError(f"{path}: {exc}", EXIT_USAGE) from exc
        params = params or file_params
        if file_params != params:
            raise CliError(f"{path} and {paths[0]} hold different systems", EXIT_IO)
        if storage.server_index in by_index:
            raise CliError(
                f"{path} and {by_index[storage.server_index][0]} both hold "
                f"server {storage.server_index}",
                EXIT_IO,
            )
        by_index[storage.server_index] = path, storage
    missing = [t for t in range(params.n_servers) if t not in by_index]
    if missing:
        raise CliError(f"{storage_dir} has no storage file for server {missing[0]}", EXIT_IO)
    return [by_index[t][1] for t in range(params.n_servers)], params


def cmd_retrieve(args) -> int:
    if bool(args.storage_dir) == bool(args.servers):
        raise CliError("need exactly one of --storage-dir or --servers", EXIT_USAGE)
    if args.storage_dir:
        storages, params = _load_storage_dir(Path(args.storage_dir))
        rng = scheme.make_rng(args.seed)
        source, downloaded = scheme.retrieve(args.theta, storages, params, rng)
        result = None
    else:
        if not (args.n and args.k and args.m):
            raise CliError("--servers mode needs --n/--k/--m", EXIT_USAGE)
        params = _params_from_args(args)
        try:
            addresses = [net.parse_address(a) for a in args.servers.split(",")]
        except ValueError as exc:
            raise CliError(str(exc), EXIT_USAGE) from exc
        result = net.client_retrieve(addresses, args.theta, params, args.seed)
        source, downloaded = result.source, result.download_elements
    doc = {
        "theta": args.theta,
        "rows": source,
        "download_elements": downloaded,
        "file_len": params.file_len,
        "expected_download": analysis.expected_download(params),
        "capacity": analysis.capacity(params.n_servers, params.k_mds, params.m_files),
    }
    if result is not None:
        doc["download_payload_bytes"] = result.download_bytes
        doc["upload_payload_bytes"] = result.upload_bytes
    _emit(doc, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    n_servers, k_mds, m_files = args.n, args.k, args.m
    if args.mode == "capacity":
        cap = analysis.capacity(n_servers, k_mds, m_files)
        rate = analysis.scheme_rate(params)
        doc = {"check": "capacity", "rate": rate, "capacity": cap, "pass": rate == cap}
    elif args.mode == "bound":
        info = analysis.min_file_length_bound(n_servers, k_mds, m_files)
        expected_gap = 1 if info.tight else Fraction(k_mds, params.d)
        doc = {
            "check": "bound",
            "L": params.file_len,
            "bound": info.bound,
            "tight": info.tight,
            "gap_factor": info.gap_factor,
            "pass": info.gap_factor == expected_gap,
        }
    elif args.mode == "privacy":
        if args.samples:
            rng = scheme.make_rng(args.seed)
            report = analysis.verify_privacy(params, "statistical", rng=rng, samples=args.samples)
        else:
            report = analysis.verify_privacy(params, "exhaustive", budget=args.budget)
        doc = report.to_json(params)
    elif args.mode == "rank":
        rng = scheme.make_rng(args.seed)
        reports = []
        ok = True
        for _ in range(args.trials):
            master = scheme.gen_master_query(params, rng)
            for theta in range(m_files):
                report = analysis.verify_rank_identity(master, theta, params)
                ok &= report.passed
                if not report.passed:
                    reports.append(report.to_json(params))
        doc = {
            "check": "rank-identity",
            "trials": args.trials,
            "pass": ok,
            "failures": reports,
        }
    elif args.mode == "enumerate":
        enumerated = sim.exact_expectation_by_enumeration(params, budget=args.budget)
        formula = analysis.expected_download(params)
        doc = {
            "check": "enumerate",
            "enumerated_mean_download": enumerated,
            "formula": formula,
            "pass": enumerated == formula,
        }

    _emit(doc, args.format)
    return EXIT_OK if doc["pass"] else EXIT_CHECK_FAILED


def _parse_grid(text: str):
    grid = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            parts = [int(x) for x in chunk.split(",")]
        except ValueError:
            parts = []  # not integers: a bad point, as below
        if len(parts) not in (3, 4):
            raise CliError(f"bad grid point {chunk!r}, expected N,K,M[,p]", EXIT_USAGE)
        grid.append(tuple(parts))
    return grid


def cmd_bench(args) -> int:
    grid = _parse_grid(args.grid)
    rows = sim.sweep(grid, args.trials, args.seed)
    for row in rows:
        if "error" in row:
            print(f"skipped ({row['N']},{row['K']},{row['M']}): {row['error']}",
                  file=sys.stderr)
    if args.format == "csv":
        output = sim.rows_to_csv(rows)
    else:
        output = sim.rows_to_json(rows)
    if args.out:
        try:
            Path(args.out).write_text(output)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc
        print(f"wrote {args.out}")
    else:
        print(output, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="encode files into per-server storage")
    _add_param_flags(p_setup)
    p_setup.add_argument("--seed", type=int)
    p_setup.add_argument("--out", required=True, help="output directory")
    p_setup.add_argument(
        "--source", default="random", help="'random' or a path to ingest as bytes"
    )
    p_setup.set_defaults(func=cmd_setup)

    p_serve = sub.add_parser("serve", help="serve one storage file over TCP")
    p_serve.add_argument("--storage", required=True, help="storage file path")
    p_serve.add_argument("--listen", required=True, help="host:port")
    p_serve.set_defaults(func=cmd_serve)

    p_retr = sub.add_parser("retrieve", help="privately retrieve one file")
    p_retr.add_argument("--theta", type=int, required=True, help="file index")
    p_retr.add_argument("--storage-dir", help="directory of storage-*.bin (in-process)")
    p_retr.add_argument("--servers", help="comma-separated host:port list (networked)")
    p_retr.add_argument("--n", type=int)
    p_retr.add_argument("--k", type=int)
    p_retr.add_argument("--m", type=int)
    p_retr.add_argument("--p", type=int)
    p_retr.add_argument("--seed", type=int)
    p_retr.add_argument("--format", choices=("text", "json"), default="text")
    p_retr.set_defaults(func=cmd_retrieve)

    p_verify = sub.add_parser("verify", help="runtime property checks")
    p_verify.add_argument(
        "--mode",
        choices=("privacy", "rank", "capacity", "bound", "enumerate"),
        required=True,
    )
    _add_param_flags(p_verify)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--budget", type=int, default=10**6)
    p_verify.add_argument("--trials", type=_count(1), default=100,
                          help="random realizations for --mode rank")
    p_verify.add_argument("--samples", type=_count(0), default=0,
                          help="use statistical privacy mode with this many samples")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="sweep a parameter grid")
    p_bench.add_argument("--grid", required=True, help="semicolon-separated N,K,M[,p]")
    p_bench.add_argument("--trials", type=_count(0), default=0)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out", help="output path (stdout if omitted)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _fill_from_environment(args)
        return args.func(args)
    except (CliError, *EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
