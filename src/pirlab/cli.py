"""Command-line entry point.

Subcommands: ``params`` (parameter and cost report), ``verify`` (exhaustive
suites), ``serve`` (run one server daemon), ``get`` (networked retrieval),
``bench`` (cost table across database sizes), ``makedb`` (write a database
file).  A ``key = value`` config file can supply any flag; explicit flags
win.  All randomness flows from a single --seed, so a fixed invocation
prints byte-identical reports.  The exception is ``get``: without --seed it
draws the query randomness of every retrieval from the operating system
(``secrets.SystemRandom``), so no server can predict or repeat it.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parameter error, 3 transport error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .engine import comm_cost
from .errors import (
    BudgetExceeded,
    CheckFailure,
    ParamError,
    PirError,
    TransportError,
)
from .mv import k_r_table
from .protocols import PROTOCOL_NAMES, build_named
from .sim import (
    ServerNode,
    bench,
    client_retrieve,
    load_database,
    param_digest,
    run_inprocess,
    save_database,
    serve,
)
from .verify import (
    comm_audit,
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    span_check_all,
    structured_databases,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

_PARAM_KEYS = ("n", "t", "k", "p", "m", "h", "sparse_k", "r")
_INT_KEYS = set(_PARAM_KEYS) | {"seed", "id", "port", "trials", "index", "timeout"}


def _add_protocol_args(sub, skip=()):
    sub.add_argument("protocol", choices=PROTOCOL_NAMES + ("kr",))
    for key in _PARAM_KEYS:
        if key not in skip:
            sub.add_argument(f"--{key.replace('_', '-')}", type=int, default=None)


def _add_shared_args(parser, top_level: bool):
    # The shared flags are accepted before or after the subcommand; the
    # SUPPRESS default keeps a subparser from clobbering a top-level value.
    default = None if top_level else argparse.SUPPRESS
    parser.add_argument("--config", default=default, help="key = value defaults file")
    parser.add_argument("--seed", type=int, default=default, help="64-bit master seed")
    parser.add_argument("--out", default=default, help="also write the report here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirlab",
        description="multi-server private information retrieval laboratory",
    )
    _add_shared_args(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print a parameter/cost report")
    _add_protocol_args(p_params)
    _add_shared_args(p_params, top_level=False)

    p_verify = sub.add_parser("verify", help="run exhaustive verification suites")
    _add_protocol_args(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("all", "correctness", "privacy", "span", "oa", "comm"),
    )
    _add_shared_args(p_verify, top_level=False)

    p_serve = sub.add_parser("serve", help="run one server daemon")
    _add_protocol_args(p_serve)
    p_serve.add_argument("--id", type=int, default=None, help="server index (1-based)")
    p_serve.add_argument("--db", default=None, help="database file path")
    p_serve.add_argument("--port", type=int, default=None)
    p_serve.add_argument("--host", default="127.0.0.1")
    _add_shared_args(p_serve, top_level=False)

    p_get = sub.add_parser("get", help="retrieve one bit from running servers")
    _add_protocol_args(p_get)
    p_get.add_argument("--index", type=int, default=None, help="retrieval index (1-based)")
    p_get.add_argument("--servers", default=None, help="comma-separated host:port list")
    p_get.add_argument("--timeout", type=float, default=5.0)
    _add_shared_args(p_get, top_level=False)

    p_bench = sub.add_parser("bench", help="cost table across database sizes")
    _add_protocol_args(p_bench, skip=("n",))
    p_bench.add_argument("--n", dest="n_values", default=None,
                         help="comma-separated database sizes")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument(
        "--timing", action="store_true", help="include (non-deterministic) time columns"
    )
    _add_shared_args(p_bench, top_level=False)

    p_makedb = sub.add_parser("makedb", help="write a database file")
    p_makedb.add_argument("--n", type=int, required=True)
    p_makedb.add_argument("--db", required=True, help="output path")
    p_makedb.add_argument("--bits", default=None, help="explicit 0/1 string")
    _add_shared_args(p_makedb, top_level=False)
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    with open(args.config) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParamError(f"{args.config}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if not hasattr(args, key):
                raise ParamError(f"{args.config}:{line_no}: unknown key {key!r}")
            if getattr(args, key) is None:
                setattr(
                    args, key, int(value) if key in _INT_KEYS else value
                )


def _protocol_config(args) -> dict:
    return {k: getattr(args, k) for k in _PARAM_KEYS if getattr(args, k, None) is not None}


class _Report:
    """Accumulates deterministic output; mirrors stdout to --out."""

    def __init__(self, out_path):
        self.lines: list[str] = []
        self.out_path = out_path

    def emit(self, *lines: str):
        for line in lines:
            print(line)
            self.lines.append(line)

    def kv(self, mapping: dict):
        for key, value in mapping.items():
            self.emit(f"{key} = {value}")

    def close(self):
        if self.out_path:
            with open(self.out_path, "w") as fh:
                fh.write("\n".join(self.lines) + "\n")


def _scheme_report(scheme, report: _Report):
    report.kv(scheme.report)
    cost = comm_cost(scheme)
    report.kv(
        {
            "rows_per_array": scheme.num_rows,
            "raw_bits_total": f"{cost.raw_bits:g}",
            "query_bytes_per_server": cost.level_bytes,
            "answer_bytes_per_server": cost.answer_bytes,
            "payload_bytes_total": cost.payload_bytes,
            "digest": param_digest(scheme),
        }
    )


def _cmd_params(args, report: _Report) -> int:
    if args.protocol == "kr":
        if args.r is None:
            raise ParamError("params kr requires --r")
        report.kv({"r": args.r, "k_r": k_r_table(args.r)})
        return EXIT_OK
    scheme = build_named(args.protocol, _protocol_config(args))
    _scheme_report(scheme, report)
    return EXIT_OK


def _cmd_verify(args, report: _Report) -> int:
    scheme = build_named(args.protocol, _protocol_config(args))
    suites = (
        ("correctness", "privacy", "span", "oa", "comm")
        if args.suite == "all"
        else (args.suite,)
    )
    ok = True
    for suite in suites:
        if suite == "correctness":
            try:
                r = exhaustive_correctness(scheme)
            except BudgetExceeded:
                r = exhaustive_correctness(
                    scheme, databases=list(structured_databases(scheme.n))
                )
            report.emit(*r.to_lines())
            ok &= r.passed
        elif suite == "privacy":
            r = exhaustive_privacy(scheme)
            report.emit(*r.to_lines())
            ok &= r.passed
        elif suite == "span":
            try:
                count = span_check_all(scheme)
                report.emit(f"span {scheme.name}: PASS ({count} (i, ell) pairs)")
            except CheckFailure as exc:
                report.emit(f"span {scheme.name}: FAIL ({exc})")
                ok = False
        elif suite == "oa":
            try:
                indices = oa_family_check(scheme)
                report.emit(
                    f"oa {scheme.name}: PASS "
                    f"(lambda = {sorted(set(indices.values()))})"
                )
            except CheckFailure as exc:
                report.emit(f"oa {scheme.name}: FAIL ({exc})")
                ok = False
        elif suite == "comm":
            x = (0,) * scheme.n
            _, transcript = run_inprocess(scheme, x, 0, args.seed or 0, check=False)
            audit = comm_audit(scheme, transcript)
            report.emit(*audit.to_lines())
            ok &= audit.passed
    report.emit(f"verdict: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_serve(args, report: _Report) -> int:
    for flag in ("id", "db", "port"):
        if getattr(args, flag) is None:
            raise ParamError(f"serve requires --{flag}")
    scheme = build_named(args.protocol, _protocol_config(args))
    database = load_database(args.db)
    node = ServerNode(server_id=args.id, scheme=scheme, database=database)
    server = serve(node, host=args.host, port=args.port)
    host, port = server.endpoint
    report.emit(
        f"serving {scheme.name} server {args.id}/{scheme.k} on {host}:{port} "
        f"(n={scheme.n}, digest {param_digest(scheme)})"
    )
    try:
        server._thread.join()
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def _parse_endpoints(text: str) -> list[tuple[str, int]]:
    endpoints = []
    for item in text.split(","):
        item = item.strip()
        host, _, port = item.rpartition(":")
        if not port.isdigit():
            raise ParamError(f"bad endpoint {item!r}; expected host:port")
        endpoints.append((host or "127.0.0.1", int(port)))
    return endpoints


def _cmd_get(args, report: _Report) -> int:
    if args.index is None or args.servers is None:
        raise ParamError("get requires --index and --servers")
    scheme = build_named(args.protocol, _protocol_config(args))
    endpoints = _parse_endpoints(args.servers)
    if not 1 <= args.index <= scheme.n:
        raise ParamError(f"--index must be in [1, {scheme.n}]")
    bit, transcript = client_retrieve(
        endpoints, scheme, args.index - 1, args.seed, timeout=args.timeout
    )
    report.emit(f"x_{args.index} = {bit}")
    report.emit(
        f"payload: {transcript.payload_bytes} bytes "
        f"(framing overhead {transcript.framing_bytes} bytes)"
    )
    for entry in transcript.entries:
        report.emit(
            f"  server {entry.server}: query {entry.query_payload_bytes} B, "
            f"answer {entry.answer_payload_bytes} B"
        )
    return EXIT_OK


def _cmd_bench(args, report: _Report) -> int:
    if args.n_values is None:
        raise ParamError("bench requires --n (comma-separated sizes)")
    n_values = [int(v) for v in args.n_values.split(",")]
    config = _protocol_config(args)

    def build(n):
        cfg = dict(config)
        cfg["n"] = n
        return build_named(args.protocol, cfg)

    rows = bench(build, n_values, trials=args.trials, seed=args.seed or 0,
                 timing=args.timing)
    header = list(rows[0].keys())
    report.emit("\t".join(header))
    for row in rows:
        report.emit("\t".join(str(row[k]) for k in header))
    return EXIT_OK


def _cmd_makedb(args, report: _Report) -> int:
    if args.bits is not None:
        if len(args.bits) != args.n or set(args.bits) - {"0", "1"}:
            raise ParamError("--bits must be a 0/1 string of length n")
        x = tuple(int(b) for b in args.bits)
    else:
        rng = random.Random(args.seed or 0)
        x = tuple(rng.randrange(2) for _ in range(args.n))
    save_database(args.db, x)
    report.emit(f"wrote {args.n} bits to {args.db}")
    return EXIT_OK


_COMMANDS = {
    "params": _cmd_params,
    "verify": _cmd_verify,
    "serve": _cmd_serve,
    "get": _cmd_get,
    "bench": _cmd_bench,
    "makedb": _cmd_makedb,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.out)
    try:
        _apply_config(args)
        code = _COMMANDS[args.command](args, report)
    except (ParamError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except CheckFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except PirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        report.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
