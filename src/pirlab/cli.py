"""Command-line entry point.

Subcommands: ``params`` (parameter and cost report), ``verify`` (exhaustive
suites), ``serve`` (run one server daemon), ``get`` (networked retrieval),
``bench`` (cost table across database sizes), ``makedb`` (write a database
file).  A ``key = value`` config file can supply any flag; explicit flags
win, and each subcommand skips the keys of the others.  All randomness
flows from a single --seed, so a fixed invocation prints byte-identical
reports.  The exception is ``get``: without --seed it draws the query
randomness of every retrieval from the operating system
(``random.SystemRandom``, which reads ``os.urandom``), so no server can
predict or repeat it.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parameter error, 3 transport error.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .protocols.registry import PROTOCOL_NAMES, build_named
from .sim import (
    PirServer,
    ServerNode,
    bench,
    client_retrieve,
    load_database,
    param_digest,
    run_inprocess,
    save_database,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

_PARAM_KEYS = ("n", "t", "k", "p", "m", "h", "sparse_k")
_SUITES = ("all", "correctness", "privacy", "span", "oa", "comm")
# Every flag parses to None when it is not typed, so the config file can
# fill it; these defaults apply after the config file.
_DEFAULTS = {"suite": "all", "host": "127.0.0.1", "timeout": 5.0, "trials": 3,
             "timing": False}


def _suite(value: str) -> str:
    if value not in _SUITES:
        raise ValueError(f"expected one of {', '.join(_SUITES)}")
    return value


def _switch(value: str) -> bool:
    if value.lower() not in ("true", "false", "1", "0"):
        raise ValueError("expected true, false, 1 or 0")
    return value.lower() in ("true", "1")


# How a config value is parsed, by key: one entry for each flag of every
# subcommand.  A subcommand skips the keys of the others.
_CONFIG_TYPES = {
    **dict.fromkeys(
        _PARAM_KEYS + ("r", "seed", "id", "port", "trials", "index"), int
    ),
    **dict.fromkeys(("out", "db", "host", "servers", "n_values", "bits"), str),
    "timeout": float,
    "suite": _suite,
    "timing": _switch,
}


def _add_protocol_args(sub, skip=(), kr=False):
    """The protocol name and its parameter flags.  Only ``params`` passes
    kr: it alone reads the good-modulus table ``kr`` and its --r."""
    names, keys = PROTOCOL_NAMES, _PARAM_KEYS
    if kr:
        names, keys = names + ("kr",), keys + ("r",)
    sub.add_argument("protocol", choices=names)
    for key in keys:
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
    _add_protocol_args(p_params, kr=True)
    _add_shared_args(p_params, top_level=False)

    p_verify = sub.add_parser("verify", help="run exhaustive verification suites")
    _add_protocol_args(p_verify)
    p_verify.add_argument("--suite", choices=_SUITES, help="default: all")
    _add_shared_args(p_verify, top_level=False)

    p_serve = sub.add_parser("serve", help="run one server daemon")
    _add_protocol_args(p_serve)
    p_serve.add_argument("--id", type=int, default=None, help="server index (1-based)")
    p_serve.add_argument("--db", default=None, help="database file path")
    p_serve.add_argument("--port", type=int, default=None, help="0 picks a free port")
    p_serve.add_argument("--host", default=None, help="default: 127.0.0.1")
    _add_shared_args(p_serve, top_level=False)

    p_get = sub.add_parser("get", help="retrieve one bit from running servers")
    _add_protocol_args(p_get)
    p_get.add_argument("--index", type=int, default=None, help="retrieval index (1-based)")
    p_get.add_argument("--servers", default=None, help="comma-separated host:port list")
    p_get.add_argument("--timeout", type=float, default=None,
                       help="seconds per connect and read; default: 5")
    _add_shared_args(p_get, top_level=False)

    p_bench = sub.add_parser("bench", help="cost table across database sizes")
    _add_protocol_args(p_bench, skip=("n",))
    p_bench.add_argument("--n", dest="n_values", default=None,
                         help="comma-separated database sizes")
    p_bench.add_argument("--trials", type=int, default=None, help="default: 3")
    p_bench.add_argument(
        "--timing", action="store_true", default=None,
        help="include (non-deterministic) time columns",
    )
    _add_shared_args(p_bench, top_level=False)

    p_makedb = sub.add_parser("makedb", help="write a database file")
    p_makedb.add_argument("--n", type=int, required=True)
    p_makedb.add_argument("--db", required=True, help="output path")
    p_makedb.add_argument("--bits", default=None, help="explicit 0/1 string")
    _add_shared_args(p_makedb, top_level=False)
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill every flag left untyped from --config, then from ``_DEFAULTS``."""
    if args.config:
        with open(args.config) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{args.config}:{line_no}"
                if "=" not in line:
                    raise ParamError(f"{where}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if not hasattr(args, key):
                    if key not in _CONFIG_TYPES:
                        raise ParamError(f"{where}: unknown key {key!r}")
                    continue  # a flag of another subcommand
                if getattr(args, key) is None:
                    try:
                        setattr(args, key, _CONFIG_TYPES.get(key, str)(value))
                    except ValueError as exc:
                        raise ParamError(f"{where}: bad {key} {value!r}: {exc}") from None
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _protocol_config(args) -> dict:
    return {k: getattr(args, k) for k in _PARAM_KEYS if getattr(args, k, None) is not None}


class _Report:
    """Accumulates deterministic output; mirrors stdout to --out."""

    def __init__(self, out_path):
        self.lines: list[str] = []
        self.out_path = out_path

    def emit(self, *lines: str):
        for line in lines:
            # Flushed, so a reader on a pipe sees a server's banner at once.
            print(line, flush=True)
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
        from .mv import k_r_table

        if args.r is None:
            raise ParamError("params kr requires --r")
        report.kv({"r": args.r, "k_r": k_r_table(args.r)})
        return EXIT_OK
    scheme = build_named(args.protocol, _protocol_config(args))
    _scheme_report(scheme, report)
    return EXIT_OK


def _cmd_verify(args, report: _Report) -> int:
    from .verify import (
        comm_audit,
        exhaustive_correctness,
        exhaustive_privacy,
        oa_family_check,
        span_check_all,
        structured_databases,
    )

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
                    scheme, databases=structured_databases(scheme.n)
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
    if not 0 <= args.port <= 65535:
        raise ParamError(f"--port must be in [0, 65535], got {args.port}")
    scheme = build_named(args.protocol, _protocol_config(args))
    node = ServerNode(args.id, scheme, load_database(args.db))
    try:
        server = PirServer(node, host=args.host, port=args.port)
    except OSError as exc:
        raise TransportError(
            f"cannot listen on {args.host}:{args.port}: {exc}"
        ) from None
    host, port = server.endpoint
    report.emit(
        f"serving {scheme.name} server {args.id}/{scheme.k} on {host}:{port} "
        f"(n={scheme.n}, digest {server.digest})",
        "warning: plain TCP, no TLS; privacy holds only over private client links",
    )
    with server, contextlib.suppress(KeyboardInterrupt):
        server.serve_forever()
    return EXIT_OK


def _parse_endpoints(text: str) -> list[tuple[str, int]]:
    endpoints = []
    for item in text.split(","):
        item = item.strip()
        host, _, port = item.rpartition(":")
        if not (port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
            raise ParamError(
                f"bad endpoint {item!r}; expected host:port with port in [1, 65535]"
            )
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
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
    except ValueError:
        raise ParamError(
            f"bad --n {args.n_values!r}; expected comma-separated integers"
        ) from None
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
    if args.n < 1:
        raise ParamError(f"--n must be >= 1, got {args.n}")
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
        try:
            _apply_config(args)
            return _COMMANDS[args.command](args, report)
        finally:
            report.close()
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except CheckFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (PirError, OSError) as exc:
        # An unreadable --config or --db, or an unwritable --out.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
