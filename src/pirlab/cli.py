"""Command-line entry point.

Subcommands: ``params`` (parameter and cost report), ``verify`` (exhaustive
suites), ``serve`` (run one server daemon), ``get`` (networked retrieval),
``bench`` (cost table across database sizes), ``makedb`` (write a database
file).  A ``key = value`` config file can supply any flag: the key is the
flag's long name, and the value parses as the typed flag would (a switch
takes true, false, 1 or 0).  Explicit flags win, and each subcommand skips
the keys of the others.  All randomness
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
from .errors import ParamError, PirError, TransportError
from .protocols.registry import PARAM_KEYS, PROTOCOL_NAMES, build_named
from .sim import (
    DEFAULT_HOST,
    DEFAULT_TIMEOUT,
    PirServer,
    ServerNode,
    bench,
    client_retrieve,
    load_database,
    param_digest,
    save_database,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

# "all", then verify.SUITES, restated: a server must not load the verifier.
_SUITES = ("all", "correctness", "privacy", "span", "oa", "comm")
# Every flag parses to None when it is not typed, so the config file can
# fill it; these defaults apply after the config file.
_DEFAULTS = {"suite": "all", "host": DEFAULT_HOST, "timeout": DEFAULT_TIMEOUT,
             "trials": 3, "timing": False}


def _switch(value: str) -> bool:
    if value.lower() not in ("true", "false", "1", "0"):
        raise ValueError("expected true, false, 1 or 0")
    return value.lower() in ("true", "1")


def _add_protocol_args(add, skip=(), kr=False):
    """The protocol name and its parameter flags.  Only ``params`` passes
    kr: it alone reads the good-modulus table ``kr`` and its --r."""
    names, keys = PROTOCOL_NAMES, PARAM_KEYS
    if kr:
        names, keys = names + ("kr",), keys + ("r",)
    add("protocol", choices=names)
    for key in keys:
        if key not in skip:
            add(f"--{key.replace('_', '-')}", type=int, default=None)


def _add_shared_args(add, top_level: bool):
    # The shared flags are accepted before or after the subcommand; the
    # SUPPRESS default keeps a subparser from clobbering a top-level value.
    default = None if top_level else argparse.SUPPRESS
    add("--config", default=default, help="key = value defaults file")
    add("--seed", type=int, default=default, help="64-bit master seed")
    add("--out", default=default, help="also write the report here")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict]]:
    """The parser, and each subcommand's flags by config key: the long
    name, ``-`` read as ``_``, of the action ``add_argument`` returned."""
    parser = argparse.ArgumentParser(
        prog="pirlab",
        description="multi-server private information retrieval laboratory",
    )
    _add_shared_args(parser.add_argument, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict] = {}

    def subcommand(name, summary):
        # Its add_argument, recording each flag; every flag has one name.
        sub_parser = sub.add_parser(name, help=summary)
        recorded = flags[name] = {}

        def add(*names, **kwargs):
            action = sub_parser.add_argument(*names, **kwargs)
            if action.option_strings:
                recorded[action.option_strings[0][2:].replace("-", "_")] = action

        return add

    add = subcommand("params", "print a parameter/cost report")
    _add_protocol_args(add, kr=True)
    _add_shared_args(add, top_level=False)

    add = subcommand("verify", "run exhaustive verification suites")
    _add_protocol_args(add)
    add("--suite", choices=_SUITES, help=f"default: {_DEFAULTS['suite']}")
    _add_shared_args(add, top_level=False)

    add = subcommand("serve", "run one server daemon")
    _add_protocol_args(add)
    add("--id", type=int, default=None, help="server index (1-based)")
    add("--db", default=None, help="database file path")
    add("--port", type=int, default=None, help="0 picks a free port")
    add("--host", default=None, help=f"default: {_DEFAULTS['host']}")
    _add_shared_args(add, top_level=False)

    add = subcommand("get", "retrieve one bit from running servers")
    _add_protocol_args(add)
    add("--index", type=int, default=None, help="retrieval index (1-based)")
    add("--servers", default=None, help="comma-separated host:port list")
    add("--timeout", type=float, default=None,
        help=f"seconds per connect and read; default: {_DEFAULTS['timeout']:g}")
    _add_shared_args(add, top_level=False)

    add = subcommand("bench", "cost table across database sizes")
    _add_protocol_args(add, skip=("n",))
    add("--n", dest="n_values", default=None, help="comma-separated database sizes")
    add("--trials", type=int, default=None, help=f"default: {_DEFAULTS['trials']}")
    add("--timing", action="store_true", default=None,
        help="include (non-deterministic) time columns")
    _add_shared_args(add, top_level=False)

    add = subcommand("makedb", "write a database file")
    add("--n", type=int, default=None)
    add("--db", default=None, help="output path")
    add("--bits", default=None, help="explicit 0/1 string")
    _add_shared_args(add, top_level=False)
    return parser, flags


def _config_value(action: argparse.Action, text: str):
    """A config value parsed as its flag would parse it when typed."""
    if action.nargs == 0:  # a store_true switch
        return _switch(text)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return value


def _apply_config(args: argparse.Namespace, flags: dict[str, dict]) -> None:
    """Fill every flag left untyped from --config, then from ``_DEFAULTS``."""
    if args.config:
        own = flags[args.command]
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
                action = own.get(key)
                if action is None:
                    if not any(key in other for other in flags.values()):
                        raise ParamError(f"{where}: unknown key {key!r}")
                    continue  # a flag of another subcommand
                if getattr(args, action.dest) is None:
                    try:
                        setattr(args, action.dest, _config_value(action, value))
                    except ValueError as exc:
                        raise ParamError(f"{where}: bad {key} {value!r}: {exc}") from None
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _protocol_config(args) -> dict:
    return {k: v for k in (*PARAM_KEYS, "r") if (v := getattr(args, k, None)) is not None}


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
    config = _protocol_config(args)
    if args.protocol == "kr":
        from .mv import k_r_table

        if config.pop("r", None) is None:
            raise ParamError("params kr requires --r")
        if config:
            raise ParamError(f"kr does not take parameter(s) {', '.join(config)}")
        report.kv({"r": args.r, "k_r": k_r_table(args.r)})
        return EXIT_OK
    scheme = build_named(args.protocol, config)
    _scheme_report(scheme, report)
    return EXIT_OK


def _cmd_verify(args, report: _Report) -> int:
    from .verify import run_suites

    scheme = build_named(args.protocol, _protocol_config(args))
    suites = _SUITES[1:] if args.suite == "all" else (args.suite,)
    ok, lines = run_suites(scheme, suites, args.seed or 0)
    report.emit(*lines, f"verdict: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_serve(args, report: _Report) -> int:
    for flag in ("id", "db", "port"):
        if getattr(args, flag) is None:
            raise ParamError(f"serve requires --{flag}")
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
        if not (port.isascii() and port.removeprefix("-").isdigit()):
            raise ParamError(f"bad endpoint {item!r}; expected host:port")
        endpoints.append((host or DEFAULT_HOST, int(port)))
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
    if args.n is None or args.db is None:
        raise ParamError("makedb requires --n and --db")
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
    parser, flags = _build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.out)
    try:
        try:
            _apply_config(args, flags)
            return _COMMANDS[args.command](args, report)
        finally:
            report.close()
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (PirError, OSError) as exc:
        # An unreadable --config or --db, or an unwritable --out.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
