"""The four seeded workloads and the metrics derived from their runs.

Every workload is a closed loop with one client: the next request is sent
only after the previous one completed.  Databases, retrieval indices and
per-retrieval seeds all come, in that order, from one
``random.Random(seed)``; indices are uniform over [0, n).  Retrievals never
go through ``pirlab get``, whose default seed would repeat every query.

A request is one private retrieval on ``cube-tcp``, ``curve-inproc`` and
``small-tcp``, and one full verification pass on ``verify-desk`` (every
desk scheme through the correctness, privacy, span, OA and communication
suites, plus the ``broken-demo`` negative control, which must fail).

End-to-end metrics (untraced run) bounded in ``BENCHMARK.json``:
``setup_s``, the median of ``2 * SETUPS`` set-ups (scheme builds, database
files, server start until the first CONFIG reply; ``desk_schemes()`` on
``verify-desk``); ``payload_bytes`` per request; ``peak_rss_mb``, the
largest peak RSS of this process (``getrusage``) and of any server (VmHWM,
read before it is stopped).  Reported without a bound (see
``unbounded_metrics``): ``request_p50_ms`` (on ``verify-desk`` the median
pass time, ``verify_s``), ``request_p90_ms``, ``requests_per_s`` and
``cpu_ms_per_request``, the user plus system CPU time of this process and
every server over the timed loop, per request.

Per-layer metrics (traced run only; medians over traced requests):

- ``engine.answer_ms``: one server's ``answer`` call; ``..._ns_per_set_bit``
  divides it by the set bits of that database.
- ``engine.*_us``: per retrieval, summed over its k queries or answers;
  query decode and answer encode are the server side, measured by replay.
- ``sim.server_answer_ms``: per retrieval, the slowest server's
  ``ServerNode.answer_payload`` (replayed in-process after each TCP
  retrieval; the transcript's per-server time on ``curve-inproc``).
  ``sim.answer_bits_per_s`` is n over it.
- ``sim.transport_ms``: ``client_retrieve`` minus the slowest server answer
  minus the client-side engine spans.  ``sim.handshake_ms``: per connection,
  connect plus the HELLO/CONFIG round trip.
- ``sim.wire_bytes_per_retrieval``: bytes through the client sockets;
  ``sim.unreported_framing_bytes``: wire bytes the transcript's payload plus
  ``framing_bytes`` leave out (the handshake frames).
- ``protocols.alpha_calls_per_answer`` / ``algebra.ring_ops_per_answer``:
  calls made by one ``answer``, counted once per deployment on a scheme
  whose ``alpha`` and ring are counting proxies.
- ``cli.serve_ready_s``: per server, process start to first CONFIG reply.
  ``protocols.build_s`` (``build_named`` self time) and ``mv.search_s``
  (ingredient searches): per set-up.
- ``verify.*``: per pass; ``alpha_cache_hit_ratio`` is the share of
  ``alpha`` lookups in the correctness suite's cache that did not call
  ``alpha``.
- ``trace.overhead_ms``: traced minus untraced median request time, both
  measured in the traced run.

A layer a workload does not use reports 0.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

import pirlab.mv
import pirlab.sim
from pirlab.engine import answer, comm_cost
from pirlab.errors import BudgetExceeded, PirError
from pirlab.protocols import registry
from pirlab.sim import ServerNode, client_retrieve, param_digest, run_inprocess, save_database
from pirlab.verify import (
    all_databases,
    comm_audit,
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    span_check_all,
    structured_databases,
)

from servers import ServerGroup
from tracing import CountingCallable, CountingRing, CountingSocket, SocketModule, TracedCodec, Tracer

SETUPS = 4  # timed set-ups before the timed loop, and again after it
MAX_NOTED_ERRORS = 5


def random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    value = rng.getrandbits(n)
    return tuple((value >> j) & 1 for j in range(n))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; a failed request counts
    as +inf, so it can only push a percentile up."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def span_if(tracer: Tracer | None, name: str, tag: str | None = None):
    return tracer.span(name, tag) if tracer else nullcontext()


@dataclasses.dataclass
class Phase:
    """One timed closed loop: request latencies (s, +inf when failed)."""

    latencies: list = dataclasses.field(default_factory=list)
    payloads: list = dataclasses.field(default_factory=list)
    request_ids: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu_s: float = 0.0

    @property
    def completed(self) -> int:
        return sum(1 for v in self.latencies if v != math.inf)


class Workload:
    """A request stream over state built by ``setup``.

    ``request`` returns (checks attempted, checks failed, payload bytes);
    ``after_request`` runs untimed after each traced request.
    """

    cycle = 1  # runs end on a multiple of this many requests
    request_kind = "request"

    def __init__(self, rng: random.Random, work_dir: str, src_dir: str):
        self.rng = rng
        self.work_dir = work_dir
        self.src_dir = src_dir
        self.server_peak_rss_mb = 0.0
        self.ready_s: list[float] = []
        self.errors: list[str] = []

    def note(self, message: str) -> None:
        if len(self.errors) < MAX_NOTED_ERRORS:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def start_tracing(self, tracer: Tracer) -> None:
        pass

    def request(self, rid: int, tracer: Tracer | None) -> tuple[int, int, int]:
        raise NotImplementedError

    def after_request(self, rid: int, tracer: Tracer) -> None:
        pass

    def set_bits(self, rid: int) -> int:
        return 0

    def cpu_seconds(self) -> float:
        """CPU time used so far by this process and any servers it runs."""
        return time.process_time()


# -- retrieval workloads ------------------------------------------------------


@dataclasses.dataclass
class Deployment:
    protocol: str
    config: dict
    x: tuple = ()
    scheme: object = None
    traced: object = None
    cost: object = None
    endpoints: list = dataclasses.field(default_factory=list)
    nodes: list = dataclasses.field(default_factory=list)
    op_counts: tuple | None = None  # (alpha calls, ring ops) for one answer

    @property
    def flags(self) -> list[str]:
        out = []
        for key, value in self.config.items():
            out += [f"--{key.replace('_', '-')}", str(value)]
        return out


def traced_scheme(scheme, tracer: Tracer):
    return dataclasses.replace(
        scheme,
        level_codec=TracedCodec(scheme.level_codec, tracer, "engine.query_encode",
                                "engine.query_decode", capture=True),
        answer_codec=TracedCodec(scheme.answer_codec, tracer, "engine.answer_encode",
                                 "engine.answer_decode"),
    )


def count_answer_ops(scheme, x, query) -> tuple[int, int]:
    """alpha calls and ring calls made by one ``answer`` on ``query``."""
    alpha = CountingCallable(scheme.alpha)
    ring = CountingRing(scheme.ring)
    answer(dataclasses.replace(scheme, alpha=alpha, ring=ring), x, query)
    return alpha.calls, ring.calls


def install_sim_patches(tracer: Tracer) -> None:
    """Spans around the engine calls ``pirlab.sim`` makes, around its frame
    I/O, and counting sockets for its client connections."""
    sim = pirlab.sim
    tracer.patch_span(sim, "query_gen", "engine.query_gen")
    tracer.patch_span(sim, "answer", "engine.answer")
    tracer.patch_span(sim, "reconstruct", "engine.reconstruct")
    tracer.patch_span(sim, "write_frame", "sim.write_frame")
    read_frame = sim.read_frame

    def traced_read_frame(sock):
        with tracer.span("sim.read_frame"):
            msg_type, payload = read_frame(sock)
        if msg_type == sim.MSG_CONFIG and isinstance(sock, CountingSocket):
            tracer.sample("handshake_s", time.perf_counter() - sock.connect_start)
        return msg_type, payload

    tracer.patch(sim, "read_frame", traced_read_frame)
    tracer.patch(sim, "socket", SocketModule(tracer))


def install_setup_patches(tracer: Tracer) -> None:
    """Spans around scheme construction and the ingredient searches it runs."""
    tracer.patch_span(registry, "build_named", "protocols.build_named")
    for fn in ("search_matching_family", "sparse_decoding_poly_search",
               "trivial_decoding_poly", "yekhanin_nice_sets"):
        tracer.patch_span(registry, fn, f"mv.{fn}")
    tracer.patch_span(pirlab.mv, "canonical_set", "mv.canonical_set")


class Retrieval(Workload):
    """Round-robin retrievals over one or more deployments."""

    request_kind = "private retrieval"

    def __init__(self, specs, rng, work_dir, src_dir):
        super().__init__(rng, work_dir, src_dir)
        self.deps = [Deployment(protocol, dict(config)) for protocol, config in specs]
        for dep in self.deps:
            dep.x = random_bits(rng, dep.config["n"])
        self.cycle = len(self.deps)

    def dep(self, rid: int) -> Deployment:
        return self.deps[rid % len(self.deps)]

    def set_bits(self, rid: int) -> int:
        return sum(self.dep(rid).x)

    def build(self) -> None:
        for dep in self.deps:
            dep.scheme = registry.build_named(dep.protocol, dep.config)
            dep.cost = comm_cost(dep.scheme)

    def start_tracing(self, tracer):
        for dep in self.deps:
            dep.traced = traced_scheme(dep.scheme, tracer)
        install_sim_patches(tracer)

    def request(self, rid, tracer):
        dep = self.dep(rid)
        i = self.rng.randrange(dep.scheme.n)
        seed = self.rng.getrandbits(64)
        scheme = dep.traced if tracer else dep.scheme
        try:
            bit, transcript = self.retrieve(dep, scheme, i, seed, tracer)
        except (PirError, OSError) as exc:
            self.note(f"{dep.protocol} i={i}: {exc!r}")
            return 1, 1, 0
        ok = True
        if bit != dep.x[i]:
            self.note(f"{dep.protocol} i={i}: got {bit}, database holds {dep.x[i]}")
            ok = False
        if transcript.payload_bytes != dep.cost.payload_bytes:
            self.note(f"{dep.protocol}: payload {transcript.payload_bytes} B, "
                      f"comm_cost {dep.cost.payload_bytes} B")
            ok = False
        if tracer:
            tracer.sample("reported_bytes",
                          transcript.payload_bytes + transcript.framing_bytes)
        return 1, int(not ok), transcript.payload_bytes

    def retrieve(self, dep, scheme, i, seed, tracer):
        raise NotImplementedError

    def count_ops_once(self, dep: Deployment, tracer: Tracer) -> None:
        if dep.op_counts is None and tracer.captured_queries:
            query = dep.scheme.level_codec.decode(tracer.captured_queries[0])
            dep.op_counts = count_answer_ops(dep.scheme, dep.x, query)

    def record_server_answer(self, tracer: Tracer, n: int, seconds: float) -> None:
        tracer.sample("server_answer_s", seconds)
        tracer.sample("answer_bits_per_s", n / seconds)


class TcpRetrieval(Retrieval):
    """Each deployment has its own k ``pirlab serve`` processes on loopback."""

    def __init__(self, specs, rng, work_dir, src_dir):
        super().__init__(specs, rng, work_dir, src_dir)
        self.group: ServerGroup | None = None

    def setup(self):
        self.build()
        self.group = ServerGroup(self.src_dir, os.path.join(self.work_dir, "servers.log"))
        pending = []
        for j, dep in enumerate(self.deps):
            db_path = os.path.join(self.work_dir, f"db{j}.bin")
            save_database(db_path, dep.x)
            pending.append(self.group.start(dep.protocol, dep.flags, dep.scheme.k,
                                            db_path, param_digest(dep.scheme)))
        for dep, servers in zip(self.deps, pending):
            dep.endpoints = self.group.wait_ready(servers)

    def teardown(self):
        if self.group is not None:
            self.group.stop()
            self.server_peak_rss_mb = max(self.server_peak_rss_mb, self.group.peak_rss_mb)
            self.ready_s += self.group.ready_s
            self.group = None

    def cpu_seconds(self):
        return super().cpu_seconds() + self.group.cpu_seconds()

    def start_tracing(self, tracer):
        super().start_tracing(tracer)
        for dep in self.deps:
            dep.nodes = [ServerNode(j, dep.traced, dep.x) for j in range(1, dep.scheme.k + 1)]

    def retrieve(self, dep, scheme, i, seed, tracer):
        with span_if(tracer, "sim.client_retrieve"):
            return client_retrieve(dep.endpoints, scheme, i, seed)

    def after_request(self, rid, tracer):
        dep = self.dep(rid)
        queries = tracer.captured_queries
        if len(queries) != len(dep.nodes):
            return  # the retrieval failed before every query was encoded
        slowest = 0.0
        for node, query in zip(dep.nodes, queries):
            with tracer.span("sim.server_answer", str(node.server_id)):
                t0 = time.perf_counter()
                node.answer_payload(query)
                slowest = max(slowest, time.perf_counter() - t0)
        self.record_server_answer(tracer, dep.scheme.n, slowest)
        self.count_ops_once(dep, tracer)


class InprocRetrieval(Retrieval):
    """``run_inprocess``: every server is simulated in this process."""

    def setup(self):
        self.build()

    def teardown(self):
        for dep in self.deps:
            dep.scheme = dep.traced = None

    def retrieve(self, dep, scheme, i, seed, tracer):
        with span_if(tracer, "sim.run_inprocess"):
            bit, transcript = run_inprocess(scheme, dep.x, i, seed, check=False)
        if tracer:
            slowest = max(e.rtt_seconds for e in transcript.entries)
            self.record_server_answer(tracer, dep.scheme.n, slowest)
        return bit, transcript

    def after_request(self, rid, tracer):
        self.count_ops_once(self.dep(rid), tracer)


# -- verification workload ----------------------------------------------------

def correctness_report(scheme):
    """As ``pirlab verify``: every database if the budget allows, else the
    structured ones.  Returns the report and the databases it used."""
    try:
        return exhaustive_correctness(scheme), all_databases(scheme.n)
    except BudgetExceeded:
        databases = list(structured_databases(scheme.n))
        return exhaustive_correctness(scheme, databases=databases), databases


def comm_check(scheme, x, i, seed) -> tuple[bool, int]:
    """One in-process round trip: right bit and payload equal to comm_cost."""
    bit, transcript = run_inprocess(scheme, x, i, seed, check=False)
    audit = comm_audit(scheme, transcript)
    return bit == x[i] and audit.passed, audit.measured_payload_bytes


class VerifyDesk(Workload):
    """Repeated verification passes over ``desk_schemes()`` and the
    ``broken-demo`` negative control, in this process."""

    request_kind = "verification pass (request_p50_ms is verify_s in ms)"

    def setup(self):
        self.entries = [(scheme, True) for scheme in registry.desk_schemes()]
        self.entries.append((registry.build_named("broken-demo"), False))
        self.counters = [None] * len(self.entries)

    def start_tracing(self, tracer):
        self.counters = [CountingCallable(scheme.alpha) for scheme, _ in self.entries]
        self.entries = [(dataclasses.replace(scheme, alpha=counter), expect_pass)
                        for (scheme, expect_pass), counter
                        in zip(self.entries, self.counters)]

    def request(self, rid, tracer):
        """Every desk scheme must pass all five suites (one check each);
        the negative control must fail at least one (one check)."""
        attempted = failed = payload = 0
        totals = defaultdict(int)
        for (scheme, expect_pass), counter in zip(self.entries, self.counters):
            verdicts, scheme_payload = self.verify_scheme(scheme, tracer, counter, totals)
            if expect_pass:
                bad = [suite for suite, ok in verdicts.items() if not ok]
                attempted += len(verdicts)
                failed += len(bad)
                payload += scheme_payload
                if bad:
                    self.note(f"{scheme.name}: failed {', '.join(bad)}")
            else:
                attempted += 1
                if all(verdicts.values()):
                    failed += 1
                    self.note(f"{scheme.name}: negative control passed every suite")
        if tracer:
            for key, value in totals.items():
                tracer.sample(key, value)
        return attempted, failed, payload

    def verify_scheme(self, scheme, tracer, counter, totals):
        def suite(name, check):
            with span_if(tracer, f"verify.{name}", scheme.name):
                try:
                    return check()
                except PirError:
                    return None  # a failed verdict

        calls_before = counter.calls if counter else 0
        correctness = suite("correctness", lambda: correctness_report(scheme))
        calls_after_correctness = counter.calls if counter else 0
        privacy = suite("privacy", lambda: exhaustive_privacy(scheme))
        span = suite("span", lambda: span_check_all(scheme))
        oa = suite("oa", lambda: oa_family_check(scheme))
        x = random_bits(self.rng, scheme.n)
        i = self.rng.randrange(scheme.n)
        seed = self.rng.getrandbits(64)
        comm = suite("comm", lambda: comm_check(scheme, x, i, seed))
        verdicts = {
            "correctness": correctness is not None and correctness[0].passed,
            "privacy": privacy is not None and privacy.passed,
            "span": span is not None,
            "oa": oa is not None,
            "comm": comm is not None and comm[0],
        }
        if counter:
            totals["alpha_evals"] += counter.calls - calls_before
            if correctness:
                report, databases = correctness
                # The suite's cache is looked up once per set bit of every
                # database, for each of the k queries of each (i, ell) pair.
                totals["alpha_lookups"] += (report.pairs_tested * scheme.k
                                            * sum(sum(x) for x in databases))
                totals["alpha_misses"] += calls_after_correctness - calls_before
                totals["triples"] += report.databases_tested * report.pairs_tested
        return verdicts, comm[1] if comm else 0


WORKLOADS = {
    "cube-tcp": lambda rng, work, src: TcpRetrieval(
        [("cgks", {"n": 8192})], rng, work, src),
    "curve-inproc": lambda rng, work, src: InprocRetrieval(
        [("lagrange", {"n": 65536, "t": 1, "k": 3, "p": 13})], rng, work, src),
    "small-tcp": lambda rng, work, src: TcpRetrieval(
        [("cgks", {"n": 64}),
         ("hermite", {"n": 64, "t": 1, "k": 2, "p": 5}),
         ("dvir-gopi", {"m": 6, "n": 3}),
         ("gks", {"m": 2, "p": 3, "n": 3})], rng, work, src),
    "verify-desk": lambda rng, work, src: VerifyDesk(rng, work, src),
}


# -- the run ------------------------------------------------------------------


def measure(wl: Workload, seconds: float, tracer: Tracer | None, first_rid: int) -> Phase:
    phase = Phase()
    cpu_start = wl.cpu_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    rid = first_rid
    while time.perf_counter() < deadline or (rid - first_rid) % wl.cycle:
        t0 = time.perf_counter()
        if tracer:
            with tracer.request(rid):
                attempted, failed, payload = wl.request(rid, tracer)
        else:
            attempted, failed, payload = wl.request(rid, None)
        latency = time.perf_counter() - t0
        if tracer:
            wl.after_request(rid, tracer)
        phase.latencies.append(math.inf if failed else latency)
        phase.payloads.append(payload)
        phase.request_ids.append(rid)
        phase.attempted += attempted
        phase.failed += failed
        rid += 1
    phase.elapsed = time.perf_counter() - start
    phase.cpu_s = wl.cpu_seconds() - cpu_start
    return phase


@dataclasses.dataclass
class RunResult:
    workload: Workload
    setup_s: list
    phases: list  # [untraced] or [untraced, traced]
    tracer: Tracer | None
    peak_rss_mb: float


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
        src_dir: str) -> RunResult:
    """Set up ``SETUPS`` times, measure on the last set-up, then (untraced)
    set up ``SETUPS`` more times.  Timing set-ups on both sides of the loop
    lets their median span the run: this host's speed shifts over seconds.

    Untraced, the whole ``seconds`` is one phase.  Traced, the first half is
    untraced and the second traced, so the two medians give the overhead.
    """
    rng = random.Random(seed)
    wl = WORKLOADS[name](rng, work_dir, src_dir)
    tracer = Tracer() if trace else None
    setup_s = []
    phases = []

    def timed_setup(request_id: int) -> None:
        t0 = time.perf_counter()
        with tracer.request(request_id, "setup") if tracer else nullcontext():
            wl.setup()
        setup_s.append(time.perf_counter() - t0)

    try:
        if tracer:
            install_setup_patches(tracer)
        for attempt in range(SETUPS):
            if attempt:
                wl.teardown()
            timed_setup(-1 - attempt)
        if tracer:
            tracer.restore()
            phases.append(measure(wl, seconds / 2, None, 0))
            wl.start_tracing(tracer)
            phases.append(measure(wl, seconds / 2, tracer, len(phases[0].latencies)))
        else:
            phases.append(measure(wl, seconds, None, 0))
            for _ in range(SETUPS):
                wl.teardown()
                timed_setup(0)
    finally:
        if tracer:
            tracer.restore()
        wl.teardown()
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return RunResult(wl, setup_s, phases, tracer,
                     max(own_rss_mb, wl.server_peak_rss_mb))


def end_to_end_metrics(result: RunResult) -> dict[str, float]:
    """The metrics BENCHMARK.json bounds, from the untraced phase."""
    phase = result.phases[0]
    return {
        "setup_s": statistics.median(result.setup_s),
        "payload_bytes": statistics.fmean(phase.payloads),
        "peak_rss_mb": result.peak_rss_mb,
    }


def unbounded_metrics(result: RunResult) -> dict[str, tuple[float, str]]:
    """Request timings, reported beside the bounded metrics without a bound.

    On a shared 2-vCPU host the speed of this code drifts by up to 2x over
    seconds to minutes (CPU time tracks wall time; there is no steal), and
    most for the memory-heavy workloads: over 10 runs the median pass time
    of ``verify-desk`` spread by 0.36 of its median, beyond the largest
    bound (0.25) BENCHMARK.json may set.
    """
    phase = result.phases[0]
    return {
        "request_p50_ms": (percentile(phase.latencies, 0.5) * 1e3, "ms"),
        "request_p90_ms": (percentile(phase.latencies, 0.9) * 1e3, "ms"),
        "requests_per_s": (phase.completed / phase.elapsed, "1/s"),
        "cpu_ms_per_request": (phase.cpu_s / len(phase.latencies) * 1e3, "ms"),
    }


def layer_metrics(result: RunResult) -> dict[str, float]:
    tracer = result.tracer
    wl = result.workload
    untraced, traced = result.phases
    rids = set(traced.request_ids)
    self_ns = tracer.self_times_ns()
    # Per request: total seconds by span name; per set-up: self seconds.
    per_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    per_setup: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    slowest_answer: dict[int, float] = defaultdict(float)
    answer_calls = []
    answer_ns_per_bit = []
    for sid, name, start, end, _, rid, _ in tracer.spans:
        if rid in rids:
            per_request[rid][name] += (end - start) / 1e9
            if name == "sim.server_answer":
                slowest_answer[rid] = max(slowest_answer[rid], (end - start) / 1e9)
            if name == "engine.answer":
                answer_calls.append((end - start) / 1e9)
                bits = wl.set_bits(rid)
                if bits:
                    answer_ns_per_bit.append((end - start) / bits)
        elif rid is not None and rid < 0:
            layer = "mv" if name.startswith("mv.") else name
            per_setup[rid][layer] += self_ns[sid] / 1e9

    def per_req(name: str, scale: float) -> float:
        return median_or_zero([spans[name] * scale for spans in per_request.values()
                               if name in spans])

    client_engine = ("engine.query_gen", "engine.query_encode",
                     "engine.answer_decode", "engine.reconstruct")
    transport = []
    for rid, spans in per_request.items():
        if "sim.client_retrieve" in spans:
            transport.append(spans["sim.client_retrieve"] - slowest_answer[rid]
                             - sum(spans[name] for name in client_engine))

    samples = tracer.samples
    n_traced = len(traced.request_ids)
    retrieval_deps = getattr(wl, "deps", [])
    counted = [dep.op_counts for dep in retrieval_deps if dep.op_counts]
    wire = sum(samples["wire_bytes"])
    lookups = sum(samples["alpha_lookups"])
    return {
        "engine.answer_ms": median_or_zero(answer_calls) * 1e3,
        "engine.answer_ns_per_set_bit": median_or_zero(answer_ns_per_bit),
        "engine.query_gen_us": per_req("engine.query_gen", 1e6),
        "engine.query_encode_us": per_req("engine.query_encode", 1e6),
        "engine.query_decode_us": per_req("engine.query_decode", 1e6),
        "engine.answer_encode_us": per_req("engine.answer_encode", 1e6),
        "engine.answer_decode_us": per_req("engine.answer_decode", 1e6),
        "engine.reconstruct_us": per_req("engine.reconstruct", 1e6),
        "protocols.alpha_calls_per_answer":
            statistics.fmean(c[0] for c in counted) if counted else 0.0,
        "algebra.ring_ops_per_answer":
            statistics.fmean(c[1] for c in counted) if counted else 0.0,
        "sim.server_answer_ms": median_or_zero(samples["server_answer_s"]) * 1e3,
        "sim.answer_bits_per_s": median_or_zero(samples["answer_bits_per_s"]),
        "sim.client_retrieve_ms": per_req("sim.client_retrieve", 1e3),
        "sim.transport_ms": median_or_zero(transport) * 1e3,
        "sim.handshake_ms": median_or_zero(samples["handshake_s"]) * 1e3,
        "sim.connections_per_retrieval": len(samples["connections"]) / n_traced,
        "sim.wire_bytes_per_retrieval": wire / n_traced,
        "sim.unreported_framing_bytes":
            (wire - sum(samples["reported_bytes"])) / n_traced if wire else 0.0,
        "cli.serve_ready_s": median_or_zero(wl.ready_s),
        "protocols.build_s": median_or_zero(
            [s["protocols.build_named"] for s in per_setup.values()]),
        "mv.search_s": median_or_zero([s["mv"] for s in per_setup.values()]),
        "verify.correctness_s": per_req("verify.correctness", 1),
        "verify.privacy_s": per_req("verify.privacy", 1),
        "verify.span_s": per_req("verify.span", 1),
        "verify.oa_s": per_req("verify.oa", 1),
        "verify.triples_checked": median_or_zero(samples["triples"]),
        "verify.alpha_evals": median_or_zero(samples["alpha_evals"]),
        "verify.alpha_cache_hit_ratio":
            1 - sum(samples["alpha_misses"]) / lookups if lookups else 0.0,
        "trace.overhead_ms": (percentile(traced.latencies, 0.5)
                              - percentile(untraced.latencies, 0.5)) * 1e3,
    }
