"""Name-based construction of desk-scale scheme instances.

The registry performs the ingredient searches (matching families, decoding
polynomials, parity sets) with deterministic budgets and injects them into
the protocol builders, so a server and a client constructing the same named
configuration always agree on every derived object.

``PROTOCOLS`` states each protocol once: the paper's closed-form cost of
one retrieval, the keys it requires, those it may take with their
defaults, and its desk configuration.  ``build_named`` checks a config
against its row, so a key the protocol does not take is an error;
``predicted_bits``, ``PROTOCOL_NAMES``, ``PARAM_KEYS`` (the CLI's flags)
and ``desk_schemes`` read the table too.

``build_named`` imports the builder module of the requested protocol inside
that protocol's branch, so a process that serves one scheme never loads
the other constructions, and cgks, lagrange and hermite processes never
load :mod:`pirlab.mv` or :mod:`pirlab.algebra`.  perfbench's set-up
tracing wraps the four ingredient searches by name on this module, so
``build_named`` calls them through module-level wrappers that import
:mod:`pirlab.mv` when first called.  ``build_named`` searches on every
call; ``desk_schemes`` searches each distinct matching family once per
call, and neither keeps a family past its call.
"""

from __future__ import annotations

from math import log2
from typing import Callable, NamedTuple

from ..engine import Scheme
from ..errors import ParamError


class Protocol(NamedTuple):
    """A row of ``PROTOCOLS``: ``bits(report, k)`` is the paper's raw bits
    for one retrieval, k times the query width plus the answer width.  A
    None ``desk`` leaves the row out of the desk."""

    bits: Callable[[dict, int], float]
    required: tuple[str, ...] = ()
    optional: dict = {}  # key -> default
    desk: dict | None = {}


def _toy_bits(r, k):
    return k * 3 * log2(3)


# The matching-vector schemes default to 3 indices in dimension 3.
_MV = {"n": 3, "h": 3}
_CURVE = ("n", "t", "k", "p")
PROTOCOLS = {
    "toy": Protocol(_toy_bits),
    # cube.py states the raw bits, 12h + 2, in the report the digest covers.
    "cgks": Protocol(lambda r, k: r["raw_bits"], ("n",), desk={"n": 8}),
    "lagrange": Protocol(lambda r, k: k * (r["h"] + 1) * log2(r["p"]),
                         _CURVE, {"h": None}, {"n": 3, "t": 1, "k": 3, "p": 5}),
    "hermite": Protocol(lambda r, k: k * (2 * r["h"] + 1) * log2(r["p"]),
                        _CURVE, {"h": None}, {"n": 4, "t": 1, "k": 2, "p": 7}),
    "yekhanin": Protocol(lambda r, k: k * (r["h"] * log2(r["p"]) + r["p"]),
                         (), {"p": 7, **_MV}),
    "raghavendra": Protocol(lambda r, k: k * (r["h"] * log2(r["p"]) + r["r"]),
                            (), {"p": 7, **_MV}),
    "efremenko": Protocol(lambda r, k: k * (r["h"] * log2(r["m"]) + log2(r["p"])),
                          ("m", "p"), {**_MV, "sparse_k": None}, {"m": 6, "p": 7}),
    "dvir-gopi": Protocol(
        lambda r, k: k * (r["h"] + (r["h"] + 1) * r["m"]) * log2(r["m"]),
        ("m",), _MV, {"m": 6}),
    "gks": Protocol(
        lambda r, k: k * (r["h"] * log2(r["m"]) + (r["h"] + 1) * log2(r["p"])),
        ("m", "p"), _MV, {"m": 2, "p": 3}),
    "broken-demo": Protocol(_toy_bits, desk=None),
}
PROTOCOL_NAMES = tuple(PROTOCOLS)
# Every key of every row, in order of first appearance: the CLI's flags.
PARAM_KEYS = tuple(dict.fromkeys(
    key for row in PROTOCOLS.values() for key in (*row.required, *row.optional)
))


def predicted_bits(scheme: Scheme) -> float:
    """The paper's closed-form raw bits for one retrieval of ``scheme``.

    It is computed from the report alone, so comparing it with
    ``comm_cost(scheme).raw_bits`` checks the codec widths against the
    paper."""
    row = PROTOCOLS.get(scheme.name)
    if row is None:
        raise ParamError(f"no closed-form cost for {scheme.name!r}")
    return row.bits(scheme.report, scheme.k)


def _lazy_mv(name: str):
    """:mod:`pirlab.mv`'s function ``name``, imported at its first call."""

    def call(*args, **kwargs):
        from .. import mv

        return getattr(mv, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


search_matching_family = _lazy_mv("search_matching_family")
sparse_decoding_poly_search = _lazy_mv("sparse_decoding_poly_search")
trivial_decoding_poly = _lazy_mv("trivial_decoding_poly")
yekhanin_nice_sets = _lazy_mv("yekhanin_nice_sets")


def _checked(name: str, config: dict | None) -> dict:
    """``config`` checked against the row of ``name``, with the row's
    defaults filled in.  A None value counts as absent; any other value
    must be an int and not a bool."""
    row = PROTOCOLS.get(name)
    if row is None:
        raise ParamError(f"unknown protocol {name!r}")
    given = {k: v for k, v in (config or {}).items() if v is not None}
    if missing := [k for k in row.required if k not in given]:
        raise ParamError(f"missing parameter(s): {', '.join(missing)}")
    takes = (*row.required, *row.optional)
    if unread := [k for k in given if k not in takes]:
        raise ParamError(f"{name} does not take parameter(s) {', '.join(unread)}; "
                         f"it takes: {', '.join(takes) or 'none'}")
    # 8.0 or True would build a scheme with another digest than 8 or 1.
    if not_int := [f"{k}={v!r}" for k, v in given.items()
                   if isinstance(v, bool) or not isinstance(v, int)]:
        raise ParamError(f"{name} parameter(s) must be ints: {', '.join(not_int)}")
    return {**row.optional, **given}


def build_named(name: str, config: dict | None = None) -> Scheme:
    """Construct the named scheme from a flat dict of its ``PROTOCOLS``
    row's keys; the search budgets are fixed.  Raises ParamError for an
    unknown name, a missing key, a key the protocol does not take, or a
    value that is not an int (a bool included)."""
    return _build(name, config, {})


def _family(families: dict, m: int, h: int, target: tuple, n: int, side: bool):
    """The matching family of these search arguments: found in
    ``families`` or searched for and put there."""
    key = (m, h, target, n, side)
    if key not in families:
        families[key] = search_matching_family(m, h, target, n, side_constraint=side)
    return families[key]


def _build(name: str, config: dict | None, families: dict) -> Scheme:
    """``build_named`` with the matching families already found in this
    call's ``families``, keyed by their search arguments."""
    c = _checked(name, config)
    if name in ("toy", "broken-demo"):
        from .toy import broken_demo, toy_instance

        return toy_instance() if name == "toy" else broken_demo()
    if name == "cgks":
        from .cube import build_cgks

        return build_cgks(c["n"])
    if name in ("lagrange", "hermite"):
        from .curve import build_lagrange, build_wy_hermite

        build = build_lagrange if name == "lagrange" else build_wy_hermite
        return build(c["n"], c["t"], c["k"], c["p"], h=c["h"])
    if name in ("yekhanin", "raghavendra"):
        from ..mv import two_subgroup
        from .mersenne import build_raghavendra, build_yekhanin

        p = c["p"]
        family = _family(families, p, c["h"], two_subgroup(p), c["n"], True)
        if name == "yekhanin":
            return build_yekhanin(p, family, yekhanin_nice_sets(p))
        return build_raghavendra(p, family)
    from ..mv import canonical_set
    from .ring import build_dvir_gopi, build_efremenko, build_gks

    m = c["m"]
    modulus = m * c["p"] if name == "gks" else m
    family = _family(families, modulus, c["h"], canonical_set(modulus), c["n"], False)
    if name == "dvir-gopi":
        return build_dvir_gopi(m, family)
    if name == "gks":
        return build_gks(m, c["p"], family)
    if c["sparse_k"] is not None:
        poly = sparse_decoding_poly_search(m, c["p"], k_target=c["sparse_k"])
    else:
        poly = trivial_decoding_poly(m, c["p"])
    return build_efremenko(m, c["p"], family, poly)


def desk_schemes() -> list[Scheme]:
    """The standard small instances used by the verification suites: each
    ``PROTOCOLS`` row's desk configuration.  The rows that share a matching
    family (same m, h, target set, n and side constraint) share one search
    within the call: five desk families, two searches."""
    families: dict = {}
    return [_build(name, row.desk, families) for name, row in PROTOCOLS.items()
            if row.desk is not None]
