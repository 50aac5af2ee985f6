"""Name-based construction of desk-scale scheme instances.

The registry performs the ingredient searches (matching families, decoding
polynomials, parity sets) with deterministic budgets and injects them into
the protocol builders, so a server and a client constructing the same named
configuration always agree on every derived object.

``build_named`` imports the builder module of the requested protocol inside
that protocol's branch, so a process that serves one scheme never loads
the other constructions.  The ingredient searches stay module-level imports:
perfbench's set-up tracing wraps them by name on this module.
"""

from __future__ import annotations

from ..engine import Scheme
from ..errors import ParamError
from ..mv import (
    search_matching_family,
    sparse_decoding_poly_search,
    trivial_decoding_poly,
    two_subgroup,
    yekhanin_nice_sets,
)

PROTOCOL_NAMES = (
    "toy",
    "cgks",
    "lagrange",
    "hermite",
    "yekhanin",
    "raghavendra",
    "efremenko",
    "dvir-gopi",
    "gks",
    "broken-demo",
)


def _require(config: dict, *keys: str) -> list:
    missing = [k for k in keys if config.get(k) is None]
    if missing:
        raise ParamError(f"missing parameter(s): {', '.join(missing)}")
    return [config[k] for k in keys]


def _canonical_family(m: int, n: int, h: int):
    from ..mv import canonical_set

    return search_matching_family(m, h, canonical_set(m), n)


def build_named(name: str, config: dict | None = None) -> Scheme:
    """Construct the named scheme from a flat parameter dict.

    Recognized keys: n, t, k, p, m, h, sparse_k, seed-independent search
    budgets are fixed.  Raises ParamError for unknown names or missing
    parameters.
    """
    config = dict(config or {})
    if name == "toy":
        from .toy import toy_instance

        return toy_instance()
    if name == "broken-demo":
        from .toy import broken_demo

        return broken_demo()
    if name == "cgks":
        from .cube import build_cgks

        (n,) = _require(config, "n")
        return build_cgks(n)
    if name == "lagrange":
        from .curve import build_lagrange

        n, t, k, p = _require(config, "n", "t", "k", "p")
        return build_lagrange(n, t, k, p, h=config.get("h"))
    if name == "hermite":
        from .curve import build_wy_hermite

        n, t, k, p = _require(config, "n", "t", "k", "p")
        return build_wy_hermite(n, t, k, p, h=config.get("h"))
    # The matching-vector schemes default to 3 indices in dimension 3.
    n = config.get("n", 3)
    h = config.get("h", 3)
    if name in ("yekhanin", "raghavendra"):
        from .mersenne import build_raghavendra, build_yekhanin

        p = config.get("p", 7)
        family = search_matching_family(
            p, h, two_subgroup(p), n, side_constraint=True
        )
        if name == "yekhanin":
            return build_yekhanin(p, family, yekhanin_nice_sets(p))
        return build_raghavendra(p, family)
    if name == "efremenko":
        from .ring import build_efremenko

        m, p = _require(config, "m", "p")
        family = _canonical_family(m, n, h)
        sparse_k = config.get("sparse_k")
        if sparse_k is not None:
            poly = sparse_decoding_poly_search(m, p, k_target=sparse_k)
        else:
            poly = trivial_decoding_poly(m, p)
        return build_efremenko(m, p, family, poly)
    if name == "dvir-gopi":
        from .ring import build_dvir_gopi

        (m,) = _require(config, "m")
        return build_dvir_gopi(m, _canonical_family(m, n, h))
    if name == "gks":
        from .ring import build_gks

        m, p = _require(config, "m", "p")
        return build_gks(m, p, _canonical_family(m * p, n, h))
    raise ParamError(f"unknown protocol {name!r}")


def desk_schemes() -> list[Scheme]:
    """The standard small instances used by the verification suites."""
    return [
        build_named("toy"),
        build_named("cgks", {"n": 8}),
        build_named("lagrange", {"n": 3, "t": 1, "k": 3, "p": 5}),
        build_named("hermite", {"n": 4, "t": 1, "k": 2, "p": 7}),
        build_named("yekhanin"),
        build_named("raghavendra"),
        build_named("efremenko", {"m": 6, "p": 7}),
        build_named("dvir-gopi", {"m": 6}),
        build_named("gks", {"m": 2, "p": 3}),
    ]
