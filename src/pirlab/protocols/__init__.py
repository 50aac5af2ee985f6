"""Concrete scheme constructors.

Each builder returns an immutable :class:`pirlab.engine.Scheme` together
with a parameter report describing the server count, level/answer
structures, and exact communication widths.
"""

from .cube import build_cgks
from .curve import build_lagrange, build_wy_hermite
from .mersenne import build_raghavendra, build_yekhanin
from .ring import build_dvir_gopi, build_efremenko, build_gks
from .toy import broken_demo, broken_privacy_demo, broken_span_demo, toy_instance
from .registry import PROTOCOL_NAMES, build_named, desk_schemes

__all__ = [
    "build_cgks",
    "build_lagrange",
    "build_wy_hermite",
    "build_yekhanin",
    "build_raghavendra",
    "build_efremenko",
    "build_dvir_gopi",
    "build_gks",
    "toy_instance",
    "broken_demo",
    "broken_privacy_demo",
    "broken_span_demo",
    "build_named",
    "desk_schemes",
    "PROTOCOL_NAMES",
]
