"""Concrete scheme constructors.

Each builder returns an immutable :class:`pirlab.engine.Scheme` together
with a parameter report describing the server count, level/answer
structures, and exact communication widths.  Import a builder from the
module that defines it:

* :mod:`.cube`: ``build_cgks``;
* :mod:`.curve`: ``build_lagrange``, ``build_wy_hermite``;
* :mod:`.mersenne`: ``build_yekhanin``, ``build_raghavendra``;
* :mod:`.ring`: ``build_efremenko``, ``build_dvir_gopi``, ``build_gks``;
* :mod:`.toy`: ``toy_instance`` and the negative controls
  ``broken_demo``, ``broken_span_demo``, ``broken_privacy_demo``;
* :mod:`.registry`: ``PROTOCOLS`` (each protocol's parameters) and
  ``build_named``, ``desk_schemes``, ``PROTOCOL_NAMES``, which read it.

This package imports none of them: ``build_named`` imports only the
builder module of the protocol it constructs, so a server process loads
one construction, not all eight.
"""
