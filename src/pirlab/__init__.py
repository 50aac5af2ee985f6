"""pirlab: a multi-server information-theoretic private information
retrieval laboratory.

The package is organized around a single generic engine
(:mod:`pirlab.engine`) that turns a family of orthogonal query arrays with
unit-vector span structure into a working retrieval protocol.  Eight
concrete constructions live under :mod:`pirlab.protocols`; their
combinatorial ingredients (matching vectors, decoding polynomials, parity
sets) come from :mod:`pirlab.mv`; :mod:`pirlab.verify` holds every check of
a scheme and :mod:`pirlab.sim` the in-process and TCP execution
environments.  Import each name from its module.
"""
