"""A hand-sized two-server scheme over F_3^2, plus broken variants.

The two 9-row query arrays below are small enough to print and reason about
by hand: the level set is F_3^2, the answer ring is F_3, the alpha maps are
the two coordinate projections, and the fixed vector lambda = (2, 2) pairs
every row to the right unit vector.  The broken variants are negative
controls for the verification suites.
"""

from __future__ import annotations

from ..engine import Codec, PrimeField, Scheme

# Row q of the array for index i is (q, 2 * e_i - q) mod 3, for q over all of
# F_3^2; the two queries sum to 2 * e_i, so lambda = (2, 2) pairs them to e_i.
_ARRAY_0 = (
    ((1, 0), (1, 0)),
    ((1, 1), (1, 2)),
    ((1, 2), (1, 1)),
    ((2, 0), (0, 0)),
    ((2, 1), (0, 2)),
    ((2, 2), (0, 1)),
    ((0, 0), (2, 0)),
    ((0, 1), (2, 2)),
    ((0, 2), (2, 1)),
)
_ARRAY_1 = (
    ((0, 1), (0, 1)),
    ((0, 2), (0, 0)),
    ((0, 0), (0, 2)),
    ((1, 1), (2, 1)),
    ((1, 2), (2, 0)),
    ((1, 0), (2, 2)),
    ((2, 1), (1, 1)),
    ((2, 2), (1, 0)),
    ((2, 0), (1, 2)),
)
TOY_ARRAYS = (_ARRAY_0, _ARRAY_1)


def _build(name: str, lam_value: int, fixed_row: int | None) -> Scheme:
    field = PrimeField(3)

    def row(i, ell):
        idx = fixed_row if fixed_row is not None else ell[0]
        return TOY_ARRAYS[i][idx]

    def alpha(tau, z):
        return (z[tau] % 3,)

    lam = (((lam_value,),) * 2, 1)

    def recon(i, ell):
        return lam

    return Scheme(
        name=name,
        n=2,
        k=2,
        t=1,
        ring=field,
        answer_dim=1,
        level_codec=Codec(3, 2),
        randomness=Codec(9, 1),
        row=row,
        alpha=alpha,
        recon=recon,
        report={
            "levels": "F_3^2",
            "answers": "F_3",
        },
    )


def toy_instance() -> Scheme:
    """The correct hand-sized scheme."""
    return _build("toy", lam_value=2, fixed_row=None)


def broken_span_demo() -> Scheme:
    """lambda = (1, 1) does not pair rows to unit vectors: correctness and
    span checks must fail."""
    return _build("broken-span-demo", lam_value=1, fixed_row=None)


def broken_privacy_demo() -> Scheme:
    """The row callback ignores the randomness draw, so each index leaks
    through the query distribution: privacy checks must fail."""
    return _build("broken-privacy-demo", lam_value=2, fixed_row=0)


def broken_demo() -> Scheme:
    """Both defects at once; the shipped 'must fail' control."""
    return _build("broken-demo", lam_value=1, fixed_row=0)
