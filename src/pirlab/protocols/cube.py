"""Two-server scheme from the cube / covering-code construction.

The database is laid out as a cube of side h = ceil(n^(1/3)); each index is
a cell (i1, i2, i3).  A query is a triple of subsets of [h], encoded as
h-bit masks, and the second server receives the first server's triple with
the bits i1, i2, i3 toggled.  An answer carries 3h + 1 parity bits: the
parity of x over the queried box, plus the parities over every
single-coordinate perturbation of the box along each axis.  Selecting the
box bit and the i1/i2/i3 perturbation bits from both answers and XOR-ing
recovers x_i; the total payload is exactly 12h + 2 raw bits.

A server answers from h slabs of h^2 bits, laid out once by ``prepare``:
slab a holds the cells (a, ., .), the contiguous index range
[a*h^2, (a+1)*h^2), packed by ``engine.pack_bits`` so that bit b*h + w of
slab a is x at cell (a, b, w); cells past n are 0.  Then T = XOR of the
slabs a in U holds, in row b, the parities over (U, b, w), and
F = XOR of the rows b in V holds, at bit w, the parities over (U, V, w).
The box parity is parity(F & W).  Perturbing U at c flips
parity(slab c & VW), where VW is W in every row b of V; perturbing V at c
flips parity(row c of T & W); perturbing W at c flips bit c of F.  That is
about 4h operations on h^2-bit integers (the preprocessing of Beimel,
Ishai & Malkin, CRYPTO 2000, on the cube scheme of Chor, Goldreich,
Kushilevitz & Sudan, JACM 1998).
"""

from __future__ import annotations

from ..engine import Codec, PrimeField, Scheme, pack_bits


def side_length(n: int) -> int:
    h = 1
    while h**3 < n:
        h += 1
    return h


def build_cgks(n: int) -> Scheme:
    h = side_length(n)
    zeta = 2**h
    field = PrimeField(2)
    dim = 3 * h + 1

    def coords(idx: int) -> tuple[int, int, int]:
        return idx // (h * h), (idx // h) % h, idx % h

    def row(i, ell):
        l1, l2, l3 = ell
        i1, i2, i3 = coords(i)
        return (
            (l1, l2, l3),
            (l1 ^ (1 << i1), l2 ^ (1 << i2), l3 ^ (1 << i3)),
        )

    def alpha(tau, z):
        mask_u, mask_v, mask_w = z
        t1, t2, t3 = coords(tau)
        in_u = (mask_u >> t1) & 1
        in_v = (mask_v >> t2) & 1
        in_w = (mask_w >> t3) & 1
        bits = [in_u & in_v & in_w]
        for c in range(h):
            bits.append((((mask_u ^ (1 << c)) >> t1) & 1) & in_v & in_w)
        for c in range(h):
            bits.append(in_u & (((mask_v ^ (1 << c)) >> t2) & 1) & in_w)
        for c in range(h):
            bits.append(in_u & in_v & (((mask_w ^ (1 << c)) >> t3) & 1))
        return tuple(bits)

    def recon(i, ell):
        i1, i2, i3 = coords(i)
        block = [0] * dim
        block[0] = 1
        block[1 + i1] = 1
        block[1 + h + i2] = 1
        block[1 + 2 * h + i3] = 1
        lam_block = tuple(block)
        return (lam_block, lam_block), 1

    row_mask = (1 << h) - 1
    shifts = range(0, h * h, h)

    def prepare(bits):
        # Slices past n are short or empty, so their missing cells are 0.
        return tuple(
            pack_bits(bits[s : s + h * h]) for s in range(0, h**3, h * h)
        )

    def answer_kernel(slabs, z):
        mask_u, mask_v, mask_w = z
        t = 0
        for c in range(h):
            if mask_u >> c & 1:
                t ^= slabs[c]
        rows = [t >> s & row_mask for s in shifts]
        # f holds, at bit w, the parity over (U, V, w); vw is W in every
        # row of V.
        f = vw = 0
        for b in range(h):
            if mask_v >> b & 1:
                f ^= rows[b]
                vw |= mask_w << shifts[b]
        box = (f & mask_w).bit_count() & 1
        return (
            box,
            *[box ^ (slab & vw).bit_count() & 1 for slab in slabs],
            *[box ^ (r & mask_w).bit_count() & 1 for r in rows],
            *[box ^ f >> c & 1 for c in range(h)],
        )

    levels = Codec(zeta, 3)
    return Scheme(
        name="cgks",
        n=n,
        k=2,
        t=1,
        ring=field,
        answer_dim=dim,
        level_codec=levels,
        randomness=levels,
        row=row,
        alpha=alpha,
        recon=recon,
        answer_kernel=answer_kernel,
        prepare=prepare,
        report={
            "h": h,
            "levels": f"triples of subsets of [{h}] (3 x {h}-bit masks)",
            "answers": f"F_2^{dim} parity vector",
            "raw_bits": float(12 * h + 2),
        },
    )
