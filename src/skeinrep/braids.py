"""Braid-group sector representations on path bases.

The image of the n-strand braid group in TL_n splits into sectors indexed by
the through-label m (the label at infinity).  Each sector acts on the path
basis: admissible label sequences 0 = m_0, m_1, ..., m_n = m with
|m_i - m_{i-1}| = 1.  The generator sigma_i acts by A*id + A^{-1}*E_i where
E_i only touches position i and mixes the two channels over a repeated
neighbour value a; the level memo holds the local table of sigma^{+-1}
over each a (`_letter_block`), so a letter's matrix only places its
entries.

Cabling replaces strand i by c_i parallel strands under the blackboard
framing (no compensating framing twists); a braid detection search walks
(r, cabling, sector) in a fixed deterministic order.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tqft
from .errors import DomainError
from .linalg import columns, mat_product, rows, scalar_of
from .mcg import DetectionResult, RepMatrix, scan_levels
from .recoupling import theta, theta_inverse
from .scalars import QuantumParams


@dataclass(frozen=True)
class BraidWord:
    """A word in the n-strand braid group: signed 1-indexed generators."""

    n: int
    word: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("strand count must be positive")
        object.__setattr__(self, "word", tuple(self.word))
        for g in self.word:
            if not isinstance(g, int) or g == 0 or abs(g) > self.n - 1:
                raise DomainError(f"generator {g} out of range for {self.n} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise DomainError("cannot compose words on different strand counts")
        return BraidWord(self.n, self.word + other.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-g for g in reversed(self.word)))


def _paths(params: QuantumParams, n: int, m: int):
    """The level memo's tuple of the paths of ``path_basis``, read in place:
    callers never change it."""
    if n < 1:
        raise DomainError("strand count must be positive")
    if not 0 <= m <= params.r - 2:
        return ()

    def build():
        spine = tqft.comb_spine((0,) + (1,) * n + (m,))
        return tuple((0, *b.values(), m) for b in tqft.basis(params, spine))

    return params.cached(("paths", n, m), build)


def path_basis(params: QuantumParams, n: int, m: int):
    """Admissible paths 0 = m_0, ..., m_n = m with steps +-1, labels 0..r-2:
    the basis of the comb spine with legs (0, 1, ..., 1, m), whose internal
    edges are m_1..m_{n-1}, as a new list.  Memoized in the level memo."""
    return list(_paths(params, n, m))


def sector_labels(params: QuantumParams, n: int):
    """Through-labels m with a nonempty path basis, ascending."""
    return [m for m in range(n % 2, min(n, params.r - 2) + 1, 2) if _paths(params, n, m)]


def _letter_block(params: QuantumParams, a: int):
    """The local tables of sigma^sign over neighbour value a, sign = +-1,
    the level's one memo of cup-cap entries:
    {sign: {(b, b2): A^sign [b = b2] + A^-sign E[b2][b]}} on channels
    b, b2 in {a-1, a+1} clipped to valid labels, with
    E[b2][b] = theta(a,1,b) d_b2 / (d_a theta(a,1,b2)) (CONVENTIONS.md,
    braid sectors), products with 1/d_a and the memoized 1/theta(a,1,b2)."""
    bs = [b for b in (a - 1, a + 1) if 0 <= b <= params.r - 2]
    inv_da = params.inverse_d_k(a)
    col = {b: theta(params, a, 1, b) * inv_da for b in bs}
    row = {b: params.d_k(b) * theta_inverse(params, a, 1, b) for b in bs}
    e, zero = {(b, b2): row[b2] * col[b] for b in bs for b2 in bs}, params.zero()
    return {sign: {(b, b2): params.a_pow(-sign) * v + (params.a_pow(sign) if b == b2 else zero)
                   for (b, b2), v in e.items()} for sign in (1, -1)}


def _generator_matrix(params: QuantumParams, n: int, m: int, gen: int):
    """Sector matrix of sigma_|gen|^(sign gen) on the path basis, as
    {row: Scalar} columns: A^sign on the diagonal, and over a repeated
    neighbour value the entries of the level's local table
    (`_letter_block`), the diagonal entry first."""
    paths = path_basis(params, n, m)
    idx = {p: k for k, p in enumerate(paths)}
    i, sign = abs(gen), 1 if gen > 0 else -1
    a_diag = params.a_pow(sign)
    out = []
    for k, p in enumerate(paths):
        a, b = p[i - 1], p[i]
        if a != p[i + 1]:
            out.append({k: a_diag})
            continue
        block = params.cached(("letter_block", a), lambda: _letter_block(params, a))[sign]
        col = {k: block[b, b]}
        for b2 in (a - 1, a + 1):
            q = p[:i] + (b2,) + p[i + 1:]
            if b2 != b and q in idx:
                col[idx[q]] = block[b, b2]
        out.append(col)
    return out


def _sector_dim(params: QuantumParams, n: int, m: int) -> int:
    """The dimension of sector m of B_n; an empty sector raises."""
    dim = len(_paths(params, n, m))
    if not dim:
        raise DomainError(f"sector m={m} is empty for {n} strands at r={params.r}")
    return dim


def _generator_columns(params: QuantumParams, n: int, m: int, gen: int):
    """The column form (`linalg.columns`) of the sector-m matrix of a
    letter, memoized in the level memo."""
    return params.cached(("braid_cols", n, m, gen),
                         lambda: columns(_generator_matrix(params, n, m, gen)))


def jones_sector_rep(params: QuantumParams, braid: BraidWord, m: int) -> RepMatrix:
    """The sector-m representation matrix of a braid word: the product of
    its letters' column forms (`_generator_columns`), decoded entry by entry
    (`linalg.mat_product`); detection probes the same product column by
    column."""
    dim = _sector_dim(params, braid.n, m)
    gens = [_generator_columns(params, braid.n, m, g) for g in braid.word]
    return RepMatrix(rows(params, mat_product(params, gens, dim)), params.r, "braid_sector",
                     (braid.n, m))


@dataclass(frozen=True)
class Cabling:
    """Cable multiplicities (c_1, ..., c_n), one per bottom strand position."""

    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if not self.multiplicities or any(c < 1 for c in self.multiplicities):
            raise DomainError("cable multiplicities must be positive")

    @property
    def total(self):
        return sum(self.multiplicities)


def block_crossing(offset: int, p: int, q: int, positive: bool):
    """Word crossing a left block of p strands over/under a right block of q,
    both starting after `offset` strands."""
    word = [offset + p - a + b for a in range(p) for b in range(q)]
    return word if positive else [-g for g in reversed(word)]


def cable(braid: BraidWord, cabling: Cabling) -> BraidWord:
    """Replace strand i by c_i parallel strands (blackboard framing); with
    every c_i = 1 the braid itself."""
    if len(cabling.multiplicities) != braid.n:
        raise DomainError("cabling length must match strand count")
    if cabling.total == braid.n:
        return braid
    widths = list(cabling.multiplicities)
    out = []
    for g in braid.word:
        i = abs(g)
        offset = sum(widths[:i - 1])
        p, q = widths[i - 1], widths[i]
        if g > 0:
            out.extend(block_crossing(offset, p, q, True))
        else:
            out.extend(block_crossing(offset, q, p, False))
        widths[i - 1], widths[i] = widths[i], widths[i - 1]
    return BraidWord(cabling.total, tuple(out))


def _cablings(n: int, bound: int):
    """All cablings with multiplicities 1..bound, ascending by total then
    lexicographic, each built when the scan reaches it."""
    def parts(k, total):
        # the k-tuples in 1..bound summing to total, lexicographic
        if k == 0:
            yield ()
            return
        for c in range(max(1, total - bound * (k - 1)), min(bound, total - k + 1) + 1):
            for rest in parts(k - 1, total - c):
                yield (c,) + rest

    for total in range(n, n * bound + 1):
        for mult in parts(n, total):
            yield Cabling(mult)


def braid_detect(braid: BraidWord, r_range, cabling_bound: int = 1,
                 s: int = 1) -> DetectionResult:
    """Search (r ascending, cabling ascending by total then lex, sector m
    ascending) for a sector matrix of a cabling of the braid that is not the
    identity matrix (exactly -- central elements separate by sector scalars),
    probed column by column on its letters' column forms
    (`linalg.scalar_of`); the witness is (cable multiplicities, m)."""
    if cabling_bound < 1:
        raise DomainError(f"cabling bound must be at least 1, got {cabling_bound}")
    # the (cabling, cabled word) pairs in scan order, each built when the
    # scan first reaches it and read again at every later level
    cabled, rest = [], _cablings(braid.n, cabling_bound)

    def scan():
        yield from cabled
        for cab in rest:
            cabled.append((cab, cable(braid, cab)))
            yield cabled[-1]

    def probe(params):
        for cab, word in scan():
            for m in sector_labels(params, word.n):
                gens = [_generator_columns(params, word.n, m, g) for g in word.word]
                lam = scalar_of(params, gens, _sector_dim(params, word.n, m))
                if lam is None or not lam.is_one():
                    return (cab.multiplicities, m)
        return None

    return scan_levels(r_range, s, probe)
