"""Temperley-Lieb category over the cyclotomic Scalars.

A diagram is a planar perfect matching of nb bottom points and nt top
points; closed loops created by stacking contribute a factor of
d = -A^2 - A^{-2}.  Endomorphism diagrams (nb = nt = n) form the algebra
TL_n with basis the Catalan(n) crossingless matchings.

Point numbering: bottom 0..nb-1 left to right, then top nb..nb+nt-1 left to
right.  The circular boundary order (for the parenthesis encoding) walks
the bottom left to right, then the top right to left.

Every gluing is one union-find over point numbers (the package's
``UnionFind``): stacking two diagrams joins the lower top points to the
upper bottom points, and the Markov trace joins top point i to bottom
point i.  A group with two outer points is a pair of the result, and a
union inside one group closes a loop, worth a factor d.

The only global memo is the diagram-pair compositions: they do not depend
on the level, so every level shares them.  Jones-Wenzl projectors and the
loop powers d^k (``loop_power``) do depend on it, and live in the level
memo of QuantumParams.cached; every root of the level reads the same
object, since a TLElement, like its coefficients, is bound to the level.
"""
from __future__ import annotations

import itertools

from .scalars import PackedRing, QuantumParams, Scalar, common_denominator
from .unionfind import UnionFind


class TLDiagram:
    """A crossingless matching with nb bottom and nt top boundary points."""

    __slots__ = ("nb", "nt", "pairs", "_hash")

    def __init__(self, nb: int, nt: int, pairs):
        self.nb = nb
        self.nt = nt
        self.pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        self._hash = hash((nb, nt, self.pairs))
        if 2 * len(self.pairs) != nb + nt:
            raise ValueError("not a perfect matching")

    def __eq__(self, other):
        return (self.nb, self.nt, self.pairs) == (other.nb, other.nt, other.pairs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TLDiagram({self.nb}->{self.nt}, '{self.parens()}')"

    def circular_order(self):
        return list(range(self.nb)) + list(range(self.nb + self.nt - 1, self.nb - 1, -1))

    def parens(self) -> str:
        """Balanced-parenthesis encoding along the circular boundary order."""
        order = self.circular_order()
        pos = {p: i for i, p in enumerate(order)}
        partner = {}
        for a, b in self.pairs:
            partner[a] = b
            partner[b] = a
        return "".join("(" if pos[partner[p]] > pos[p] else ")" for p in order)

    @staticmethod
    def from_parens(nb: int, nt: int, s: str) -> "TLDiagram":
        order = list(range(nb)) + list(range(nb + nt - 1, nb - 1, -1))
        if len(s) != len(order):
            raise ValueError("parenthesis string has wrong length")
        stack, pairs = [], []
        for p, ch in zip(order, s):
            if ch == "(":
                stack.append(p)
            elif ch == ")":
                if not stack:
                    raise ValueError("unbalanced parenthesis string")
                pairs.append((stack.pop(), p))
            else:
                raise ValueError(f"bad character {ch!r} in matching string")
        if stack:
            raise ValueError("unbalanced parenthesis string")
        return TLDiagram(nb, nt, pairs)

    @staticmethod
    def identity(n: int) -> "TLDiagram":
        return TLDiagram(n, n, [(i, n + i) for i in range(n)])

    @staticmethod
    def e_gen(n: int, i: int) -> "TLDiagram":
        """Turn-back generator e_i (1-indexed, 1 <= i <= n-1)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for {n} strands")
        pairs = [(i - 1, i), (n + i - 1, n + i)]
        pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
        return TLDiagram(n, n, pairs)


_COMPOSE_CACHE: dict = {}
# the composition memo is emptied when it holds this many pairs, so that a
# process resolving wide braids (TL_12 has 208012 diagrams) stays bounded
_COMPOSE_CACHE_LIMIT = 1 << 16


def _compose_diagrams(lo: TLDiagram, hi: TLDiagram):
    """Stack hi on top of lo (lo's top glued to hi's bottom).

    Returns (composed TLDiagram, number of closed loops).  hi's points are
    shifted by lo.nb, so its bottom point k and lo's top point lo.nb + k are
    one item of a union-find; a group with two outer points is a pair of the
    result, and a group with none is a closed loop, counted as the union that
    closes it (the rule of ``markov_trace``).
    """
    key = (lo, hi)
    hit = _COMPOSE_CACHE.get(key)
    if hit is not None:
        return hit
    if lo.nt != hi.nb:
        raise ValueError("strand-count mismatch in composition")
    shift, top = lo.nb, lo.nb + hi.nb
    uf = UnionFind()
    for a, b in lo.pairs:
        uf.union(a, b)
    loops = sum(not uf.union(a + shift, b + shift) for a, b in hi.pairs)
    ends = {}
    for q in list(range(lo.nb)) + list(range(top, top + hi.nt)):
        ends.setdefault(uf.find(q), []).append(q if q < lo.nb else q - hi.nb)
    result = (TLDiagram(lo.nb, hi.nt, ends.values()), loops)
    if len(_COMPOSE_CACHE) >= _COMPOSE_CACHE_LIMIT:
        _COMPOSE_CACHE.clear()
    _COMPOSE_CACHE[key] = result
    return result


def loop_power(params: QuantumParams, k: int) -> Scalar:
    """d^k, the factor of k closed loops, memoized in the level memo."""
    return params.cached(("loop_power", k), lambda: params.loop_d() ** k)


def block_crossing(offset: int, p: int, q: int, positive: bool):
    """Word crossing a left block of p strands over/under a right block of q,
    both starting after `offset` strands."""
    word = [offset + p - a + b for a in range(p) for b in range(q)]
    return word if positive else [-g for g in reversed(word)]


class TLElement:
    """Finite Scalar-linear combination of TL diagrams sharing (nb, nt)."""

    __slots__ = ("params", "nb", "nt", "terms")

    def __init__(self, params: QuantumParams, nb: int, nt: int, terms=None):
        self.params = params.level
        self.nb = nb
        self.nt = nt
        self.terms = {}
        if terms:
            for diag, coeff in terms.items():
                if (diag.nb, diag.nt) != (nb, nt):
                    raise ValueError("diagram shape mismatch")
                if not coeff.is_zero():
                    self.terms[diag] = coeff

    # ----- constructors -----

    @staticmethod
    def zero(params, nb, nt=None):
        return TLElement(params, nb, nb if nt is None else nt)

    @staticmethod
    def identity(params, n):
        return TLElement(params, n, n, {TLDiagram.identity(n): params.one()})

    @staticmethod
    def e(params, n, i):
        return TLElement(params, n, n, {TLDiagram.e_gen(n, i): params.one()})

    # ----- linear structure -----

    def __add__(self, other):
        if (self.nb, self.nt) != (other.nb, other.nt):
            raise ValueError("shape mismatch")
        terms = dict(self.terms)
        for diag, coeff in other.terms.items():
            acc = terms.get(diag)
            terms[diag] = coeff if acc is None else acc + coeff
        return TLElement(self.params, self.nb, self.nt, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TLElement(self.params, self.nb, self.nt,
                         {diag: -coeff for diag, coeff in self.terms.items()})

    def scale(self, scalar: Scalar):
        return TLElement(self.params, self.nb, self.nt,
                         {diag: scalar * coeff for diag, coeff in self.terms.items()})

    # ----- category structure -----

    def then(self, other: "TLElement") -> "TLElement":
        """self followed upward by other: other stacked on top of self."""
        if self.nt != other.nb:
            raise ValueError(f"strand-count mismatch: {self.nt} vs {other.nb}")
        p = self.params
        terms = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                diag, loops = _compose_diagrams(d1, d2)
                coeff = c1 * c2
                if loops:
                    coeff = coeff * loop_power(p, loops)
                acc = terms.get(diag)
                terms[diag] = coeff if acc is None else acc + coeff
        return TLElement(p, self.nb, other.nt, terms)

    def __mul__(self, other):
        """Algebra product x * y = y stacked on top of x (apply x first)."""
        return self.then(other)

    def tensor(self, other: "TLElement") -> "TLElement":
        """other placed to the right of self.  Distinct diagram pairs give
        distinct diagrams, so no two terms merge."""
        nb, nt = self.nb + other.nb, self.nt + other.nt

        def left(q):
            return q if q < self.nb else q + other.nb

        def right(q):
            return self.nb + q if q < other.nb else nb + self.nt + q - other.nb

        return TLElement(self.params, nb, nt, {
            TLDiagram(nb, nt, [(left(a), left(b)) for a, b in d1.pairs]
                      + [(right(a), right(b)) for a, b in d2.pairs]): c1 * c2
            for d1, c1 in self.terms.items() for d2, c2 in other.terms.items()})

    def markov_trace(self) -> Scalar:
        """Close top point i to bottom point i; each closed loop contributes d."""
        if self.nb != self.nt:
            raise ValueError("Markov trace requires an endomorphism")
        p = self.params
        total = p.zero()
        n = self.nb
        for diag, coeff in self.terms.items():
            # closing point p (top or bottom) lands on strand p mod n; a pair
            # joining two already-connected strands closes a loop
            uf = UnionFind()
            loops = sum(not uf.union(a % n, b % n) for a, b in diag.pairs)
            total = total + (coeff * loop_power(p, loops) if loops else coeff)
        return total

    # ----- queries -----

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.nb, self.nt) == (other.nb, other.nt) and self.terms == other.terms

    def __repr__(self):
        return f"TLElement({self.nb}->{self.nt}, {len(self.terms)} terms)"

    def to_json(self):
        return {"n": self.nb, "n_top": self.nt,
                "terms": [{"matching": diag.parens(), "coeff": coeff.to_json()}
                          for diag, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].parens())]}

    @staticmethod
    def from_json(params, obj):
        nb = int(obj["n"])
        nt = int(obj.get("n_top", nb))
        terms = {}
        for t in obj["terms"]:
            diag = TLDiagram.from_parens(nb, nt, t["matching"])
            terms[diag] = Scalar.from_json(params, t["coeff"])
        return TLElement(params, nb, nt, terms)


# ----- named operations -----


def jones_wenzl(params: QuantumParams, k: int) -> TLElement:
    """The Jones-Wenzl projector P_k via the Wenzl recursion.

    P_n = P_{n-1} - (Delta_{n-2}/Delta_{n-1}) P_{n-1} e_{n-1} P_{n-1} with
    Delta_k = (-1)^k [k+1]; valid for k <= r-2 (the recursion divides by
    [n], which vanishes first at n = r).
    """
    if k < 0:
        raise ValueError("negative strand count")
    if k > params.r - 2:
        raise ValueError(f"P_{k} undefined at r={params.r}: labels stop at r-2={params.r - 2}")
    proj = params.cached(("jw", 0), lambda: TLElement.identity(params, 0))
    for n in range(1, k + 1):
        proj = params.cached(("jw", n), lambda: _wenzl_step(params, proj, n))
    return proj


def _wenzl_step(params, prev, n):
    """P_n from P_{n-1}."""
    wide = prev.tensor(TLElement.identity(params, 1))
    if n == 1:
        return wide
    # Delta_{n-2}/Delta_{n-1} with Delta_k = (-1)^k [k+1] (loop d is negative)
    ratio = params.d_k(n - 2) / params.d_k(n - 1)
    return wide - (wide * TLElement.e(params, n, n - 1) * wide).scale(ratio)


def resolve_braid(params: QuantumParams, word, n: int) -> TLElement:
    """Image of a braid word in TL_n via the Kauffman relation.

    Generators are signed integers: +i is sigma_i (1-indexed), -i its inverse.
    sigma_i -> A * id + A^{-1} * e_i.

    The coefficients are residues of a `PackedRing` (CONVENTIONS.md, residue
    rule): a letter is an integer multiply-add per term.  Stacking e_i
    closes at most one loop d, |d|_1 = 2, so a letter multiplies the total
    l1 mass of the coefficients by at most 1 + 2 = 3, and a segment of k
    letters that starts at total mass M0 has B = mu * M0 * 3^k.  Each
    segment ends with one decode per term (`PackedRing.segment`).
    """
    for g in word:
        if not 1 <= abs(g) <= n - 1:
            raise ValueError(f"generator {g} out of range for {n} strands")
    e_gens = {i: TLDiagram.e_gen(n, i) for i in range(1, n)}
    out = TLElement.identity(params, n)
    pos = 0
    while pos < len(word):
        den, nums = common_denominator(out.terms.values())
        k, ring = PackedRing.segment(params, sum(sum(map(abs, v)) for v in nums),
                                     itertools.repeat(3, len(word) - pos))
        letters = _letter_residues(params, ring)
        terms = dict(zip(out.terms, map(ring.pack, nums)))
        for g in word[pos:pos + k]:
            a, ainv, ainv_d = letters[g > 0]
            e = e_gens[abs(g)]
            new = {}
            for diag, z in terms.items():
                new[diag] = new.get(diag, 0) + z * a
                stacked, loops = _compose_diagrams(diag, e)
                new[stacked] = new.get(stacked, 0) + z * (ainv_d if loops else ainv)
            terms = {diag: v for diag, w in new.items() if (v := w % ring.n)}
        out = TLElement(params, n, n, {diag: ring.decode(z, den) for diag, z in terms.items()})
        pos += k
    return out


def _letter_residues(params: QuantumParams, ring: PackedRing):
    """The residues (A^{+-1}, A^{-+1}, A^{-+1} d) of sigma^{+-1} in `ring`,
    indexed by the sign of the letter (True for sigma, False for its
    inverse), memoized in the level memo."""
    def build():
        values = [params.a_pow(1), params.a_pow(-1), params.a_pow(-1) * params.loop_d(),
                  params.a_pow(1) * params.loop_d()]
        a, ainv, ainv_d, a_d = map(ring.pack, common_denominator(values)[1])
        return (ainv, a, a_d), (a, ainv, ainv_d)
    return params.cached(("braid_letter", ring.n), build)


def markov_trace(x: TLElement) -> Scalar:
    return x.markov_trace()
