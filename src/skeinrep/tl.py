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

Every product is one packed column chain on diagram keys
(``linalg.product_columns``) from the identity diagram, each factor a right
multiplication (``_Times``): ``then`` chains its two operands, a braid
word its letters, and the Jones-Wenzl projector P_k Wenzl's factors.  A
factor packs its few values c_D d^k once per ring and keeps them as long
as it lives; it reads each column's diagrams from the composition memo and
keeps nothing per diagram.

The only global memo is the diagram-pair compositions: they do not depend
on the level, so every level shares them.  Neither does the loop count of
a diagram's Markov closure, which is kept on the diagram itself
(``TLDiagram.closure_loops``).  Jones-Wenzl projectors, braid letters and
the loop powers d^k (``loop_power``) do depend on the level, and live in
the level memo of QuantumParams.cached, a letter with its packed values;
every root of the level reads the same object, since a TLElement, like
its coefficients, is bound to the level.
"""
from __future__ import annotations

from .linalg import product_columns
from .scalars import QuantumParams, Scalar, common_denominator
from .unionfind import UnionFind


class TLDiagram:
    """A crossingless matching with nb bottom and nt top boundary points."""

    __slots__ = ("nb", "nt", "pairs", "_hash", "_loops")

    def __init__(self, nb: int, nt: int, pairs):
        self.nb = nb
        self.nt = nt
        self.pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        self._hash = hash((nb, nt, self.pairs))
        self._loops = None
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

    def closure_loops(self) -> int:
        """The loops of the Markov closure, top point i joined to bottom
        point i, counted once and kept on the diagram: closing point p (top
        or bottom) lands on strand p mod n, and a pair joining two
        already-connected strands closes a loop."""
        if self._loops is None:
            n, uf = self.nb, UnionFind()
            self._loops = sum(not uf.union(a % n, b % n) for a, b in self.pairs)
        return self._loops

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

    # ----- category structure -----

    def then(self, other: "TLElement") -> "TLElement":
        """self followed upward by other: other stacked on top of self, the
        chain of the two right multiplications (`_times`); c-free only."""
        if self.nt != other.nb:
            raise ValueError(f"strand-count mismatch: {self.nt} vs {other.nb}")
        return _product(self.params, self.nb, other.nt, [_times(self), _times(other)])

    def __mul__(self, other):
        """Algebra product x * y = y stacked on top of x (apply x first)."""
        return self.then(other)

    def markov_trace(self) -> Scalar:
        """Close top point i to bottom point i; each closed loop contributes d.
        The coefficients are summed per loop count k
        (`TLDiagram.closure_loops`) before the one product by d^k."""
        if self.nb != self.nt:
            raise ValueError("Markov trace requires an endomorphism")
        by_loops = {}
        for diag, coeff in self.terms.items():
            loops = diag.closure_loops()
            acc = by_loops.get(loops)
            by_loops[loops] = coeff if acc is None else acc + coeff
        total = self.params.zero()
        for loops, coeff in by_loops.items():
            total = total + coeff * loop_power(self.params, loops)
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
    """The Jones-Wenzl projector P_k = X_2 ... X_k on k strands, the Wenzl
    recursion P_n = (P_{n-1} (x) 1) X_n as one product (Wenzl 1987;
    Frenkel-Khovanov 1997), with each staircase one diagram (`_stair`):

        X_j = 1 + sum_{i<j} (-1)^(j-i) (d_{i-1}/d_{j-1}) e_{j-1} ... e_i.

    Valid for k <= r-2: d_{j-1} = (-1)^(j-1) [j] vanishes first at j = r.
    """
    if k < 0:
        raise ValueError("negative strand count")
    if k > params.r - 2:
        raise ValueError(f"P_{k} undefined at r={params.r}: labels stop at r-2={params.r - 2}")

    def build():
        factors = []
        for j in range(2, k + 1):
            inv = params.inverse_d_k(j - 1)
            terms = {TLDiagram.identity(k): params.one()}
            for i in range(1, j):
                ratio = params.d_k(i - 1) * inv
                terms[_stair(k, j, i)] = -ratio if (j - i) % 2 else ratio
            factors.append(_times(TLElement(params, k, k, terms)))
        return _product(params, k, k, factors)

    return params.cached(("jw", k), build)


def _stair(n: int, j: int, i: int) -> TLDiagram:
    """The diagram e_{j-1} e_{j-2} ... e_i of TL_n, e_{j-1} lowest."""
    diag = TLDiagram.e_gen(n, j - 1)
    for m in range(j - 2, i - 1, -1):
        diag, _ = _compose_diagrams(diag, TLDiagram.e_gen(n, m))
    return diag


def resolve_braid(params: QuantumParams, word, n: int) -> TLElement:
    """Image of a braid word in TL_n via the Kauffman relation.

    Generators are signed integers: +i is sigma_i (1-indexed), -i its inverse.
    sigma_i -> A * id + A^{-1} * e_i.

    The word is the chain of its letters.  A letter's column mass is 3,
    whatever its reduced numerators: its column is the monomials A^{+-1}
    and A^{-+1}, the latter times at most one loop d, |d|_1 = 2
    (CONVENTIONS.md, the column rule).  Each letter's factor lives in the
    level memo, so its packed numerators outlive the call.
    """
    for g in word:
        if not 1 <= abs(g) <= n - 1:
            raise ValueError(f"generator {g} out of range for {n} strands")

    def letter(g):
        a, ainv, d = params.a_pow(1), params.a_pow(-1), params.loop_d()
        den, (a, ainv, a_d, ainv_d) = common_denominator([a, ainv, a * d, ainv * d])
        e = TLDiagram.e_gen(n, abs(g))
        terms = ((None, (a,)), (e, (ainv, ainv_d))) if g > 0 else ((None, (ainv,)), (e, (a, a_d)))
        return den, 3, _Times(terms)

    letters = {g: params.cached(("letter", n, g), lambda: letter(g)) for g in set(word)}
    return _product(params, n, n, [letters[g] for g in word])


def _product(params: QuantumParams, n: int, nt: int, factors) -> TLElement:
    """The (n, nt) element 1_n f_1 f_2 ...: the column forms (L, c, cols)
    of right multiplications f_i applied in order from the identity
    diagram, one `linalg.product_columns` chain (rightmost factor first).
    A zero factor (c = 0) makes the product zero: a factor's values are
    packed whole, and a segment's ring, sized by the growths it multiplies,
    holds none of them when one growth is 0."""
    if not all(c for _, c, _ in factors):
        return TLElement(params, n, nt)
    (col, ring, den), = product_columns(params, factors[::-1], [TLDiagram.identity(n)])
    return TLElement(params, n, nt, {diag: ring.decode(z, den) for diag, z in col.items()})


def _times(x: TLElement):
    """The column form (L, c, `_Times`) of the right multiplication by x:
    stacking D closes at most caps(D) loops, the pairs among D's bottom
    points, so its terms hold c_D d^k for k = 0 .. caps(D) over L, the lcm
    of x's denominators, and c = sum_D |c_D|_1 2^caps(D) (CONVENTIONS.md,
    the column rule).  The identity diagram's term is keyed None."""
    p, ident = x.params, TLDiagram.identity(x.nb).pairs
    caps = [sum(b < x.nb for _, b in diag.pairs) for diag in x.terms]
    den, nums = common_denominator(
        coeff * loop_power(p, k) if k else coeff
        for coeff, top in zip(x.terms.values(), caps) for k in range(top + 1))
    terms, pos = [], 0
    for diag, top in zip(x.terms, caps):
        terms.append((None if diag.pairs == ident else diag, nums[pos:pos + top + 1]))
        pos += top + 1
    return den, sum(sum(map(abs, t[0])) << top for (_, t), top in zip(terms, caps)), _Times(terms)


class _Times:
    """The columns of a right multiplication on diagram keys: terms are
    (D, values of c_D d^k by loop count k), numerators over the factor's L,
    and column `diagram` holds (diagram D, c_D d^k), read off
    ``_compose_diagrams`` whenever a chain reaches the diagram, or
    (diagram, c_D) for the identity, D None.  ``packed(ring)`` is the same
    factor with its values packed in ring, built at the first read in that
    ring and kept as long as the factor lives; nothing is kept per
    diagram."""

    __slots__ = ("terms", "_rings")

    def __init__(self, terms):
        self.terms = terms
        self._rings = {}

    def packed(self, ring):
        got = self._rings.get(ring)
        if got is None:
            got = self._rings[ring] = _Times([(e, [ring.pack(v) for v in nums])
                                              for e, nums in self.terms])
        return got

    def __getitem__(self, diag):
        out = []
        for e, nums in self.terms:
            if e is None:
                out.append((diag, nums[0]))
            else:
                stacked, loops = _compose_diagrams(diag, e)
                out.append((stacked, nums[loops]))
        return out


def markov_trace(x: TLElement) -> Scalar:
    return x.markov_trace()
