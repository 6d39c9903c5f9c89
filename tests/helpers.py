"""Small helpers shared by the tests: raw polynomial arithmetic over
Fraction sequences (the division that the reference inverse of
``tests/test_scalar_reference.py`` runs, and the cyclotomic polynomials
built from it), rational constants as Scalars, projective comparison of matrices, union-find
classes, the reference product kernel of ``tests/test_scalar_kernel.py``,
seeded braid words, the l1 masses, column masses, coefficient bounds and
segment record of the packed residue chains, a surface model's curve
names, the JSON readers of a Scalar and a TL element and the TL identity
element, which no package code reads, a link with its arcs renamed, and
the conversion between the package's matrix format ({row: Scalar}
columns) and the dense rows that the references multiply.
The brute-force references of the paper's objects are in ``oracles.py``.
Nothing in the package imports this module."""
import math
from fractions import Fraction

from skeinrep import linalg, skein
from skeinrep.scalars import Scalar, _part
from skeinrep.skein import Component, LabeledLink
from skeinrep.tl import TLDiagram, TLElement


def poly_sub(u, v):
    """u - v for raw Fraction coefficient sequences (no modular reduction)."""
    n = max(len(u), len(v))
    return tuple(
        (u[i] if i < len(u) else Fraction(0)) - (v[i] if i < len(v) else Fraction(0))
        for i in range(n)
    )


def poly_mul_raw(u, v):
    """u * v for raw Fraction coefficient sequences (no modular reduction)."""
    if not u or not v:
        return ()
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return tuple(out)


def poly_trim(u):
    """u without its trailing zero coefficients."""
    u = list(u)
    while u and not u[-1]:
        u.pop()
    return tuple(u)


def poly_divmod(u, v):
    """(quotient, remainder) of u by v for raw Fraction coefficient
    sequences, both trimmed; raises ZeroDivisionError when v is zero."""
    u = list(poly_trim(u))
    v = poly_trim(v)
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    top = len(v) - 1
    q = [Fraction(0)] * max(len(u) - top, 1)
    # each step clears u[deg + top] exactly, so u is reduced in place and
    # the remainder is what is left below degree top
    for deg in range(len(u) - len(v), -1, -1):
        coef = u[deg + top] / v[top]
        if coef:
            q[deg] = coef
            for i in range(top):
                u[deg + i] -= coef * v[i]
    return tuple(q), poly_trim(u[:top])


def cyclotomic_table(limit: int):
    """{n: Phi_n} for n = 1 .. limit as Fraction coefficients, constant
    first: Phi_n is x^n - 1 divided by Phi_d for every proper divisor d of
    n, the largest first, each read off the table itself."""
    table = {}
    for n in range(1, limit + 1):
        poly = (Fraction(-1),) + (Fraction(0),) * (n - 1) + (Fraction(1),)
        for d in range(n // 2, 0, -1):
            if n % d == 0:
                poly, rem = poly_divmod(poly, table[d])
                assert rem == (), (n, d)
        table[n] = poly
    return table


def from_rational(params, q):
    """The rational constant q as a Scalar of params, read from its JSON
    form (coefficient q on A^0)."""
    coeffs = [str(Fraction(q))] + ["0"] * (params.phi - 1)
    return scalar_from_json(params, {"cpow": 0, "coeffs": coeffs})


def from_int(params, n: int):
    """The integer constant n as a Scalar of params."""
    return from_rational(params, n)


def text_ratio(text: str):
    """(p, q) of the text p or p/q, q > 0; anything else raises ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"coefficient {text!r} is not a string")
    num, slash, den = text.partition("/")
    p, q = int(num), int(den) if slash else 1
    if q <= 0:
        raise ValueError(f"coefficient {text!r} has a denominator below 1")
    return p, q


def scalar_from_json(params, obj):
    """The Scalar of ``Scalar.to_json``'s form: each coefficient is the
    text p or p/q of a rational, q > 0, not necessarily in lowest terms."""
    ratios = [text_ratio(t) for t in obj["coeffs"]]
    if len(ratios) != params.phi:
        raise ValueError(f"expected {params.phi} coefficients, got {len(ratios)}")
    den = math.lcm(*(q for _, q in ratios))
    part = _part([p * (den // q) for p, q in ratios], den)
    return Scalar(params.level, part, int(obj["cpow"]) % 2 if part else 0)


def diagram_from_parens(nb: int, nt: int, s: str):
    """The TL diagram of ``TLDiagram.parens``'s encoding along the circular
    boundary order."""
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


def tl_element_from_json(params, obj):
    """The TL element of ``TLElement.to_json``'s form."""
    nb = int(obj["n"])
    nt = int(obj.get("n_top", nb))
    terms = {diagram_from_parens(nb, nt, t["matching"]): scalar_from_json(params, t["coeff"])
             for t in obj["terms"]}
    return TLElement(params, nb, nt, terms)


def tl_identity(params, n: int):
    """The identity element of TL_n."""
    return TLElement(params, n, n, {TLDiagram.identity(n): params.one()})


def scalar_multiple_of(a, b):
    """If a = s*b for a Scalar s (b nonzero), return s; else None.

    Used for exact projective comparisons of representation matrices.
    """
    s = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y.is_zero():
                if not x.is_zero():
                    return None
                continue
            ratio = x / y
            if s is None:
                s = ratio
            elif s != ratio:
                return None
    return s


def groups(uf, items):
    """The classes of a UnionFind among items, as lists in first-seen order,
    ordered by their first-seen member."""
    out = {}
    for x in dict.fromkeys(items):
        out.setdefault(uf.find(x), []).append(x)
    return list(out.values())


def reduction_table(self):
    """x^k mod Phi for k = phi .. 2*phi - 2, as the nonzero (i, coefficient)
    pairs of each row, used to reduce products."""
    rows = []
    cur = [0] * (self.phi - 1) + [1]
    for _ in range(self.phi - 1):
        cur = self._times_x(cur)
        rows.append(tuple((i, t) for i, t in enumerate(cur) if t))
    return rows


def poly_mul_reference(self, u, v):
    """Product of two nonzero parts.  Each numerator vector is packed into
    one integer, as signed digits of b bits with 2^(b-1) above every
    coefficient of the product; one big-integer multiply gives the
    2*phi - 1 product coefficients, which are reduced modulo Phi.

    The product kernel of ``QuantumParams`` before it reduced in the packed
    integer, kept as the reference of ``tests/test_scalar_kernel.py``; self
    is a QuantumParams."""
    (un, ud), (vn, vd) = u, v
    phi = self.phi
    b = max(map(abs, un)).bit_length() + max(map(abs, vn)).bit_length() + phi.bit_length() + 1
    x = y = 0
    for c in reversed(un):
        x = (x << b) + c
    for c in reversed(vn):
        y = (y << b) + c
    z = x * y
    mask, half, full = (1 << b) - 1, 1 << (b - 1), 1 << b
    digits = []
    for _ in range(2 * phi - 1):
        d = z & mask
        z >>= b
        if d >= half:
            d -= full
            z += 1
        digits.append(d)
    out = digits[:phi]
    for c, row in zip(digits[phi:], reduction_table(self)):
        if c:
            for i, t in row:
                out[i] += c * t
    return _part(out, ud * vd)


def residue_mu(params):
    """mu = max_e |A^e mod Phi|_inf, read off the parts of the powers of A."""
    return max(abs(c) for e in range(params.order) for c in params.a_pow(e).part[0])


def ring_bits(params, ring):
    """Bits per digit of a `PackedRing`."""
    return 8 * ring._packer.size // params.phi


def assert_narrowest_ring(params, ring, mass):
    """ring is the level's ring for l1 mass `mass` (`QuantumParams.ring`),
    and its width b is the narrowest with B = mu * mass < 2^(b-2): 1, 2, 4
    or 8 bytes a digit, else a multiple of 8."""
    bound, b = residue_mu(params) * mass, ring_bits(params, ring)
    assert ring is params.ring(mass) and ring.params is params.level
    assert bound < 2 ** (b - 2)
    if b > 8:
        narrower = b // 2 if b <= 128 else b - 64
        assert bound >= 2 ** (narrower - 2)


def masses_over_lcm(values):
    """(L, masses): L the lcm of the denominators of the nonzero values, and
    the l1 mass of each one's numerators over L."""
    parts = [v.part for v in values if not v.is_zero()]
    den = math.lcm(*(d for _, d in parts))
    return den, [sum(map(abs, nums)) * (den // d) for nums, d in parts]


def column_masses(matrix):
    """(L, c) of a matrix: L the lcm of its entry denominators, c the
    largest l1 mass of a column of its numerators over L."""
    den = masses_over_lcm([x for row in matrix for x in row])[0]
    return den, max(sum(sum(map(abs, x.part[0])) * (den // x.part[1])
                        for x in col if not x.is_zero()) for col in zip(*matrix))


def coefficients_within(values, den, bound):
    """Whether every nonzero value is an integer vector over den whose
    coefficients are at most bound in absolute value."""
    return all(den % d == 0 and max(map(abs, nums)) * (den // d) <= bound
               for nums, d in (v.part for v in values if not v.is_zero()))


def random_word(rng, n, length):
    """A seeded braid word of `length` letters on n strands."""
    gens = [i for i in range(-(n - 1), n) if i]
    return tuple(rng.choice(gens) for _ in range(length))


def record_segments(monkeypatch):
    """The list that every later `linalg.next_segment` call, from the
    column chain or the skein sweep, appends its (k, ring) to."""
    seen = []
    segment = linalg.next_segment

    def recorded(params, growths, values=None):
        out = segment(params, growths, values)
        seen.append(out[:2])
        return out

    monkeypatch.setattr(linalg, "next_segment", recorded)
    monkeypatch.setattr(skein, "next_segment", recorded)
    return seen


def curves(model):
    """The curve names of a `mcg.SurfaceModel`, in its table's order."""
    return tuple(model._curves)


def dense_rows(params, matrix):
    """The dense rows of a matrix given in the package's format, a list of
    {row: Scalar} columns (a missing row is zero)."""
    out = [[params.zero()] * len(matrix) for _ in matrix]
    for j, col in enumerate(matrix):
        for i, x in col.items():
            out[i][j] = x
    return out


def sparse_columns(matrix):
    """The package's format, a list of {row: Scalar} columns holding the
    nonzero entries, of a matrix given as dense rows."""
    return [{i: x for i, x in enumerate(col) if not x.is_zero()} for col in zip(*matrix)]


def renamed_arcs(link, rng):
    """`link` with its arcs renamed by a seeded permutation onto as many
    ids drawn from 1..10 n, n the number of arcs: the same diagram, its
    crossings and components in the same order."""
    arcs = sorted({a for x in link.crossings for a in x})
    name = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 1), len(arcs))))
    return LabeledLink([Component(c.label, c.framing, [name[a] for a in c.arcs])
                        for c in link.components],
                       [[name[a] for a in x] for x in link.crossings])
