"""Recoupling data at a 4r-th root of unity: loop values, theta and
tetrahedral coefficients, 6j symbols / F-matrices, twist coefficients,
encirclement eigenvalues, and the Hopf pairing with its S-matrix.

Every value is a closed form over the level's memoized tables; the test
suite checks each against a brute-force evaluation in Temperley-Lieb
diagram calculus (tests/oracles.py).  Sign and normalization conventions
are spelled out in CONVENTIONS.md at the repository root.
"""
from __future__ import annotations

from functools import reduce
from operator import mul

from .scalars import QuantumParams, Scalar


def valid_label(params: QuantumParams, k: int) -> bool:
    return 0 <= k <= params.r - 2


def check_label(params: QuantumParams, k: int):
    if not valid_label(params, k):
        raise ValueError(f"label {k} outside 0..{params.r - 2}")


def admissible(params: QuantumParams, a: int, b: int, c: int) -> bool:
    """Vertex admissibility: triangle inequalities, even parity, and
    a+b+c <= 2r-4."""
    for k in (a, b, c):
        check_label(params, k)
    if (a + b + c) % 2:
        return False
    if a > b + c or b > c + a or c > a + b:
        return False
    return a + b + c <= 2 * params.r - 4


def loop_value(params: QuantumParams, k: int) -> Scalar:
    """d_k = (-1)^k [k+1], the value of a closed k-labeled loop."""
    check_label(params, k)
    return params.d_k(k)


def _theta_product(a, b, c, f, g):
    """(-1)^{x+y+z} f(x+y+z+1) f(x) f(y) f(z) g(a) g(b) g(c) with
    x=(a+b-c)/2, y=(b+c-a)/2, z=(c+a-b)/2, so that a=z+x, b=x+y, c=y+z;
    f and g are the level's factorial and inverse factorial tables, in
    either order."""
    x, y, z = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    value = reduce(mul, (f(x + y + z + 1), f(x), f(y), f(z), g(a), g(b), g(c)))
    return -value if (x + y + z) % 2 else value


def theta(params: QuantumParams, a: int, b: int, c: int) -> Scalar:
    """Theta network with edge labels a, b, c, built once per level:
      theta = (-1)^{x+y+z} [x+y+z+1]! [x]! [y]! [z]! / ([a]! [b]! [c]!)
    a product of the level's factorial tables (``_theta_product``).
    Returns the zero Scalar on an inadmissible triple.
    """
    def build():
        if not admissible(params, a, b, c):
            return params.zero()
        return _theta_product(a, b, c, params.quantum_factorial, params.inverse_quantum_factorial)
    return params.cached(("theta", a, b, c), build)


def theta_inverse(params: QuantumParams, a: int, b: int, c: int) -> Scalar:
    """1/theta(a, b, c), built once per level with no inverse of its own:
    theta's product with the two factorial tables swapped.  Raises
    ZeroDivisionError on an inadmissible triple, whose theta is 0."""
    def build():
        if not admissible(params, a, b, c):
            raise ZeroDivisionError(f"theta({a}, {b}, {c}) is zero: the triple is inadmissible")
        return _theta_product(a, b, c, params.inverse_quantum_factorial, params.quantum_factorial)
    return params.cached(("1/theta", a, b, c), build)


def tet(params: QuantumParams, a: int, b: int, c: int, d: int, e: int, f: int) -> Scalar:
    """Tetrahedral network with vertex triples (a,b,e), (c,d,e), (a,c,f),
    (b,d,f); closed form per the convention document, built once per level.

    With vertex half-sums a_i and quadrilateral half-sums b_j:
      a_1=(a+b+e)/2, a_2=(c+d+e)/2, a_3=(a+c+f)/2, a_4=(b+d+f)/2
      b_1=(a+d+e+f)/2, b_2=(b+c+e+f)/2, b_3=(a+b+c+d)/2
      tet = (prod_{i,j} [b_j - a_i]! / prod of edge factorials)
            * sum_{s=max a_i}^{min b_j} (-1)^s [s+1]! /
              (prod_i [s - a_i]! prod_j [b_j - s]!)
    Every quotient is a product with the level's inverse factorial table.
    Returns the zero Scalar if any vertex is inadmissible.
    """
    def build():
        triples = [(a, b, e), (c, d, e), (a, c, f), (b, d, f)]
        if not all(admissible(params, *t) for t in triples):
            return params.zero()
        av = [(a + b + e) // 2, (c + d + e) // 2, (a + c + f) // 2, (b + d + f) // 2]
        bv = [(a + d + e + f) // 2, (b + c + e + f) // 2, (a + b + c + d) // 2]
        fq, gq = params.quantum_factorial, params.inverse_quantum_factorial
        total = params.zero()
        for s in range(max(av), min(bv) + 1):
            term = reduce(mul, [fq(s + 1)] + [gq(s - ai) for ai in av] + [gq(bj - s) for bj in bv])
            total = total + (-term if s % 2 else term)
        return reduce(mul, [fq(bj - ai) for bj in bv for ai in av]
                      + [gq(edge) for edge in (a, b, c, d, e, f)], total)
    return params.cached(("tet", a, b, c, d, e, f), build)


def six_j(params: QuantumParams, a: int, b: int, c: int, d: int, e: int, f: int) -> Scalar:
    """Normalized 6j symbol: the F-matrix entry taking the (a,b)(c,d)
    fusion channel e to the (b,c)(a,d) channel f:

      {a b e; c d f} = tet(b,a,c,d,e,f) * d_f / (theta(b,c,f) theta(a,d,f))

    a product with the two memoized theta inverses.
    """
    if not (admissible(params, b, c, f) and admissible(params, a, d, f)):
        return params.zero()
    return (tet(params, b, a, c, d, e, f) * loop_value(params, f)
            * theta_inverse(params, b, c, f) * theta_inverse(params, a, d, f))


def f_matrix(params: QuantumParams, a: int, b: int, c: int, d: int):
    """The F-matrix of the 4-holed sphere with boundary (a,b,c,d), as
    (es, fs, rows): es the admissible middle labels of the (a,b)(c,d)
    decomposition, fs those of the (b,c)(a,d) one, and rows[i][j] the 6j
    symbol taking channel es[i] to channel fs[j]."""
    es = [e for e in range(params.r - 1)
          if admissible(params, a, b, e) and admissible(params, c, d, e)]
    fs = [f for f in range(params.r - 1)
          if admissible(params, b, c, f) and admissible(params, a, d, f)]
    return es, fs, [[six_j(params, a, b, c, d, e, f) for f in fs] for e in es]


def twist_coefficient(params: QuantumParams, k: int, power: int = 1) -> Scalar:
    """Scalar by which a positive kink acts on a k-labeled strand:
    mu_k = (-1)^k A^{k(k+2)}, raised to `power`.  The sign is the one a
    kinked P_k gives in diagram calculus (a single positive kink on an
    unlabeled strand resolves to -A^3)."""
    check_label(params, k)
    value = params.a_pow(power * k * (k + 2))
    return -value if k * power % 2 else value


def encircle_eigenvalue(params: QuantumParams, k: int) -> Scalar:
    """Eigenvalue of an unlabeled loop around a k-labeled strand:
    -(A^{2(k+1)} + A^{-2(k+1)})."""
    check_label(params, k)
    return -(params.a_pow(2 * (k + 1)) + params.a_pow(-2 * (k + 1)))


def hopf_pairing(params: QuantumParams, j: int, k: int) -> Scalar:
    """Value of the 0-framed Hopf link with labels j, k:
    S~_{jk} = (-1)^{j+k} [(j+1)(k+1)]."""
    check_label(params, j)
    check_label(params, k)
    value = params.quantum_int((j + 1) * (k + 1))
    return -value if (j + k) % 2 else value


def s_matrix(params: QuantumParams):
    """The Hopf S-matrix S_jk = hopf_pairing(j, k); S S = D I, so S^{-1} = S/D."""
    labels = range(params.r - 1)
    return [[hopf_pairing(params, j, k) for k in labels] for j in labels]


def punctured_s(params: QuantumParams, c: int):
    """The S-matrix of the one-holed torus with boundary label c (even), as
    {(b, a): S(c)_ba} over the loop labels a, b with (a, a, c) and (b, b, c)
    admissible.  With c = 2h (CONVENTIONS.md, S-move):
      S(c)_ba = A^{hr + h(h+1)} d_b / theta(b,b,c)
                * sum_k d_k A^{k(k+2) - a(a+2) - b(b+2)} tet(a,b,a,b,k,c) / theta(a,b,k)
    normalized so that S(c) S(c) = D I.  At c = 0 it is the Hopf S-matrix,
    read off `s_matrix`.  The k-sum is symmetric in a and b, as
    tet(a,b,a,b,k,c) and tet(b,a,b,a,k,c) are one tetrahedron, so it runs
    once per pair a <= b and only the row factor differs.  Built once per
    level and label."""
    def build():
        labels = [a for a in range(params.r - 1) if admissible(params, a, a, c)]
        if c == 0:
            return {(b, a): x for b, row in zip(labels, s_matrix(params)) for a, x in zip(labels, row)}
        h = c // 2
        phase = params.a_pow(h * params.r + h * (h + 1))
        row_factor = {b: phase * params.d_k(b) * theta_inverse(params, b, b, c) for b in labels}
        out = {}
        for i, a in enumerate(labels):
            for b in labels[i:]:
                total = params.zero()
                for k in range(b - a, min(a + b, 2 * params.r - 4 - a - b) + 1, 2):
                    total = total + (params.d_k(k) * params.a_pow(k * (k + 2))
                                     * tet(params, a, b, a, b, k, c)
                                     * theta_inverse(params, a, b, k))
                total = params.a_pow(-a * (a + 2) - b * (b + 2)) * total
                out[b, a], out[a, b] = row_factor[b] * total, row_factor[a] * total
        return out
    return params.cached(("punctured_s", c), build)


def dump_tables(params: QuantumParams):
    """All recoupling data for one (r, s), JSON-ready; used by the CLI."""
    r = params.r
    labels = list(range(r - 1))
    thetas = {}
    for a in labels:
        for b in labels:
            for c in labels:
                if admissible(params, a, b, c):
                    thetas[f"{a},{b},{c}"] = theta(params, a, b, c).to_json()
    sixjs = {}
    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    es, fs, rows = f_matrix(params, a, b, c, d)
                    for e, row in zip(es, rows):
                        for f, v in zip(fs, row):
                            if not v.is_zero():
                                sixjs[f"{a},{b},{c},{d};{e},{f}"] = v.to_json()
    return {
        "r": r,
        "s": params.s,
        "d": [loop_value(params, k).to_json() for k in labels],
        "twist": [twist_coefficient(params, k).to_json() for k in labels],
        "encircle": [encircle_eigenvalue(params, k).to_json() for k in labels],
        "hopf": [[hopf_pairing(params, j, k).to_json() for k in labels] for j in labels],
        "theta": thetas,
        "six_j": sixjs,
    }
