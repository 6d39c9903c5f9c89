"""Exact arithmetic in Q(A), A a primitive 4r-th root of unity, extended by
the formal normalization constant c with c^2 = 1/D, D = sum of squared loop
values.

Elements are pairs of polynomials in A with rational coefficients, reduced
modulo the 4r-th cyclotomic polynomial: x = base + c * cpart.  The symbol c
only ever enters computations to integer powers, so tracking a single formal
c-part suffices; c^2 is rewritten to the explicit field element 1/D.

All equality decisions are exact.  Floating point appears only in
``Scalar.embed`` (the numeric embedding A -> e^{2 pi i s/4r}, c -> positive
real root of 1/D), which is never used on an equality-bearing path.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import gcd


def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (constant first) of the n-th cyclotomic
    polynomial, built from Phi_1 = x - 1 one prime factor p of n at a time:
    Phi_{mp}(x) = Phi_m(x^p) when p divides m, else the exact quotient
    Phi_m(x^p) / Phi_m(x)."""
    poly, m, p = (Fraction(-1), Fraction(1)), 1, 2
    while m < n:
        if (n // m) % p:
            p += 1
            continue
        spread = [Fraction(0)] * ((len(poly) - 1) * p + 1)
        spread[::p] = poly
        poly = tuple(spread) if m % p == 0 else _poly_divmod(spread, poly)[0]
        m *= p
    return tuple(int(v) for v in poly)


class QuantumParams:
    """Root-of-unity context: A = e^{2 pi i s / 4r} with gcd(s, 4r) = 1, r >= 3.

    Interned: QuantumParams(r, s) is the one context for that pair, built on
    first use and kept for the process, so identity is equality.  It owns
    every memo that depends on (r, s) alone, through ``cached``."""

    _interned: dict = {}

    def __new__(cls, r: int, s: int = 1):
        if r < 3:
            raise ValueError(f"level parameter r must be >= 3, got {r}")
        if not (1 <= s < 4 * r):
            raise ValueError(f"root selector s must satisfy 1 <= s < 4r, got {s}")
        if gcd(s, 4 * r) != 1:
            raise ValueError(f"s = {s} is not coprime to 4r = {4 * r}; A would not be primitive")
        self = cls._interned.get((r, s))
        if self is not None:
            return self
        self = super().__new__(cls)
        self.r = r
        self.s = s
        self.order = 4 * r
        cyclo = _cyclotomic_coeffs(self.order)
        self.phi = len(cyclo) - 1
        # x^k mod Phi for k = phi .. 2*phi - 2, used to reduce products.
        self._cyclo = cyclo
        self._red = self._reduction_table()
        self._apow = self._a_power_table()
        self._memo = {}
        cls._interned[(r, s)] = self
        return self

    def cached(self, key, build):
        """The value memoized under key in this context, from build() on
        first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _reduction_table(self):
        phi = self.phi
        rows = []
        # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1}) since Phi is monic
        cur = [Fraction(-c) for c in self._cyclo[:phi]]
        rows.append(tuple(cur))
        for _ in range(phi - 2):
            nxt = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(phi):
                    nxt[i] += top * rows[0][i]
            rows.append(tuple(nxt))
            cur = nxt
        return rows

    def _a_power_table(self):
        """Coefficient vectors for A^e, e = 0 .. 4r-1."""
        phi = self.phi
        table = []
        cur = [Fraction(0)] * phi
        cur[0] = Fraction(1)
        for _ in range(self.order):
            table.append(tuple(cur))
            # multiply by A
            shifted = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(phi):
                    shifted[i] += top * self._red[0][i]
            cur = shifted
        return table

    def _poly_mul(self, u, v):
        phi = self.phi
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        prod[i + j] += ui * vj
        out = prod[:phi]
        for k in range(phi, 2 * phi - 1):
            ck = prod[k]
            if ck:
                row = self._red[k - phi]
                for i in range(phi):
                    out[i] += ck * row[i]
        return tuple(out)

    def _poly_inv(self, u):
        """Inverse of u in Q[x]/Phi via the extended Euclidean algorithm."""
        if not any(u):
            raise ZeroDivisionError("inverting zero in the cyclotomic field")
        mod = tuple(Fraction(ci) for ci in self._cyclo)
        r0, r1 = mod, tuple(u) + (Fraction(0),)
        t0, t1 = (Fraction(0),), (Fraction(1),)
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub(t0, _poly_mul_raw(q, t1))
        lead = _poly_trim(r0)
        if len(lead) != 1:
            raise ZeroDivisionError("element is not invertible modulo the cyclotomic polynomial")
        inv_lead = 1 / lead[0]
        full = tuple(ci * inv_lead for ci in t0)
        if len(_poly_trim(full)) > self.phi:
            _, full = _poly_divmod(full, mod)
        return tuple(full[i] if i < len(full) else Fraction(0) for i in range(self.phi))

    # ----- element constructors -----

    def zero(self) -> "Scalar":
        return Scalar(self, None, None)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        return self.from_rational(Fraction(n))

    def from_rational(self, q: Fraction) -> "Scalar":
        return Scalar(self, _const(self, Fraction(q)), None)

    def a_pow(self, e: int) -> "Scalar":
        """A^e, exponent taken modulo 4r."""
        return Scalar(self, self._apow[e % self.order], None)

    def c_symbol(self) -> "Scalar":
        return Scalar(self, None, _const(self, Fraction(1)))

    def loop_d(self) -> "Scalar":
        """d = -A^2 - A^{-2}."""
        return -(self.a_pow(2) + self.a_pow(-2))

    def quantum_int(self, n: int) -> "Scalar":
        """[n] = (A^{2n} - A^{-2n}) / (A^2 - A^{-2}) = sum_i A^{2(n-1-2i)}."""
        if n < 0:
            return -self.quantum_int(-n)
        acc = self.zero()
        for i in range(n):
            acc = acc + self.a_pow(2 * (n - 1 - 2 * i))
        return acc

    def quantum_factorial(self, n: int) -> "Scalar":
        acc = self.one()
        for i in range(2, n + 1):
            acc = acc * self.quantum_int(i)
        return acc

    def d_k(self, k: int) -> "Scalar":
        """Loop value of a k-labeled unknot: (-1)^k [k+1]."""
        v = self.quantum_int(k + 1)
        return -v if k % 2 else v

    def total_d_squared(self) -> "Scalar":
        """D = sum_{k=0}^{r-2} d_k^2."""
        acc = self.zero()
        for k in range(self.r - 1):
            dk = self.d_k(k)
            acc = acc + dk * dk
        return acc

    def _inv_D(self):
        """1/D as a coefficient tuple (memoized by callers)."""
        return self._poly_inv(self.total_d_squared().base)

    def _c_float(self) -> float:
        """c as a float, the positive real root of 1/D (memoized by callers)."""
        D = self.total_d_squared().embed()
        if abs(D.imag) > 1e-9 or D.real <= 0:
            raise ArithmeticError(f"D is not a positive real at r={self.r}, s={self.s}: {D}")
        return 1.0 / math.sqrt(D.real)

    def __repr__(self):
        return f"QuantumParams(r={self.r}, s={self.s})"

    def to_json(self):
        return {"r": self.r, "s": self.s}

    @staticmethod
    def from_json(obj) -> "QuantumParams":
        return QuantumParams(int(obj["r"]), int(obj.get("s", 1)))


def make_params(r: int, s: int = 1) -> QuantumParams:
    return QuantumParams(r, s)


def _const(params: QuantumParams, q: Fraction):
    v = [Fraction(0)] * params.phi
    v[0] = q
    return tuple(v)


# ----- raw polynomial helpers over Fraction sequences (no modular reduction) -----

def _poly_trim(u):
    u = list(u)
    while u and not u[-1]:
        u.pop()
    return tuple(u)


def _poly_sub(u, v):
    n = max(len(u), len(v))
    return tuple(
        (u[i] if i < len(u) else Fraction(0)) - (v[i] if i < len(v) else Fraction(0))
        for i in range(n)
    )


def _poly_mul_raw(u, v):
    if not u or not v:
        return ()
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[i + j] += ui * vj
    return tuple(out)


def _poly_divmod(u, v):
    u = list(_poly_trim(u))
    v = _poly_trim(v)
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
    return tuple(q), _poly_trim(u[:top])


class Scalar:
    """An element base + c * cpart of the extended cyclotomic ring.

    Immutable.  ``base``/``cpart`` are coefficient tuples of length phi(4r)
    (or None for zero).  Arithmetic demands a shared QuantumParams context.
    """

    __slots__ = ("params", "base", "cpart")

    def __init__(self, params: QuantumParams, base, cpart):
        self.params = params
        self.base = base if (base is not None and any(base)) else None
        self.cpart = cpart if (cpart is not None and any(cpart)) else None

    # ----- ring structure -----

    def _check(self, other: "Scalar"):
        if self.params is not other.params:
            raise ValueError("Scalars from different QuantumParams contexts")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.params, _tadd(self.params, self.base, other.base),
                      _tadd(self.params, self.cpart, other.cpart))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        neg = lambda t: None if t is None else tuple(-x for x in t)
        return Scalar(self.params, neg(self.base), neg(self.cpart))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        p = self.params
        a0, a1, b0, b1 = self.base, self.cpart, other.base, other.cpart
        base = None
        if a0 is not None and b0 is not None:
            base = p._poly_mul(a0, b0)
        if a1 is not None and b1 is not None:
            cc = p._poly_mul(p._poly_mul(a1, b1), p.cached("inv_D", p._inv_D))
            base = cc if base is None else _tadd_raw(base, cc)
        cpart = None
        if a0 is not None and b1 is not None:
            cpart = p._poly_mul(a0, b1)
        if a1 is not None and b0 is not None:
            t = p._poly_mul(a1, b0)
            cpart = t if cpart is None else _tadd_raw(cpart, t)
        return Scalar(p, base, cpart)

    def inverse(self) -> "Scalar":
        p = self.params
        if self.is_zero():
            raise ZeroDivisionError("division by zero Scalar")
        if self.cpart is None:
            return Scalar(p, p._poly_inv(self.base), None)
        if self.base is None:
            # (c*u)^{-1} = c * D / u  since c^2 = 1/D
            inv_u = p._poly_inv(self.cpart)
            D = p.total_d_squared()
            return Scalar(p, None, p._poly_mul(inv_u, D.base))
        # general: multiply by the conjugate base - c*cpart
        conj = Scalar(p, self.base, tuple(-x for x in self.cpart))
        norm = self * conj
        if norm.cpart is not None or norm.base is None:
            raise ZeroDivisionError("element is not invertible in the c-extended ring")
        return conj * Scalar(p, p._poly_inv(norm.base), None)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.params.one()
        b = self
        while n:
            if n & 1:
                acc = acc * b
            b = b * b
            n >>= 1
        return acc

    # ----- predicates and conversions -----

    def is_zero(self) -> bool:
        return self.base is None and self.cpart is None

    def is_one(self) -> bool:
        return self == self.params.one()

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.base == other.base and self.cpart == other.cpart

    def __hash__(self):
        return hash((self.base, self.cpart))

    def cpow(self) -> int:
        """Parity of the formal symbol c, for pure elements."""
        if self.cpart is None:
            return 0
        if self.base is None:
            return 1
        raise ValueError("Scalar mixes c-parities; cpow is undefined")

    def embed(self) -> complex:
        """Numeric value at A = e^{2 pi i s/4r}, c = positive real root of 1/D."""
        p = self.params
        a = complex(math.cos(2 * math.pi * p.s / p.order), math.sin(2 * math.pi * p.s / p.order))
        val = 0j
        if self.base is not None:
            val += _horner(self.base, a)
        if self.cpart is not None:
            val += _horner(self.cpart, a) * p.cached("c_float", p._c_float)
        return val

    def __repr__(self):
        if self.is_zero():
            return "Scalar(0)"
        v = self.embed()
        return f"Scalar(~{v.real:+.6f}{v.imag:+.6f}i)"

    def to_json(self):
        cp = self.cpow() if not self.is_zero() else 0
        coeffs = self.cpart if cp else self.base
        if coeffs is None:
            coeffs = _const(self.params, Fraction(0))
        return {"cpow": cp, "coeffs": [str(q) for q in coeffs]}

    @staticmethod
    def from_json(params: QuantumParams, obj) -> "Scalar":
        coeffs = tuple(Fraction(t) for t in obj["coeffs"])
        if len(coeffs) != params.phi:
            raise ValueError(f"expected {params.phi} coefficients, got {len(coeffs)}")
        if int(obj["cpow"]) % 2:
            return Scalar(params, None, coeffs)
        return Scalar(params, coeffs, None)


def _tadd(params, u, v):
    if u is None:
        return v
    if v is None:
        return u
    return _tadd_raw(u, v)


def _tadd_raw(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _horner(coeffs, x):
    acc = 0j
    for ci in reversed(coeffs):
        acc = acc * x + complex(Fraction(ci))
    return acc
