"""Exact arithmetic in Q(A), A a primitive 4r-th root of unity, extended by
the formal normalization constant c with c^2 = 1/D, D = sum of squared loop
values.

An element is c^odd * part: a parity bit and one polynomial in A with
rational coefficients, reduced modulo the 4r-th cyclotomic polynomial Phi.
The symbol c enters only through the omega weights c d_k, so every value
computed is a power of c times a c-free element; c^2 is rewritten to the
explicit field element 1/D, and a sum of nonzero elements of different
parity raises.

A part is a pair (nums, den): a tuple of phi integer numerators, constant
first, over one positive integer denominator.  Parts are canonical -- the gcd
of den and all nums is 1, and the zero part is None -- so equal elements have
equal tuples and == and hash are plain tuple operations.  Phi is monic, so
reduction modulo Phi and the powers of A stay integral.  An inverse solves
nums * w = 1 mod Phi by fraction-free (Bareiss) elimination.  No other number
type enters: Phi is built by exact integer division, the JSON coefficients
are written and read as reduced integer ratios, and the float embedding
divides each numerator by den.

Products run on one map (Kronecker substitution): x -> 2^b is a ring
homomorphism Z[x]/Phi -> Z/N, N = Phi(2^b), so a computation can run on
residues alone (``PackedRing``): plain integer sums and products modulo N,
one decode at the end.  That is exact when a bound B on every reduced
coefficient of every intermediate value satisfies B < 2^(b-2).  For images
of Laurent polynomials P in x, B = mu |P|_1 holds,
mu = max_e |A^e mod Phi|_inf, because x^(4r) = 1 modulo Phi; this residue
rule picks the width of every packed computation (``QuantumParams.ring``),
and the level keeps one ring per width.  A product of two parts packs each
numerator vector with one struct call, does one big-integer multiply and
unpacks the symmetric residue, in the ring of mass |u|_1 |v|_1; the
products of linear maps in column form (``linalg.product_columns``:
matrices and braid resolution alike) and the skein sweep run on residues
in segments that each decode once (``PackedRing.segment``).

The exact arithmetic depends on the level r alone: it is formal in A, with
Phi = Phi_4r the minimal polynomial of every primitive 4r-th root.  So the
level, QuantumParams(r, 1), is the one arithmetic context: every Scalar is
bound to it, whichever root built it, and the root selector s is an input
of the numeric embedding alone.  All equality decisions are exact.  Floating
point appears only in ``Scalar.embed(root)`` (the embedding
A -> e^{2 pi i s/4r}, c -> positive real root of 1/D), which is never used
on an equality-bearing path.
"""
from __future__ import annotations

import math
import struct
from math import gcd


def _cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (constant first) of the n-th cyclotomic
    polynomial, built from Phi_1 = x - 1 one prime factor p of n at a time:
    Phi_{mp}(x) = Phi_m(x^p) when p divides m, else the exact quotient
    Phi_m(x^p) / Phi_m(x), which synthetic division by the monic Phi_m
    keeps integral."""
    poly, m, p = (-1, 1), 1, 2
    while m < n:
        if (n // m) % p:
            p += 1
            continue
        spread = [0] * ((len(poly) - 1) * p + 1)
        spread[::p] = poly
        if m % p:
            # each step fixes the quotient coefficient at deg + top and
            # clears it from the lower ones; the remainder below top is zero
            top = len(poly) - 1
            for deg in range(len(spread) - 1 - top, -1, -1):
                q = spread[deg + top]
                for i in range(top):
                    spread[deg + i] -= q * poly[i]
            spread = spread[top:]
        poly = tuple(spread)
        m *= p
    return poly


class QuantumParams:
    """Root of unity A = e^{2 pi i s / 4r} with gcd(s, 4r) = 1, r >= 3.

    Interned: QuantumParams(r, s) is the one object for that pair, built on
    first use and kept for the process, so identity is equality.  ``level``
    is QuantumParams(r, 1), the root itself at s = 1.  Every root of a level
    shares its cyclotomic tables and its memo (``cached``), and every Scalar
    a root builds is bound to the level; s matters only to ``Scalar.embed``
    and to the float of c (``_c_float``)."""

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
        if s == 1:
            self.level = self
            cyclo = _cyclotomic_coeffs(self.order)
            self.phi = len(cyclo) - 1
            self._cyclo = cyclo
            widths = {nb: PackedRing(self, nb) for nb in (1, 2, 4, 8)}
            self._rings = tuple(widths[next(nb for nb in widths if bits <= 8 * nb - 2)]
                                for bits in range(63))
            self._apow = self._a_power_table()
            self._mu = max(max(map(abs, nums)) for nums, _ in self._apow)
            self._one = _const(self, 1)
            self._memo = {}
        else:
            self.level = level = cls(r, 1)
            (self.phi, self._cyclo, self._rings, self._apow, self._mu, self._one, self._memo) = (
                level.phi, level._cyclo, level._rings, level._apow, level._mu, level._one,
                level._memo)
        self._c = None
        cls._interned[(r, s)] = self
        return self

    def cached(self, key, build):
        """The value memoized under key in the level memo; build() runs once
        per key, at whichever root of the level reads it first."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _times_x(self, u):
        """x * u mod Phi for an integer coefficient vector u; Phi is monic, so
        x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})."""
        top = u[-1]
        out = [0] + list(u[:-1])
        if top:
            for i, c in enumerate(self._cyclo[:self.phi]):
                out[i] -= top * c
        return out

    def _a_power_table(self):
        """Parts for A^e, e = 0 .. 4r-1."""
        table = []
        cur = [1] + [0] * (self.phi - 1)
        for _ in range(self.order):
            table.append((tuple(cur), 1))
            cur = self._times_x(cur)
        return table

    def ring(self, mass: int) -> "PackedRing":
        """The ring of the narrowest digits that hold values of l1 mass at
        most mass (``PackedRing``): b = 8 nb with mu * mass < 2^(b-2), nb the
        smallest of 1, 2, 4, 8, else of the multiples of 8.  The level holds
        one ring per width: the four narrow ones from its construction, a
        wider one in its memo from first use."""
        bits = (self._mu * mass).bit_length()
        if bits < 63:
            return self._rings[bits]
        nb = (bits + 65) // 64 * 8
        return self.cached(("ring", nb), lambda: PackedRing(self.level, nb))

    def _poly_mul(self, u, v):
        """Product of two nonzero parts by Kronecker substitution, reduced in
        the packed integer (``PackedRing``).  The product P = u v of the
        numerator vectors has degree at most 2 phi - 2 < 4r and
        |P|_1 <= |u|_1 |v|_1, so the residue rule holds in the ring of that
        mass, and the symmetric residue of the product of the packed
        vectors decodes to the reduced coefficients."""
        (un, ud), (vn, vd) = u, v
        ring = self.ring(sum(map(abs, un)) * sum(map(abs, vn)))
        return ring.part(ring.pack(un) * ring.pack(vn), ud * vd)

    def _poly_inv(self, u):
        """Inverse of the nonzero part u = N / den, as den * w with
        N w = 1 mod Phi.  Fraction-free (Bareiss) elimination on the integer
        matrix of multiplication by N, whose column j is x^j N mod Phi,
        followed by back substitution gives det * w in integers."""
        nums, den = u
        phi = self.phi
        cols = [list(nums)]
        for _ in range(phi - 1):
            cols.append(self._times_x(cols[-1]))
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(phi)]
        prev = 1
        for k in range(phi):
            pivot = next((i for i in range(k, phi) if rows[i][k]), None)
            if pivot is None:
                raise ZeroDivisionError("element is not invertible modulo the "
                                        "cyclotomic polynomial")
            rows[k], rows[pivot] = rows[pivot], rows[k]
            pk = rows[k]
            akk = pk[k]
            for i in range(k + 1, phi):
                ri = rows[i]
                aik = ri[k]
                ri[k + 1:] = [(akk * a - aik * p) // prev for a, p in zip(ri[k + 1:], pk[k + 1:])]
            prev = akk
        # every entry is a minor of the augmented matrix, and det * w is integral
        w = [0] * phi
        for i in range(phi - 1, -1, -1):
            ri = rows[i]
            acc = prev * ri[phi] - sum(ri[j] * w[j] for j in range(i + 1, phi))
            w[i] = acc // ri[i]
        return _part([den * t for t in w], prev)

    # ----- element constructors -----

    def zero(self) -> "Scalar":
        return Scalar(self.level, None)

    def one(self) -> "Scalar":
        return Scalar(self.level, self._one)

    def a_pow(self, e: int) -> "Scalar":
        """A^e, exponent taken modulo 4r."""
        return Scalar(self.level, self._apow[e % self.order])

    def c_symbol(self) -> "Scalar":
        return Scalar(self.level, self._one, 1)

    def loop_d(self) -> "Scalar":
        """d = -A^2 - A^{-2}."""
        return -(self.a_pow(2) + self.a_pow(-2))

    def quantum_int(self, n: int) -> "Scalar":
        """[n] = (A^{2n} - A^{-2n}) / (A^2 - A^{-2}) = sum_i A^{2(n-1-2i)},
        built once per level."""
        if n < 0:
            return -self.quantum_int(-n)
        return self.cached(("[n]", n), lambda: sum(
            (self.a_pow(2 * (n - 1 - 2 * i)) for i in range(n)), self.zero()))

    def quantum_factorial(self, n: int) -> "Scalar":
        """[n]! = [n-1]! [n], built once per level."""
        return self.cached(("[n]!", n), lambda: self.quantum_factorial(n - 1) * self.quantum_int(n)
                           if n > 1 else self.one())

    def inverse_quantum_factorial(self, n: int) -> "Scalar":
        """1/[n]!, one inverse per level; [n]! = 0 for n >= r, whose inverse
        raises ZeroDivisionError."""
        return self.cached(("1/[n]!", n), lambda: self.quantum_factorial(n).inverse())

    def d_k(self, k: int) -> "Scalar":
        """Loop value of a k-labeled unknot: (-1)^k [k+1]."""
        v = self.quantum_int(k + 1)
        return -v if k % 2 else v

    def inverse_d_k(self, k: int) -> "Scalar":
        """1/d_k = (-1)^k [k]! / [k+1]!, a product of the factorial tables."""
        v = self.quantum_factorial(k) * self.inverse_quantum_factorial(k + 1)
        return -v if k % 2 else v

    def total_d_squared(self) -> "Scalar":
        """D = sum_{k=0}^{r-2} d_k^2, built once per level."""
        return self.cached(("D",), lambda: sum(
            (dk * dk for dk in map(self.d_k, range(self.r - 1))), self.zero()))

    def inverse_total_d_squared(self) -> "Scalar":
        """1/D = c^2, built once per level."""
        return self.cached(("1/D",), lambda: self.total_d_squared().inverse())

    def _c_float(self) -> float:
        """c as a float, the positive real root of 1/D at this root; it
        depends on s, so it is kept on the root, not in the level memo."""
        if self._c is None:
            D = self.total_d_squared().embed(self)
            if abs(D.imag) > 1e-9 or D.real <= 0:
                raise ArithmeticError(f"D is not a positive real at r={self.r}, s={self.s}: {D}")
            self._c = 1.0 / math.sqrt(D.real)
        return self._c

    def __repr__(self):
        return f"QuantumParams(r={self.r}, s={self.s})"


class _WideDigits:
    """The Struct interface for phi signed digits of nb > 8 bytes, which
    struct has no format for: digits are converted one at a time."""

    def __init__(self, nb, phi):
        self.nb, self.size = nb, nb * phi

    def pack(self, *digits):
        return b"".join(c.to_bytes(self.nb, "little", signed=True) for c in digits)

    def unpack(self, data):
        nb = self.nb
        return [int.from_bytes(data[i:i + nb], "little", signed=True) for i in range(0, self.size, nb)]


class PackedRing:
    """Z[x]/Phi inside Z/N, N = Phi(2^b), for phi signed digits of b = 8 nb
    bits: x -> 2^b is a ring homomorphism Z[x]/Phi -> Z/N, so sums and
    products of packed values are plain integer + and * reduced modulo N.

    A value whose reduced coefficients are all below 2^(b-2) decodes
    exactly from its residue, and is zero exactly when its residue is.  For
    images of Laurent polynomials P in x, x^(4r) = 1 modulo Phi sends each
    term x^e to A^e mod Phi, so the reduced coefficients are at most
    mu * |P|_1 with mu = max_e |A^e mod Phi|_inf; ``QuantumParams.ring``
    picks the width from that bound, and holds the one ring of each width
    of its level."""

    __slots__ = ("params", "n", "_bias", "_half", "_packer")

    def __init__(self, level: QuantumParams, nb: int):
        """The ring of nb bytes a digit.  Raises AssertionError unless
        N > bias, the sign bit of every digit: bias is twice the largest
        |c(2^b)| with every |c_i| <= 2^(b-2), so N then exceeds twice the
        packed value of every vector the ring decodes."""
        b = 8 * nb
        self.params = level
        self._bias = sum(1 << (b * i + b - 1) for i in range(level.phi))
        self.n = sum(c << (b * i) for i, c in enumerate(level._cyclo))
        if self.n <= self._bias:
            raise AssertionError(f"Phi_{level.order}(2^{b}) is too small for the packed product")
        self._half = self.n >> 1
        code = {1: "b", 2: "h", 4: "i", 8: "q"}.get(nb)
        self._packer = struct.Struct(f"<{level.phi}{code}") if code else _WideDigits(nb, level.phi)

    @classmethod
    def segment(cls, params: QuantumParams, mass: int, growths):
        """(k, ring) for the next segment of a chain of steps: the values
        start at l1 mass at most `mass`, and the steps multiply it by at most
        growths[0], growths[1], ...  k is the most steps whose bound
        mu * mass * prod growths[:k] stays below 2^62, the widest digit one
        Struct call packs (8 bytes), and the ring holds that mass; a first
        step beyond it is a segment of its own, packed wider, and no steps
        give k = 0 and a ring for the start values.  At the end of a
        segment the caller decodes every value and starts the next one from
        their actual mass, so the width does not grow with the chain."""
        k = 0
        for g in growths:
            if k and params._mu * mass * g >= 1 << 62:
                break
            mass *= g
            k += 1
        return k, params.ring(mass)

    def pack(self, nums) -> int:
        """The residue of the element with numerator vector nums: the
        integer sum_i nums[i] 2^(b i) of signed b-bit digits.  Digits go
        through bytes: adding bias, the sign bit of every digit, turns
        signed digits into offset ones with no carry, and XOR with bias maps
        these to and from two's complement.  Up to 8 bytes a digit, one
        Struct call packs or unpacks a whole vector; wider digits, a
        multiple of 8 bytes, are converted one at a time (``_WideDigits``)."""
        bias = self._bias
        return (int.from_bytes(self._packer.pack(*nums), "little") ^ bias) - bias

    def part(self, z: int, den: int):
        """The part c / den whose packed value is congruent to z modulo N:
        the symmetric residue of z in (-N/2, N/2], unpacked into its phi
        signed digits."""
        n, bias, packer = self.n, self._bias, self._packer
        z %= n
        if z > self._half:
            z -= n
        return _part(packer.unpack(((z + bias) ^ bias).to_bytes(packer.size, "little")), den)

    def decode(self, z: int, den: int) -> "Scalar":
        """The c-free element c / den with c the element packed as z mod N."""
        return Scalar(self.params, self.part(z, den))


def common_denominator(values):
    """(L, numerator vectors) of c-free elements over L, the lcm of their
    denominators.  A c-odd element raises AssertionError: the packed
    residues carry c-free values alone."""
    values = list(values)
    if any(v.odd for v in values):
        raise AssertionError("c-odd element has no packed residue")
    parts = [v.part for v in values]
    den = math.lcm(*(d for _, d in parts))
    return den, [tuple(n * (den // d) for n in nums) for nums, d in parts]


def make_params(r: int, s: int = 1) -> QuantumParams:
    return QuantumParams(r, s)


def _const(params: QuantumParams, num: int, den: int = 1):
    """The part of the rational num / den."""
    return _part((num,) + (0,) * (params.phi - 1), den)


def _part(nums, den):
    """The canonical part nums / den: den > 0 and gcd(den, *nums) == 1, or
    None when every numerator is zero."""
    if not any(nums):
        return None
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return tuple(n // g for n in nums), den // g
    return tuple(nums), den


class Scalar:
    """An element c^odd * part of the extended cyclotomic ring.

    Immutable.  ``part`` is canonical: a pair of phi(4r) integer numerators
    and one positive denominator with no common factor, or None for zero,
    whose parity ``odd`` is 0.  ``params`` is the level, QuantumParams(r, 1),
    at every root.  Arithmetic demands one level, and a sum demands one
    parity among its nonzero summands.
    """

    __slots__ = ("params", "part", "odd")

    def __init__(self, params: QuantumParams, part, odd=0):
        self.params = params
        self.part = part
        self.odd = odd

    # ----- ring structure -----

    def _check(self, other: "Scalar"):
        if self.params is not other.params:
            raise ValueError("Scalars from different levels")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        if other.part is None:
            return self
        if self.part is None:
            return other
        if self.odd != other.odd:
            raise ValueError("sum of nonzero Scalars of different c-parity")
        part = _tadd(self.part, other.part)
        return Scalar(self.params, part, self.odd if part else 0)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        if self.part is None:
            return self
        nums, den = self.part
        return Scalar(self.params, (tuple(-n for n in nums), den), self.odd)

    def __mul__(self, other: "Scalar") -> "Scalar":
        """The product; a c-even one as either operand returns the other
        operand itself, with no product (a Scalar is immutable)."""
        self._check(other)
        p = self.params
        if self.part is None or other.part is None:
            return Scalar(p, None)
        if not self.odd and self.part == p._one:
            return other
        if not other.odd and other.part == p._one:
            return self
        part = p._poly_mul(self.part, other.part)
        if self.odd and other.odd:
            part = p._poly_mul(part, p.inverse_total_d_squared().part)  # c^2 = 1/D
        return Scalar(p, part, self.odd ^ other.odd)

    def inverse(self) -> "Scalar":
        p = self.params
        if self.part is None:
            raise ZeroDivisionError("division by zero Scalar")
        part = p._poly_inv(self.part)
        if self.odd:
            part = p._poly_mul(part, p.total_d_squared().part)  # (c u)^-1 = c D / u
        return Scalar(p, part, self.odd)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.params.one()
        # from the lowest set bit, no squaring past the top bit:
        # floor(log2 n) + popcount(n) - 1 products
        b = self
        while not n & 1:
            b = b * b
            n >>= 1
        acc = b
        while n := n >> 1:
            b = b * b
            if n & 1:
                acc = acc * b
        return acc

    # ----- predicates and conversions -----

    def is_zero(self) -> bool:
        return self.part is None

    def is_one(self) -> bool:
        return not self.odd and self.part == self.params._one

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.part == other.part and self.odd == other.odd

    def __hash__(self):
        return hash((self.part, self.odd))

    def embed(self, root: QuantumParams) -> complex:
        """Numeric value at root, a root of this value's level:
        A = e^{2 pi i s/4r}, c = positive real root of 1/D."""
        if root.level is not self.params:
            raise ValueError(f"{root} is not a root of level r={self.params.r}")
        if self.part is None:
            return 0j
        angle = 2 * math.pi * root.s / root.order
        val = _horner(self.part, complex(math.cos(angle), math.sin(angle)))
        return val * root._c_float() if self.odd else val

    def __repr__(self):
        if self.is_zero():
            return "Scalar(0)"
        v = self.embed(self.params)
        return f"Scalar(~{v.real:+.6f}{v.imag:+.6f}i)"

    def to_json(self):
        if self.part is None:
            return {"cpow": 0, "coeffs": ["0"] * self.params.phi}
        nums, den = self.part
        return {"cpow": self.odd, "coeffs": [_ratio_text(n, den) for n in nums]}


def _ratio_text(n: int, den: int) -> str:
    """The rational n / den (den > 0) in lowest terms, as p or p/q."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _tadd(u, v):
    """Sum of two nonzero parts; the denominators are multiplied only when
    they differ."""
    (un, ud), (vn, vd) = u, v
    if ud == vd:
        return _part([a + b for a, b in zip(un, vn)], ud)
    return _part([a * vd + b * ud for a, b in zip(un, vn)], ud * vd)


def _horner(part, x):
    """The part at the complex x; n / den is the correctly rounded float."""
    nums, den = part
    acc = 0j
    for n in reversed(nums):
        acc = acc * x + complex(n / den)
    return acc
