"""Exact arithmetic in GF(p^(2h)) with designated subfield GF(q), q = p^h.

Elements travel as discrete logarithms of a fixed primitive element theta:
``None`` encodes zero and an integer e in [0, q^2 - 2] encodes theta^e.
Multiplication, inversion, powers, the q-power Frobenius, norms and subfield
membership are then pure integer arithmetic modulo q^2 - 1: (theta^e)^j is
theta^(e*j), and theta^e lies in GF(q) exactly when (q + 1) | e.  Coefficient
vectors appear in the exp/log tables, which supply the operations a
logarithm makes awkward: addition and the logs of packed vectors.  A
coefficient vector is packed as the integer whose base-p digit i is the
coefficient of x^i.  A few vectors are raised without tables
(``power_vectors``): theta^(j*N/(p-1) + i) with i < 2h is c_0^j x^i, c_0
the modulus' constant coefficient, and the others are powers of the
modulus' companion matrix.  The logs of GF(p) have a table of their own,
p entries long (``prime_logs``).  So does addition in GF(q):
``subfield_zech`` holds log(1 + gamma^k) to the base gamma = theta^(q+1),
q - 1 entries built by doubling from the coefficient rows of the powers of
gamma, so it exists for every field.

The modulus is canonical: coefficients (c_0 .. c_{2h-1}) of candidate monic
polynomials are read as base-p digits of a counter J with c_0 most
significant, and the first candidate in increasing J with c_0 != 0 in which
x has order p^(2h) - 1 is selected.  That order is possible only when the
candidate is irreducible, so this is the first irreducible candidate with x
primitive.  Its c_0 is the least primitive root mod p, known without the
search, so only the candidates with that c_0 are tested.  For p = 2 each
candidate is tested by powering x, left to right, on polynomials packed
into ints (a product is shifts and XORs).  For odd p a block of
consecutive candidates is tested at once: their companion matrices are
stacked and raised to every exponent the test needs by square-and-multiply,
with exact int64 matmuls mod p, and the first that passes is taken; blocks
grow from 8 to 256 candidates, so an early hit costs little and a late one
few numpy calls.  theta is the class of x.

A ``Field`` accepts any q^2 up to 2^40, and building one searches for
nothing: ``Field.modulus`` is searched on first read, by the tables, the
presentation (``to_json``), which needs nothing more, or a companion-matrix
power.  ``Field.tables``, built on first use, is the pair of read-only
int32 numpy tables ``exp`` (theta^e packed, q^2 - 1 entries) and ``log``
(q^2 entries, -1 for zero), so they exist only for fields up to 2^22
elements; past that every operation that needs them raises
``CapacityExceeded``.  The vectorized paths index these arrays, or the
arrays derived from them (``mask_ext`` for p = 2, ``digits`` for odd p),
with whole arrays of exponents.  For p = 2 exp is the head of one buffer
[exp, exp], which ``mask_ext`` views.  ``digits`` holds the base-p digits
point-major: the row of exponent e is 2h uint16 lanes, lane d the
coefficient of x^d, viewed as one uint32 word (h = 1), one uint64 word
(h = 2) or a few words, so that summing rows word by word sums every digit
at once.

The exp tables are built by doubling, theta^L .. theta^(2L-1) being
theta^0 .. theta^(L-1) times theta^L.  For odd p only the base block
theta^0 .. theta^(M-1), M = (q^2 - 1)/(p - 1), is doubled: theta^M is the
norm of theta down to GF(p), the modulus' constant coefficient c_0, which
generates GF(p)*, so every other power is the base block scaled by GF(p)*,
theta^(i + M*j) = c_0^j theta^i digit by digit.  Those digits are gathered
from a table of powers of c_0 straight into the lanes of ``digits``, and
exp is packed from the lanes, with no integer division over the table.
Scalar addition, which only the tests' element-by-element references use,
goes through Zech logarithms built on its first call.
"""

from __future__ import annotations

import functools
import operator
from typing import Optional

import numpy as np

from .errors import (CapacityExceeded, DivisionByZero, NotInSubfield,
                     NotPrime, UsageError)
from .numtheory import (factorize, is_prime, is_prime_power,
                         least_primitive_root)

Elt = Optional[int]
ZERO: Elt = None
ONE: Elt = 0

TABLE_LIMIT = 1 << 22
SIZE_LIMIT = 1 << 40


# --------------------------------------------------------------------------
# the canonical modulus
# --------------------------------------------------------------------------

def _x_pow_char2(f: int, n: int, e: int) -> int:
    """x^e mod f over GF(2), for f of degree n packed into an int (bit i is
    the coefficient of x^i), left to right.  The binary digits of a, read in
    base 4, give a(x)^2: squaring over GF(2) only spreads the bits apart."""
    a = 1
    for bit in bin(e)[2:]:
        a = int(format(a, "b"), 4)
        while a >> n:
            a ^= f << (a.bit_length() - 1 - n)
        if bit == "1":
            a <<= 1
            if a >> n:
                a ^= f
    return a


def _is_primitive(f: tuple[int, ...], exponents: tuple[int, ...]) -> bool:
    """x has order N mod the GF(2) polynomial f, given as coefficients:
    x^N = 1 and x^(N/r) != 1 for the ``exponents`` N, N/r of every prime
    r | N."""
    n = len(f) - 1
    packed = sum(c << i for i, c in enumerate(f))
    powers = (_x_pow_char2(packed, n, e) for e in exponents)
    return next(powers) == 1 and all(x != 1 for x in powers)


def _x_powers(f: np.ndarray, p: int, exponents: tuple[int, ...]) -> np.ndarray:
    """x^e mod each row of f, the low coefficients c_0 .. c_(n-1) of a monic
    degree-n polynomial over GF(p), for each of the ``exponents``: an int64
    array of shape (len(exponents), rows of f, n), coefficient i of x^i.

    S is the stack of companion matrices, the matrices of multiplication by
    x on the basis 1 .. x^(n-1), so x^e is row 0 of S^e.  The powers run
    right to left: S^(2^i) by repeated squaring, shared by every exponent,
    multiplies into the row of each exponent whose bit i is set.  The int64
    products are exact: each sum is at most n(p-1)^2 < 2^41 whenever
    p^n <= 2^40."""
    b, n = f.shape
    S = np.zeros((b, n, n), dtype=np.int64)
    S[:, np.arange(n - 1), np.arange(1, n)] = 1  # x * x^i = x^(i+1)
    S[:, n - 1] = -f % p  # x^n = -sum f_i x^i
    X = np.zeros((len(exponents), b, 1, n), dtype=np.int64)
    X[..., 0] = 1
    bits = max(exponents).bit_length()
    for i in range(bits):
        sel = [j for j, e in enumerate(exponents) if e >> i & 1]
        if sel:
            X[sel] = X[sel] @ S % p
        if i + 1 < bits:
            S = S @ S % p
    return X[:, :, 0]


def _primitive_rows(f: np.ndarray, p: int,
                    exponents: tuple[int, ...]) -> np.ndarray:
    """For each row of f, as in ``_x_powers``, whether x has order N mod
    it: x^N = 1 and x^(N/r) != 1 for the ``exponents`` N, N/r of every
    prime r | N."""
    X = _x_powers(f, p, exponents)
    one = (X[..., 0] == 1) & ~X[..., 1:].any(axis=-1)
    return one[0] & ~one[1:].any(axis=0)


def canonical_modulus(p: int, n: int, n_factors: tuple[int, ...]) -> tuple[int, ...]:
    """First monic degree-n polynomial f with f(0) != 0, in digit order
    (constant coefficient most significant), in which x has order
    N = p^n - 1: x^N = 1 and x^(N/r) != 1 mod f for every prime r | N, the
    primes ``n_factors``.  The units of GF(p)[x]/(f) number N only when f
    is irreducible, so this is the first irreducible f with x primitive
    (Lidl and Niederreiter, Finite Fields, Thms 3.3 and 3.16), and no
    separate irreducibility test is needed.

    The degree n is even, as for every field here, so f(0) = c_0 is the
    norm of x down to GF(p), and it generates GF(p)* when x is primitive.
    Conversely every generator g of GF(p)* is the norm of a primitive
    element: if theta is primitive with norm g', theta^k has norm g'^k, and
    k can be taken prime to p^n - 1 in any class mod p - 1 prime to p - 1,
    so g'^k runs over every generator.  The minimal polynomial of that
    element is a candidate with c_0 = g, and c_0 is the most significant
    digit, so the selected f has c_0 = ``least_primitive_root(p)`` and only
    the candidates with that c_0 are tested.

    For p = 2 the candidates are tested one at a time on polynomials
    packed into ints.  For odd p they are tested in blocks of consecutive
    candidates, 8 at first and twice as many each time up to 256, by
    ``_primitive_rows``, and the first that passes in its block is taken.
    """
    if n % 2:
        raise UsageError(f"the degree must be even, got {n}")
    N = p ** n - 1
    exponents = (N,) + tuple(N // r for r in n_factors)
    if p == 2:
        for rest in range(2 ** (n - 1)):  # c_0 = 1, c_1 most significant
            f = (1, *(rest >> (n - 1 - i) & 1 for i in range(1, n)), 1)
            if _is_primitive(f, exponents):
                return f
        raise ArithmeticError("no primitive modulus found")  # pragma: no cover
    c0, block_count = least_primitive_root(p), p ** (n - 1)
    # c_1 is the most significant digit of the candidate's place among
    # the block_count candidates with that c_0
    place = block_count // p ** np.arange(1, n, dtype=np.int64)
    lo, size = 0, 8
    while lo < block_count:
        rest = np.arange(lo, min(lo + size, block_count), dtype=np.int64)
        f = np.empty((len(rest), n), dtype=np.int64)
        f[:, 0] = c0
        f[:, 1:] = rest[:, None] // place % p
        hit = np.flatnonzero(_primitive_rows(f, p, exponents))
        if hit.size:
            return tuple(f[hit[0]].tolist()) + (1,)
        lo += len(rest)
        size = min(2 * size, 256)
    raise ArithmeticError("no primitive modulus found")  # pragma: no cover


# --------------------------------------------------------------------------
# the exp/log tables
# --------------------------------------------------------------------------

def _odd_exp_table(p: int, n: int, modulus: tuple[int, ...],
                   lanes: np.ndarray) -> np.ndarray:
    """The int32 table exp of the packed theta^e for e in [0, N),
    N = p^n - 1, after writing the base-p digits of theta^e for e in
    [0, 2N) into the (2N, n) uint16 ``lanes``, lane d the coefficient of
    x^d, rows N .. 2N-1 repeating rows 0 .. N-1.

    Only the base block theta^0 .. theta^(M-1), M = N/(p-1), is built as
    coefficient rows, by doubling: P holds theta^0 .. theta^(L-1) and S the
    matrix of multiplication by theta^L, so P @ S holds theta^L ..
    theta^(2L-1); the int32 products are exact, each sum being at most
    n(p-1)^2 < 2^27 whenever p^n <= 2^22.  theta^M = theta^(1+p+..+p^(n-1))
    is the norm of theta down to GF(p), (-1)^n f(0) = c_0 for the even n
    of every field here, and it generates GF(p)*; so the rest of the table
    is the base block scaled by GF(p)*: theta^(i + M*j) = c_0^j theta^i,
    digit by digit.  With lg the logarithm to the base c_0 on GF(p)*, a
    digit c of theta^i becomes c_0^(lg c + j) in block j, one gather from
    the 3(p-1) powers pw = (c_0^0 .. c_0^(2p-3), 0 .. 0) with lg 0 = 2(p-1)
    landing on the zeros.  The gathers write a few blocks j at a time, and
    exp is packed from the lanes by Horner's rule, so no integer division
    runs over the whole table."""
    N = p ** n - 1
    M = N // (p - 1)
    S = np.zeros((n, n), dtype=np.int32)
    S[np.arange(n - 1), np.arange(1, n)] = 1  # x * x^i = x^(i+1)
    S[n - 1] = [(-c) % p for c in modulus[:n]]  # x^n = -sum f_i x^i
    P = np.zeros((M, n), dtype=np.int32)
    P[0, 0] = 1
    L = 1
    while L < M:
        m = min(L, M - L)
        np.remainder(P[:m] @ S, p, out=P[L:L + m])
        S = S @ S % p
        L += m
    pw = np.zeros(3 * (p - 1), dtype=np.uint16)
    lg = np.full(p, 2 * (p - 1), dtype=np.intp)
    c = 1
    for k in range(p - 1):
        pw[k] = pw[k + p - 1] = c
        lg[c] = k
        c = c * modulus[0] % p
    blocks = lanes.reshape(2 * (p - 1), M, n)  # block j: theta^(M*j + i)
    b = min(p - 1, max(1, (1 << 16) // (M * n)))
    idx = lg[P] + np.arange(b)[:, None, None]  # blocks j .. j+b-1
    for j in range(0, p - 1, b):
        k = min(b, p - 1 - j)
        np.take(pw, idx[:k], out=blocks[j:j + k], mode="clip")
        idx += b
    blocks[p - 1:] = blocks[:p - 1]
    exp = lanes[:N, n - 1].astype(np.int32)
    for d in range(n - 2, -1, -1):
        exp *= p
        exp += lanes[:N, d]
    return exp


def _char2_exp_table(n: int, modulus: tuple[int, ...]) -> np.ndarray:
    """The int32 buffer [exp, exp] of the packed theta^e for e in
    [0, 2^n - 1), by doubling: theta^L .. theta^(2L-1) are theta^0 ..
    theta^(L-1) times theta^L, a GF(2)-linear map of the coefficient masks,
    applied a byte of each mask at a time through 256-entry tables of the
    images of x^0 .. x^(n-1)."""
    red = sum(c << i for i, c in enumerate(modulus[:n]))
    top = 1 << n
    N = top - 1
    buf = np.empty(2 * N, dtype=np.int32)
    exp = buf[:N]
    exp[0] = 1
    L = 1
    while L < N:
        m = min(L, N - L)
        img, v = [], int(exp[L - 1])
        for _ in range(n):  # theta^(L+i) = x^i * theta^L, a shift at a time
            v <<= 1
            if v & top:
                v ^= top ^ red
            img.append(v)
        out = np.zeros(m, dtype=np.int32)
        for j in range(0, n, 8):
            tab = np.zeros(1, dtype=np.int32)
            for w in img[j:j + 8]:
                tab = np.concatenate((tab, tab ^ w))
            out ^= tab[(exp[:m] >> j) & (len(tab) - 1)]
        exp[L:L + m] = out
        L += m
    buf[N:] = exp
    return buf


def mulmod(c: int, e: np.ndarray, N: int) -> np.ndarray:
    """c*e mod N for exponents 0 <= e < N <= 2^40, exactly in int64: when
    c*N could pass 2^63, c is split into 20-bit halves so that no product
    reaches 2^61."""
    c %= N
    if c * N < 1 << 63:
        return c * e % N
    hi, lo = divmod(c, 1 << 20)
    return (hi * e % N * (1 << 20) + lo * e) % N


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# --------------------------------------------------------------------------
# the field object
# --------------------------------------------------------------------------

class Field:
    """GF(p^(2h)) in discrete-log form; see the module docstring."""

    def __init__(self, p: int, h: int):
        if h < 1:
            raise UsageError(f"h must be >= 1, got {h}")
        if not is_prime(p):
            raise NotPrime(f"p must be prime, got {p}")
        self.p = p
        self.h = h
        self.q = p ** h
        self.q2 = self.q * self.q
        self.N = self.q2 - 1
        if self.q2 > SIZE_LIMIT:
            raise CapacityExceeded(f"field size {self.q2} exceeds 2^40")

    def __repr__(self) -> str:
        return f"Field(p={self.p}, h={self.h})"

    @functools.cached_property
    def n_factors(self) -> tuple[int, ...]:
        """The primes dividing N = q^2 - 1, ascending."""
        return tuple(factorize(self.N))

    @functools.cached_property
    def modulus(self) -> tuple[int, ...]:
        """The canonical modulus, coefficients of x^0 .. x^(2h), searched
        on first read: by the tables, the presentation (``to_json``) and
        the companion-matrix powers of ``power_vectors``."""
        return canonical_modulus(self.p, 2 * self.h, self.n_factors)

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The read-only buffers behind ``tables`` and its derived arrays:
        the int32 exp buffer ([exp, exp] for p = 2, exp for odd p),
        the int32 log table and, for odd p, the (2N, 2h) uint16 digit lanes
        the exp table was packed from (None for p = 2).  The derived arrays
        read ``tables`` first, so a field whose tables were built always
        has ``tables`` in its cache."""
        if self.q2 > TABLE_LIMIT:
            raise CapacityExceeded(
                f"field size {self.q2} exceeds 2^22 (no exp/log tables)")
        n, lanes = 2 * self.h, None
        if self.p == 2:
            buf = _char2_exp_table(n, self.modulus)
        else:
            lanes = np.empty((2 * self.N, n), dtype=np.uint16)
            buf = _odd_exp_table(self.p, n, self.modulus, lanes)
            _frozen(lanes)
        log = np.full(self.q2, -1, dtype=np.int32)
        log[buf[:self.N]] = np.arange(self.N, dtype=np.int32)
        if np.count_nonzero(log == -1) != 1:  # only the zero vector is missing
            raise ArithmeticError("log table is not a bijection")
        return _frozen(buf), _frozen(log), lanes

    @functools.cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int32 ``(exp, log)``: exp holds the packed theta^e for
        e in [0, N) and log the exponent of each packed vector in [0, q^2),
        -1 for the zero vector.  Built on first use: the presentation
        (``to_json``) needs only the modulus, and the tables hold about q^2
        entries each, so fields past 2^22 elements have none (and int32
        holds every entry)."""
        buf, log, _ = self._arrays
        return buf[:self.N], log

    @functools.cached_property
    def _zech(self) -> memoryview:
        """Zech logarithms Z[k] = log(1 + theta^k), -1 where 1 + theta^k = 0,
        built on the first scalar addition; only the scalar references add
        one element at a time."""
        exp, log = self.tables
        one_plus = exp - exp % self.p + (exp + 1) % self.p
        return memoryview(_frozen(log[one_plus]))

    # --- arithmetic ---------------------------------------------------------

    def add(self, a: Elt, b: Elt) -> Elt:
        """theta^a + theta^b = theta^(b + Z[a - b])."""
        if a is None:
            return b
        if b is None:
            return a
        z = self._zech[(a - b) % self.N]
        return None if z < 0 else (b + z) % self.N

    def neg(self, a: Elt) -> Elt:
        if a is None or self.p == 2:
            return a
        return (a + self.N // 2) % self.N

    def sub(self, a: Elt, b: Elt) -> Elt:
        return self.add(a, self.neg(b))

    def mul(self, a: Elt, b: Elt) -> Elt:
        if a is None or b is None:
            return None
        return (a + b) % self.N

    def inv(self, a: Elt) -> Elt:
        if a is None:
            raise DivisionByZero("inverse of zero")
        return (-a) % self.N

    def frobenius_q(self, a: Elt) -> Elt:
        if a is None:
            return None
        return (a * self.q) % self.N

    def norm(self, a: Elt) -> Elt:
        """Relative norm a^(q+1) into GF(q)."""
        if a is None:
            return None
        return (a * (self.q + 1)) % self.N

    def norm_root(self, v: Elt) -> Elt:
        """Smallest-exponent solution of u^(q+1) = v for nonzero v in GF(q)."""
        if v is None or v % (self.q + 1) != 0:
            raise NotInSubfield(f"{v!r} is not a nonzero subfield element")
        return (v % self.N) // (self.q + 1)

    @functools.cached_property
    def prime_logs(self) -> np.ndarray:
        """Read-only int64 table of p entries: the exponent of each c in
        GF(p)* as a power of theta, -1 for c = 0.  theta^(N/(p-1)) is the
        norm of theta down to GF(p), the modulus' constant coefficient c_0
        (the degree 2h is even), which is ``least_primitive_root(p)`` (see
        ``canonical_modulus``), so no modulus is searched; c_0^j is
        theta^(j*N/(p-1))."""
        p, c0, powers = self.p, least_primitive_root(self.p), [1]
        for _ in range(p - 2):
            powers.append(powers[-1] * c0 % p)
        log = np.full(p, -1, dtype=np.int64)
        log[powers] = np.arange(p - 1) * (self.N // (p - 1))
        return _frozen(log)

    @functools.cached_property
    def subfield_zech(self) -> np.ndarray:
        """Read-only int64 Zech table of GF(q), q - 1 entries:
        Z[k] = log(1 + gamma^k) to the base gamma = theta^(q+1), which
        generates GF(q)*, and -1 where 1 + gamma^k = 0.  No q^2-entry table
        is read: the coefficient rows of gamma^0 .. gamma^(q-2) are built by
        doubling, P @ S holding gamma^L .. gamma^(2L-1) when P holds gamma^0
        .. gamma^(L-1) and S is the matrix of multiplication by gamma^L,
        whose row i is x^i * gamma^L; the int64 products are exact as in
        ``_x_powers``.  Adding 1 steps the constant coefficient, and the
        packed rows, sorted once, give the log of each sum."""
        p, n, L = self.p, 2 * self.h, 1
        S = self.power_vectors(range(self.q + 1, self.q + 1 + n))
        P = np.zeros((self.q - 1, n), dtype=np.int64)
        P[0, 0] = 1
        while L < len(P):
            m = min(L, len(P) - L)
            P[L:L + m] = P[:m] @ S % p
            S = S @ S % p
            L += m
        keys = P @ p ** np.arange(n, dtype=np.int64)
        order = np.argsort(keys)
        one_plus = keys - P[:, 0] + (P[:, 0] + 1) % p
        at = np.searchsorted(keys[order], one_plus).clip(max=len(P) - 1)
        return _frozen(np.where(keys[order[at]] == one_plus, order[at], -1))

    def embed_int(self, c: int) -> Elt:
        """The integer c mod p as a field element (a constant polynomial)."""
        log = int(self.prime_logs[c % self.p])
        return None if log < 0 else log

    def power_vectors(self, exps) -> np.ndarray:
        """int64 coefficient vectors of theta^e, one row of 2h coefficients
        per exponent e >= 0 (any integers, numpy ones too), so no table is
        read.  With R = N/(p-1), theta^R is the modulus' constant
        coefficient c_0 (see ``prime_logs``), so e = j*R + i with i < 2h
        gives c_0^j x^i without the modulus; the other exponents take
        powers of its companion matrix."""
        exps = [operator.index(e) for e in exps]
        n, p, R = 2 * self.h, self.p, self.N // (self.p - 1)
        c0 = least_primitive_root(p)
        out = np.zeros((len(exps), n), dtype=np.int64)
        far = []
        for row, e in enumerate(exps):
            j, i = divmod(e, R)
            if i < n:
                out[row, i] = pow(c0, j, p)
            else:
                far.append(row)
        if far:
            f = np.array([self.modulus[:-1]], dtype=np.int64)
            out[far] = _x_powers(f, p, tuple(exps[r] for r in far))[:, 0]
        return out

    # --- presentation ---------------------------------------------------------

    def coeffs(self, a: Elt) -> tuple[int, ...]:
        """Coefficient vector of a on the basis 1, x, ..., x^(2h-1)."""
        v = 0 if a is None else int(self.tables[0][a % self.N])
        out = []
        for _ in range(2 * self.h):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def to_json(self) -> dict:
        return {"p": self.p, "h": self.h,
                "modulus": list(self.modulus), "theta": "x"}

    # --- bulk tables for the vectorized Gram / enumeration paths -------------

    @functools.cached_property
    def mask_ext(self) -> np.ndarray:
        """p = 2 only: int32 packed GF(2) coefficient masks of theta^e for e
        in [0, 2N), so that a sum of two exponents in [0, N) indexes it
        unreduced; a view of the exp buffer.  Odd p sums ``digits``."""
        if self.p != 2:
            raise UsageError("mask_ext is the p = 2 table; odd p sums digits")
        self.tables
        return self._arrays[0][:2 * self.N]

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """Odd p only: the base-p digits of theta^e for e in [0, 2N),
        point-major, so that a sum of two exponents in [0, N) indexes it
        unreduced: row e holds 2h uint16 lanes, lane d the coefficient of
        x^d, viewed as words.  2h lanes are 2h/4 uint64 words when 4
        divides 2h, else h uint32 words, so ``digits.view(np.uint16)`` is
        the (2N, 2h) lane array and one word holds every lane when h <= 2.
        A field with tables has p < 2^11, so a lane holds the sum of up to
        65535 // (p-1) >= 32 digits without carrying into the next.  These
        are the lanes the exp table was packed from; p = 2 sums
        ``mask_ext`` instead, and has no digits."""
        if self.p == 2:
            raise UsageError("digits are the odd-p table; p = 2 sums mask_ext")
        self.tables
        return self._arrays[2].view(np.uint64 if self.h % 2 == 0
                                    else np.uint32)


@functools.lru_cache(maxsize=None)
def build_field(p: int, h: int) -> Field:
    """Construct (and memoize) GF(p^(2h)) with subfield GF(p^h)."""
    return Field(p, h)


def field_for_q(q: int) -> Field:
    """GF(q^2) for a prime power q."""
    pp = is_prime_power(q)
    if pp is None:
        raise NotPrime(f"q must be a prime power, got {q}")
    return build_field(pp[0], pp[1])
