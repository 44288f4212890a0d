"""Product kernels on integer coefficient sequences, ascending as ``Poly.num``.

Schoolbook products and squares, Kronecker substitution of a whole sum of
products at a binary or a decimal radix, and ``_kernel``, the one predicate
that picks among them from the two lengths and a bound on the coefficient
bits.  ``polyring`` runs ``Poly`` products and ``dot`` through these on its
numerators, and ``pell2.verify`` packs its point test with
``kronecker_pack``; nothing here sees a ``Poly``.  Decimal packing is capped
at 640 digits, about 2100-bit product coefficients; wider ones stay binary.

The kernels are a module of their own because compiling a module from
source holds its whole syntax tree at once: with them inside, polyring.py
raised the peak RSS of importing pellred by about 0.4 MB.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, Rounded
from operator import mul

#: Shorter operand length, in coefficients, below which every product is
#: schoolbook.  ``_kernel`` decides such a product from the lengths alone,
#: without reading a coefficient: the Redei chain and the sweep make
#: thousands of products with a 2- to 5-coefficient operand.
KRONECKER_FLOOR = 10

#: Shorter operand length from which every product goes through Kronecker
#: substitution, whatever its coefficient size: the shortest length at which
#: Kronecker was no slower than schoolbook for any coefficient size measured
#: (8 to 1024 bits; crossover grids in CHANGES.md).
KRONECKER_MIN_LEN = 32

#: Between ``KRONECKER_FLOOR`` and ``KRONECKER_MIN_LEN`` one rule: a sum of
#: products takes Kronecker substitution when its schoolbook work, the sum
#: over its pairs of the two lengths' product, is at least ``_BAND_MIN_WORK``
#: and its bit bound (``_kronecker_bits``) at most ``_BAND_MAX_BITS``; a
#: square when its length is at least ``_BAND_MIN_SQUARE`` and its bit bound
#: at most ``_BAND_MAX_BITS``.  The lengths are tested before any coefficient
#: is scanned.  Fitted on grids of schoolbook over binary Kronecker time and
#: checked on every product and sum the benchmark's four workloads make in
#: this band (seed 1: bit bounds of 17 to 235); CHANGES.md has both.  Wider
#: coefficients stay schoolbook in the band, where the grids measured them
#: no faster in Kronecker.
_BAND_MIN_WORK = 256
_BAND_MIN_SQUARE = 18
_BAND_MAX_BITS = 256

#: Smallest packed size, in bits, from which a Kronecker product is taken in
#: decimal: the shorter operand's length times ``_kronecker_bits`` must reach
#: half of it, and the two lengths' sum times the bits twice it.  For a square
#: both say that the operand packs to at least this size.  From 210 kbit on,
#: decimal was the faster kernel for every balanced shape measured, 64 to 1000
#: coefficients of 100 to 1000 bits (up to 4x at 2 Mbit), and below 200 kbit
#: up to 2.8x slower on some.  Lopsided products with a shorter side from
#: 100 kbit ran up to 1.85x faster in decimal, and those with a shorter side
#: of 6 to 45 kbit up to 4.5x slower (grids in CHANGES.md).
KRONECKER_DECIMAL_MIN_BITS = 200_000

#: Exact decimal arithmetic for the decimal Kronecker product: no operation
#: on integers can round within MAX_PREC digits, and if one did, the trapped
#: Rounded/Inexact signal would raise instead of changing a digit.  Only the
#: context's own methods use it, so the caller's decimal context is never
#: read or changed.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])

#: ``_kernel``'s answer for schoolbook.
_SCHOOLBOOK = (0, 0)


def _kernel(short: int, long: int, xs, ys) -> tuple[int, int]:
    """The kernel for the sum of x*y over the pairs of integer coefficient
    sequences ``xs`` and ``ys``, whose largest shorter and longer operand
    lengths are ``short`` and ``long``: ``(0, 0)`` for schoolbook, else
    ``(bits, j)`` for Kronecker substitution with bit bound ``bits`` at radix
    10^j, or in binary where j is 0.  A sum of several pairs weighs the
    schoolbook work of all of them, as it unpacks only once.

    This is the package's one kernel rule: ``Poly.__mul__``, ``dot`` and
    ``squares_in_decimal`` (so ``pell2.verify``'s route) all ask it.  Below
    ``KRONECKER_FLOOR`` it reads the lengths only.
    """
    if short < KRONECKER_FLOOR:
        return _SCHOOLBOOK
    if short >= KRONECKER_MIN_LEN:
        bits = _kronecker_bits(xs, ys)
        return bits, _decimal_digits(short, long, bits)
    if len(xs) == 1 and xs[0] is ys[0]:
        if short < _BAND_MIN_SQUARE:
            return _SCHOOLBOOK
    elif sum(map(mul, map(len, xs), map(len, ys))) < _BAND_MIN_WORK:
        return _SCHOOLBOOK
    bits = _kronecker_bits(xs, ys)
    # A band product's shorter operand packs to under 32 * _BAND_MAX_BITS
    # bits, far below half the decimal cut-off, so it is binary.
    return (bits, 0) if bits <= _BAND_MAX_BITS else _SCHOOLBOOK


def _kronecker_bits(xs, ys) -> int:
    """A bit bound on every coefficient of the sum of x*y over the pairs of
    xs and ys: the largest sum, over the pairs, of the bit lengths of the
    largest coefficient of x and of y, plus the bit length of the sum of the
    pairs' shorter lengths.  A square (y is x) scans its operand once."""
    top = count = 0
    for x, y in zip(xs, ys):
        top_x = max(map(abs, x)).bit_length()
        top = max(top, top_x + (top_x if y is x else max(map(abs, y)).bit_length()))
        count += min(len(x), len(y))
    return top + count.bit_length()


#: The largest bit bound with at most 640 decimal digits in ``_decimal_digits``.
_DECIMAL_MAX_BITS = 2122


def _decimal_digits(short: int, long: int, bits: int) -> int:
    """The digit count j of the decimal Kronecker product of operands with
    ``short`` and ``long`` coefficients whose product coefficients are below
    2^bits, or 0 when that product is taken in binary."""
    # 30103/100000 exceeds log10(2), so 10^(j-1) > 2^bits holds for this j;
    # for every bits up to 13300, far past j = 640, it is the least such j.
    j = bits * 30103 // 100000 + 2
    cut = KRONECKER_DECIMAL_MIN_BITS
    return j if j <= 640 and 2 * short * bits >= cut and (short + long) * bits >= 2 * cut else 0


def squares_in_decimal(cs) -> bool:
    """Whether ``Poly.square`` of the integer coefficients ``cs`` takes the
    decimal Kronecker kernel.  No coefficient is read while even
    ``_DECIMAL_MAX_BITS`` would not pack ``cs`` to the cut-off: ``pell2.verify``
    asks this of every solution it checks."""
    n = len(cs)
    return n * _DECIMAL_MAX_BITS >= KRONECKER_DECIMAL_MIN_BITS and _kernel(n, n, (cs,), (cs,))[1] > 0


def _mul_schoolbook(a, b, out=None) -> list:
    """a*b, added into ``out`` when it is given (long enough for it)."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return out


def _square_schoolbook(cs, out=None) -> list:
    """Schoolbook square doing only the symmetric half of the products,
    added into ``out`` when it is given."""
    if out is None:
        out = [0] * (2 * len(cs) - 1)
    for i, ci in enumerate(cs):
        if ci:
            out[2 * i] += ci * ci
            twice = ci * 2
            for j in range(i + 1, len(cs)):
                cj = cs[j]
                if cj:
                    out[i + j] += twice * cj
    return out


def kronecker_pack(cs, w: int) -> int:
    """The value at x = 2^(8w) of the integer coefficients ``cs`` (ascending).

    Requires |c| < 2^(8w-1) for every c.  Adding that half-range to each
    coefficient makes it a non-negative w-byte digit, as byte packing needs;
    the same offset is subtracted again as one integer.
    """
    half = 1 << (8 * w - 1)
    digits = b"".join((c + half).to_bytes(w, "little") for c in cs)
    offsets = half.to_bytes(w, "little") * len(cs)
    return int.from_bytes(digits, "little") - int.from_bytes(offsets, "little")


def _kronecker(xs, ys, bits: int, j: int) -> list:
    """The sum of x*y over the pairs of integer coefficient sequences xs and
    ys by Kronecker substitution, trailing zeros included.

    Every operand is evaluated at one radix x, each pair's two integers are
    multiplied once, the products are summed as integers, and the digits of
    the sum in base x are its coefficients (Harvey 2009, J. Symb. Comp. 44).
    Every coefficient of the sum is below 2^bits in absolute value
    (``_kronecker_bits``).

    - Binary, x = 2^(8w) with w = bits // 8 + 1: packed by ``kronecker_pack``
      and multiplied by CPython's int product (Karatsuba, O(n^1.58)).
    - Decimal, x = 10^j with j the least digit count such that 10^(j-1) >
      2^bits: multiplied by libmpdec, the C engine of ``decimal``, which takes
      a number-theoretic transform for long operands (O(n log n), in the line
      of Schoenhage & Strassen 1971, Computing 7), in the exact context
      ``_EXACT``.  Taken where ``KRONECKER_DECIMAL_MIN_BITS`` says and j <=
      640.  Every int this path converts to or from text then has at most 640
      digits, and 640 is the lowest int/str digit limit that
      ``sys.set_int_max_str_digits`` accepts
      (``sys.int_info.str_digits_check_threshold``), so no limit setting can
      make it raise.  Wider coefficients, past about 2100 bits, stay binary.

    Either way each coefficient is stored with the half-range offset of its
    digit (2^(8w-1), or 5*10^(j-1)) added, so every digit is non-negative,
    and the offset is subtracted again as one number.  As every coefficient
    of the sum lies strictly inside that half range, the same offset also
    unpacks it.
    """
    size = max(len(x) + len(y) for x, y in zip(xs, ys)) - 1
    if j:
        return _kronecker_decimal(xs, ys, j, size)
    w = bits // 8 + 1
    total = 0
    for x, y in zip(xs, ys):
        vx = kronecker_pack(x, w)
        total += vx * (vx if y is x else kronecker_pack(y, w))
    half = 1 << (8 * w - 1)
    total += int.from_bytes(half.to_bytes(w, "little") * size, "little")
    digits = total.to_bytes(w * size, "little")
    return [int.from_bytes(digits[i : i + w], "little") - half for i in range(0, w * size, w)]


def _kronecker_decimal(xs, ys, j: int, size: int) -> list:
    # Every operand and sum coefficient c has |c| < 2^bits < 10^(j-1), so
    # c + half has exactly j digits: blocks need no padding, and the text of
    # the offset sum is exactly j * size digits, most significant first.
    half = 5 * 10 ** (j - 1)
    offset = str(half)

    def pack(cs):
        digits = _EXACT.create_decimal("".join([str(c + half) for c in reversed(cs)]))
        return _EXACT.subtract(digits, _EXACT.create_decimal(offset * len(cs)))

    total = _EXACT.create_decimal(offset * size)
    for x, y in zip(xs, ys):
        vx = pack(x)
        total = _EXACT.add(total, _EXACT.multiply(vx, vx if y is x else pack(y)))
    digits = _EXACT.to_sci_string(total)
    return [int(digits[i - j : i]) - half for i in range(j * size, 0, -j)]
