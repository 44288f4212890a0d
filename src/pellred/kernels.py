"""Product kernels on integer coefficient sequences, ascending as ``Poly.num``.

Four calls are the way in: ``product`` for one product, ``sums_of_products``
for a batch of sums of products, ``point_test`` for the exact zero test of a
Pell residual at one binary point, and ``square_root`` for a polynomial's
square root, one integer square root at one binary point.  Behind them sit
the schoolbook product, Kronecker substitution of a whole sum of products at
a binary radix, with a half-range offset on each coefficient, or at a
decimal one, with signed coefficients entering by borrows and leaving as
balanced digits, one rule that reads a binary value back into
coefficients, and ``_kernel``, the one rule that picks among the products:
schoolbook or Kronecker from the lengths alone, and Kronecker's radix from
the shorter length and a bound on the coefficient bits.  A batch packs each
operand it shares between sums once, and its binary sums share the widest
radix.  ``polyring`` runs ``Poly`` products and ``dots`` through the first
two calls on its numerators and ``Poly.sqrt`` through the fourth, and
``pell2.verify`` asks the third; nothing here sees a ``Poly``.  Decimal
packing is capped at 640 digits, about 2100-bit product coefficients; wider
ones stay binary.

The kernels are a module of their own because compiling a module from
source holds its whole syntax tree at once: with them inside, polyring.py
raised the peak RSS of importing pellred by about 0.4 MB.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, Rounded
from math import isqrt
from operator import mul

#: Shorter operand length, in coefficients, below which every product is
#: schoolbook.  ``_kernel`` decides such a product from the lengths alone,
#: without reading a coefficient: the Redei chain and the sweep make
#: thousands of products with a 2- to 5-coefficient operand.
KRONECKER_FLOOR = 10

#: From ``KRONECKER_FLOOR`` on, a sum of products takes Kronecker
#: substitution when its schoolbook work, the sum over its pairs of the two
#: lengths' product (n^2 for a square), is at least this, whatever the size
#: of its coefficients, and schoolbook below it.  The lengths are tested
#: before any coefficient is scanned.  Fitted on grids of schoolbook over
#: binary Kronecker time and checked against a census of every product and
#: sum the benchmark's four workloads make (CHANGES.md).
KRONECKER_MIN_WORK = 256

#: A Kronecker product is taken in decimal from the point where its shorter
#: operand's length times ``_kronecker_bits`` reaches this many bits.  From
#: 210 kbit on, decimal was the faster kernel for every balanced shape
#: measured, 64 to 1000 coefficients of 100 to 1000 bits (up to 4x at
#: 2 Mbit), and below 200 kbit up to 2.8x slower on some (grids in CHANGES.md).
KRONECKER_DECIMAL_MIN_BITS = 200_000

#: Exact decimal arithmetic for the decimal Kronecker product: no operation
#: on integers can round within MAX_PREC digits, and if one did, the trapped
#: Rounded/Inexact signal would raise instead of changing a digit.  Only the
#: context's own methods use it, so the caller's decimal context is never
#: read or changed.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])

#: ``_kernel``'s answer for schoolbook.
_SCHOOLBOOK = (0, 0)


def _kernel(short: int, xs, ys) -> tuple[int, int]:
    """The kernel for the sum of x*y over the pairs of integer coefficient
    sequences ``xs`` and ``ys``, whose largest shorter operand length is
    ``short``: ``(0, 0)`` for schoolbook, else ``(bits, j)`` for Kronecker
    substitution with bit bound ``bits`` at radix 10^j, or in binary where j
    is 0.  A sum of several pairs weighs the schoolbook work of all of them,
    as it unpacks only once.

    This is the package's one kernel rule: ``product``, ``sums_of_products``
    and ``point_test`` (so ``pell2.verify``'s route) all ask it.  It
    reads a coefficient only once it has taken Kronecker, for the radix.
    """
    if short < KRONECKER_FLOOR or sum(map(mul, map(len, xs), map(len, ys))) < KRONECKER_MIN_WORK:
        return _SCHOOLBOOK
    bits = _kronecker_bits(xs, ys)
    return bits, _decimal_digits(short, bits)


def _kronecker_bits(xs, ys) -> int:
    """A bit bound on every coefficient of the sum of x*y over the pairs of
    xs and ys: the largest sum, over the pairs, of the bit lengths of the
    largest coefficient of x and of y, plus the bit length of the sum of the
    pairs' shorter lengths."""
    top = max(max(map(abs, x)).bit_length() + max(map(abs, y)).bit_length() for x, y in zip(xs, ys))
    return top + sum(map(min, map(len, xs), map(len, ys))).bit_length()


#: The most decimal digits j a coefficient takes in a decimal Kronecker
#: product (``_kronecker``), and the largest bit bound that
#: ``_decimal_digits`` gives at most that many: j <= D exactly where
#: bits * 30103 < (D - 1) * 100000.
_DECIMAL_MAX_DIGITS = 640
_DECIMAL_MAX_BITS = ((_DECIMAL_MAX_DIGITS - 1) * 100000 - 1) // 30103


def _decimal_digits(short: int, bits: int) -> int:
    """The digit count j of the decimal Kronecker product with a shorter
    operand of ``short`` coefficients and product coefficients below 2^bits,
    or 0 when that product is binary: decimal needs ``short * bits`` to reach
    ``KRONECKER_DECIMAL_MIN_BITS`` and j <= ``_DECIMAL_MAX_DIGITS`` (bits <=
    ``_DECIMAL_MAX_BITS``)."""
    # 30103/100000 exceeds log10(2), so 10^(j-1) > 2^bits holds for this j;
    # for every bits up to 13300, far past the cap, it is the least such j.
    j = bits * 30103 // 100000 + 2
    return j if j <= _DECIMAL_MAX_DIGITS and short * bits >= KRONECKER_DECIMAL_MIN_BITS else 0


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


def _unpack(value: int, w: int, size: int) -> list:
    """The ``size`` coefficients (ascending) of ``value`` read as a polynomial
    at x = 2^(8w), each with |c| < 2^(8w-1): the inverse of ``kronecker_pack``.
    The half-range offset is added to ``value`` as one integer, so every
    w-byte digit is non-negative, and subtracted again from each digit."""
    half = 1 << (8 * w - 1)
    value += int.from_bytes(half.to_bytes(w, "little") * size, "little")
    digits = value.to_bytes(w * size, "little")
    return [int.from_bytes(digits[i : i + w], "little") - half for i in range(0, w * size, w)]


def _kronecker(xs, ys, bits: int, j: int, packs=None) -> list:
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
      ``_DECIMAL_MAX_DIGITS``.  Every int this path converts to or from text
      then has at most 640 digits, the lowest int/str digit limit that
      ``sys.set_int_max_str_digits`` accepts
      (``sys.int_info.str_digits_check_threshold``), so no limit setting can
      make it raise.  Wider coefficients, past about 2100 bits, stay binary.

    In binary each coefficient is stored with the half-range offset 2^(8w-1)
    of its digit added, so every digit is non-negative, and the offset is
    subtracted again as one number; as every coefficient of the sum lies
    strictly inside that half range, the same offset also unpacks it.  In
    decimal no offset number is built: each operand's text is its exact
    value at 10^j, a negative coefficient borrowing one from the block above,
    and the sum is read back in balanced digits, a block at or above half of
    10^j standing for itself minus 10^j (``_kronecker_decimal``).

    Each binary operand is packed once: a square's within the sum, and any
    operand within a batch of sums at one ``bits`` that share the dict
    ``packs``, which maps ``id`` of an operand to its packed value.  Its
    operands must stay alive while ``packs`` is in use.
    """
    size = max(len(x) + len(y) for x, y in zip(xs, ys)) - 1
    if j:
        return _kronecker_decimal(xs, ys, j, size)
    w = bits // 8 + 1
    if packs is None:
        packs = {}
    total = 0
    for x, y in zip(xs, ys):
        vx = packs.get(id(x))
        if vx is None:
            vx = packs[id(x)] = kronecker_pack(x, w)
        vy = packs.get(id(y))
        if vy is None:
            vy = packs[id(y)] = kronecker_pack(y, w)
        total += vx * vy
    return _unpack(total, w, size)


def _kronecker_decimal(xs, ys, j: int, size: int) -> list:
    # Each operand is packed as its exact value at 10^j: a negative
    # coefficient borrows one from the next j-digit block, and a borrow out of
    # the top block is subtracted as one scaled power of ten.  Every operand
    # and sum coefficient c has |c| < 2^bits < 10^(j-1), so each block is
    # below 10^j and the sum's coefficients are its balanced digits, in
    # [-half, half): read from the lowest block, one at or above half is
    # itself minus 10^j and carries one into the next.  A negative sum is
    # read as its absolute value, and the result negated.
    base = 10**j
    half = base // 2

    def pack(cs):
        blocks, borrow = [], False
        for c in cs:
            c -= borrow
            borrow = c < 0
            blocks.append(str(c + base if borrow else c).zfill(j))
        value = _EXACT.create_decimal("".join(reversed(blocks)))
        return _EXACT.subtract(value, _EXACT.scaleb(1, j * len(cs))) if borrow else value

    total = 0
    for x, y in zip(xs, ys):
        vx = pack(x)
        total = _EXACT.add(total, _EXACT.multiply(vx, vx if y is x else pack(y)))
    digits = _EXACT.to_sci_string(total)
    negative = digits[0] == "-"
    digits = digits.lstrip("-").zfill(j * size)
    out, carry = [], False
    for i in range(j * size, 0, -j):
        t = int(digits[i - j : i]) + carry
        carry = t >= half
        out.append(t - base if carry else t)
    return [-c for c in out] if negative else out


def point_test(ps, qs, ds, e: int, ll: int) -> bool | None:
    """Whether e*(P^2 - ll) == (e*D)*Q^2 for the integer coefficient sequences
    ``ps``, ``qs`` and ``ds`` of P, Q and e*D, decided at the one point x = 2^k
    (Kronecker substitution as a zero test), or None where ``product`` would
    square P or Q in decimal: ``pell2.verify``'s one call here, with P and Q
    its L*P and L*Q, e the denominator of D and ll = L^2.

    The residual R = e*P^2 - (e*D)*Q^2 - e*ll is an integer polynomial, and by
    the 1-norm |.| (sum of absolute coefficients) every coefficient of R is at
    most e*|P|^2 + |e*D|*|Q|^2 + e*ll.  k = 8w is the least multiple of 8 with
    2^(k-1) above that bound.  If R were nonzero, its lowest nonzero
    coefficient c would satisfy 0 < |c| < 2^k, so R(2^k) = 2^(k*j)*(c + 2^k*s)
    for integers j, s would not vanish.  Hence R(2^k) == 0 iff R == 0: the
    test is exact, not probabilistic.  P and Q are packed at 2^k by
    ``kronecker_pack`` into ints p and q, D(2^k)*q^2 is built by Horner's rule
    from the coefficients of e*D (shifts and one small multiplier per step,
    not a product with the long, mostly zero D(2^k)), and e*(p^2 - ll) is
    compared with it as a plain int, with no unpacking.

    These are binary int squares, so the test declines (None) where
    ``_kernel`` takes the decimal kernel for P^2 or Q^2.  No coefficient is
    read for that while even ``_DECIMAL_MAX_BITS`` would not pack the
    operand to the cut-off.
    """
    # Lengths before the scan: skipping it pays on the sweep's many short verifies.
    for cs in (ps, qs):
        if _decimal_digits(len(cs), _DECIMAL_MAX_BITS) and _kernel(len(cs), (cs,), (cs,))[1]:
            return None
    norm_p, norm_q, norm_d = (sum(map(abs, cs)) for cs in (ps, qs, ds))
    # The last term bounds Q's own digits too when D is zero.
    bound = e * (norm_p * norm_p + ll) + norm_d * norm_q * norm_q + norm_q
    w = bound.bit_length() // 8 + 1
    p, q = kronecker_pack(ps, w), kronecker_pack(qs, w)
    q2, dq2, k = q * q, 0, 8 * w
    for c in reversed(ds):
        dq2 = (dq2 << k) + c * q2
    return e * (p * p - ll) == dq2


def square_root(cs) -> list:
    """The coefficients g (ascending, with one more than g has) of the square
    root with positive leading coefficient of the integer polynomial f with
    coefficients ``cs``, if f = g^2 in Z[x]; otherwise coefficients whose
    square is not f.  ``Poly.sqrt``'s one call, which squares the answer to
    tell the two apart.

    If f = g^2, Parseval's identity bounds every coefficient of g by the 1-norm
    |f| (sum of absolute coefficients): g_i^2 <= sum g_i^2, the mean of
    |g(z)|^2 = |f(z)| over |z| = 1, which is at most |f|.  So |g_i| <= s =
    isqrt(|f|), and w = s.bit_length() // 8 + 1 puts every g_i strictly inside
    the half range 2^(8w-1) = X/2 of the radix X = 2^(8w).  Then g(X) > 0: its
    leading term X^d exceeds (X/2 - 1)(X^d - 1)/(X - 1), the most its lower
    terms can subtract.  f(X), built by Horner's rule (a shift per step), is
    g(X)^2, so g(X) = isqrt(f(X)) exactly, and its base-X digits read with the
    half-range offset (``_unpack``) are g, with a zero top digit.  The spare
    digit makes room for any f's candidate: at n = (len(cs) + 3) // 2 digits,
    isqrt(f(X)) < X^n / 32 beside an offset below 0.51 * X^n, as f(X) <= |f|
    * X^(len(cs) - 1) and |f| < X^2 / 4.  An f with f(X) < 0 is no square; its
    candidate is 0.
    """
    w = isqrt(sum(map(abs, cs))).bit_length() // 8 + 1
    value, k = 0, 8 * w
    for c in reversed(cs):
        value = (value << k) + c
    return _unpack(isqrt(max(value, 0)), w, (len(cs) + 3) // 2)


def product(a, b) -> list:
    """a*b for nonempty integer coefficient sequences a and b, trailing zeros
    included: ``_kernel``'s kernel for the one pair.  ``Poly.__mul__``
    reaches the kernels through this call alone."""
    bits, j = _kernel(len(a) if len(a) <= len(b) else len(b), (a,), (b,))
    return _kronecker((a,), (b,), bits, j) if bits else _mul_schoolbook(a, b)


def sums_of_products(sums) -> list:
    """The sum of x*y over the pairs ``zip(xs, ys)`` for each ``(xs, ys)`` in
    ``sums``, as coefficient lists with trailing zeros: ``polyring.dots``'
    one call per batch.  Every xs and ys is a list of nonempty integer
    coefficient sequences, paired one to one, one pair or more per sum.

    Each sum takes the kernel ``_kernel`` picks for it alone: Kronecker
    (every pair packed at one radix, the int products summed, the sum
    unpacked once) or schoolbook products accumulated into one int list.
    The batch's binary Kronecker sums share the widest radix, at which each
    operand is packed once; a decimal sum keeps its own.

    The pack memo is keyed by ``id``, which is the one contract: the batch it
    is given holds every operand until the call returns.
    """
    out, kronecker = [], []
    for xs, ys in sums:
        bits, j = _kernel(max(map(min, map(len, xs), map(len, ys))), xs, ys)
        if bits:
            kronecker.append((len(out), xs, ys, bits, j))
            out.append(None)
        else:
            acc = [0] * max(len(a) + len(b) - 1 for a, b in zip(xs, ys))
            for a, b in zip(xs, ys):
                _mul_schoolbook(a, b, acc)
            out.append(acc)
    widest, packs = max((bits for *_, bits, j in kronecker if not j), default=0), {}
    for i, xs, ys, bits, j in kronecker:
        out[i] = _kronecker(xs, ys, bits if j else widest, j, packs)
    return out
