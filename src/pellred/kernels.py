"""Product kernels on integer coefficient sequences, ascending as ``Poly.num``.

Two calls are the way in: ``product`` for one product and ``sums_of_products``
for a batch of sums of products.  Behind them sit schoolbook products (the
symmetric half for a square), Kronecker substitution of a whole sum of
products at a binary or a decimal radix, and ``_kernel``, the one rule that
picks among them: schoolbook or Kronecker from the lengths alone, and
Kronecker's radix from the shorter length and a bound on the coefficient
bits.  A batch scans and packs each operand it shares between sums once, and
its binary sums share the widest radix.  ``polyring`` runs ``Poly`` products
and ``dots`` through the two calls on its numerators, and ``pell2.verify``
packs its point test with ``kronecker_pack``; nothing here sees a ``Poly``.
Decimal packing is capped at 640 digits, about 2100-bit product
coefficients; wider ones stay binary.

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


def _kernel(short: int, xs, ys, tops=None) -> tuple[int, int]:
    """The kernel for the sum of x*y over the pairs of integer coefficient
    sequences ``xs`` and ``ys``, whose largest shorter operand length is
    ``short``: ``(0, 0)`` for schoolbook, else ``(bits, j)`` for Kronecker
    substitution with bit bound ``bits`` at radix 10^j, or in binary where j
    is 0.  A sum of several pairs weighs the schoolbook work of all of them,
    as it unpacks only once.  ``tops`` is ``_kronecker_bits``'s scan memo.

    This is the package's one kernel rule: ``product``, ``sums_of_products``
    and ``squares_in_decimal`` (so ``pell2.verify``'s route) all ask it.  It
    reads a coefficient only once it has taken Kronecker, for the radix.
    """
    if short < KRONECKER_FLOOR or sum(map(mul, map(len, xs), map(len, ys))) < KRONECKER_MIN_WORK:
        return _SCHOOLBOOK
    bits = _kronecker_bits(xs, ys, tops)
    return bits, _decimal_digits(short, bits)


def _kronecker_bits(xs, ys, tops=None) -> int:
    """A bit bound on every coefficient of the sum of x*y over the pairs of
    xs and ys: the largest sum, over the pairs, of the bit lengths of the
    largest coefficient of x and of y, plus the bit length of the sum of the
    pairs' shorter lengths.

    Each operand is scanned once: a square's (y is x) within the sum, and
    any operand within a batch of sums that share the dict ``tops``, which
    maps ``id`` of an operand to its largest coefficient's bit length.  Its
    operands must stay alive while ``tops`` is in use.
    """
    if tops is None:
        tops = {}
    top = count = 0
    for x, y in zip(xs, ys):
        top_x = tops.get(id(x))
        if top_x is None:
            top_x = tops[id(x)] = max(map(abs, x)).bit_length()
        top_y = tops.get(id(y))
        if top_y is None:
            top_y = tops[id(y)] = max(map(abs, y)).bit_length()
        top = max(top, top_x + top_y)
        count += min(len(x), len(y))
    return top + count.bit_length()


#: The largest bit bound with at most 640 decimal digits in ``_decimal_digits``.
_DECIMAL_MAX_BITS = 2122


def _decimal_digits(short: int, bits: int) -> int:
    """The digit count j of the decimal Kronecker product with a shorter
    operand of ``short`` coefficients and product coefficients below 2^bits,
    or 0 when that product is binary: decimal needs ``short * bits`` to reach
    ``KRONECKER_DECIMAL_MIN_BITS`` and j <= 640 (bits <= ``_DECIMAL_MAX_BITS``)."""
    # 30103/100000 exceeds log10(2), so 10^(j-1) > 2^bits holds for this j;
    # for every bits up to 13300, far past j = 640, it is the least such j.
    j = bits * 30103 // 100000 + 2
    return j if j <= 640 and short * bits >= KRONECKER_DECIMAL_MIN_BITS else 0


def squares_in_decimal(cs) -> bool:
    """Whether ``Poly.square`` of the integer coefficients ``cs`` takes the
    decimal Kronecker kernel.  No coefficient is read while even
    ``_DECIMAL_MAX_BITS`` would not pack ``cs`` to the cut-off: ``pell2.verify``
    asks this of every solution it checks."""
    n = len(cs)
    return _decimal_digits(n, _DECIMAL_MAX_BITS) > 0 and _kernel(n, (cs,), (cs,))[1] > 0


def _mul_schoolbook(a, b, out=None) -> list:
    """a*b, added into ``out`` when it is given (long enough for it); a
    square (``b is a``) by ``_square_schoolbook``."""
    if a is b:
        return _square_schoolbook(a, out)
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


def product(a, b) -> list:
    """a*b for nonempty integer coefficient sequences a and b, trailing zeros
    included: ``_kernel``'s kernel for the one pair, a square when ``b is a``.
    ``Poly.__mul__`` reaches the kernels through this call alone."""
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
    The batch scans each operand for its bit size once, and its binary
    Kronecker sums share the widest radix, at which each operand is packed
    once; a decimal sum keeps its own.

    Both memos are keyed by ``id``, which is the one contract: the batch it
    is given holds every operand until the call returns.
    """
    out, tops, kronecker = [], {}, []
    for xs, ys in sums:
        bits, j = _kernel(max(map(min, map(len, xs), map(len, ys))), xs, ys, tops)
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
