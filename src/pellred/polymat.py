"""Small square matrices with polynomial entries.

Products, binary-exponentiation powers, exact determinants (fraction-free
Bareiss with a cofactor fallback for tiny sizes), characteristic polynomials,
and the twisted-circulant builder used by the degree-m Pell equation.  Every
sum of products here goes through ``polyring.dots``, which takes one kernel
for each whole sum, and every matrix operation makes one batch of its sums,
so that operands they share are packed once: all entries of a
product, all cross terms of a Bareiss step, a Berkowitz stage's dots and its
Toeplitz sums.  A cofactor expansion and each Berkowitz border term are one
``polyring.dot``.

A product of two R-twisted circulants with the same R is the circulant of
one batch, the first factor's rows against the second's first column: m^2
products, and m - 1 more by R to build it, where the generic batch takes
m^3.  These circulants are the matrices of multiplication in
Z[x][y]/(y^m - R), a commutative algebra (P. J. Davis, *Circulant
Matrices*, 1979), so a product among them is fixed by its first column.
``build_circulant`` records R in the private ``_twist`` slot; every other
matrix has ``None`` there and multiplies by the generic batch.
"""

from __future__ import annotations

from operator import matmul

from .polyring import DomainError, ONE, Poly, ZERO, dot, dots, power


class DimensionMismatch(DomainError):
    """Matrix shapes do not line up."""


class PolyMatrix:
    """An immutable square matrix of polynomials."""

    __slots__ = ("rows", "_twist")

    def __init__(self, rows):
        mat = tuple(tuple(Poly(v) for v in row) for row in rows)
        if not mat or any(len(r) != len(mat) for r in mat):
            raise DimensionMismatch("matrix must be square and non-empty")
        self.rows = mat
        self._twist = None

    @classmethod
    def identity(cls, dim: int) -> PolyMatrix:
        return cls([[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[Poly, ...]:
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"PolyMatrix[{body}]"

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}")
        twist = self._twist
        if twist is not None and twist == other._twist:
            return build_circulant(dots([(row, other.column(0)) for row in self.rows]), twist)
        n, cols = self.dim, list(zip(*other.rows))
        entries = dots([(row, col) for row in self.rows for col in cols])
        return PolyMatrix([entries[i : i + n] for i in range(0, n * n, n)])

    def pow(self, n: int) -> PolyMatrix:
        """n-th power by binary exponentiation; the 0th power is the identity."""
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        return power(self, n, PolyMatrix.identity(self.dim), matmul)

    # -- determinants --------------------------------------------------------

    def det(self) -> Poly:
        """Exact determinant: cofactor expansion up to 3x3, Bareiss beyond."""
        return self.det_cofactor() if self.dim <= 3 else self.det_bareiss()

    def det_cofactor(self) -> Poly:
        """Cofactor expansion along the first row (oracle for small sizes)."""
        return _det_cofactor(self.rows)

    def det_bareiss(self) -> Poly:
        """Fraction-free Bareiss elimination; every division is exact."""
        n = self.dim
        m = [list(row) for row in self.rows]
        sign = 1
        prev = ONE
        for k in range(n - 1):
            if m[k][k].is_zero():
                for i in range(k + 1, n):
                    if not m[i][k].is_zero():
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return ZERO
            pivot, rest = m[k][k], range(k + 1, n)
            # m[k][k]*m[i][j] - m[i][k]*m[k][j] as one sum of products, all of
            # the step's in one batch, the negation taken once per row
            scales = {i: (pivot, -m[i][k]) for i in rest}
            cross = iter(dots([(scales[i], (m[i][j], m[k][j])) for i in rest for j in rest]))
            for i in rest:
                m[i][k + 1 :] = [next(cross).div_exact(prev) for _ in rest]
            prev = pivot
        result = m[n - 1][n - 1]
        return result if sign == 1 else -result

    def char_poly(self) -> tuple[Poly, ...]:
        """Coefficients of det(tI - self) as polynomials in x, ascending in t.

        Division-free Berkowitz: with the leading k x k block A_k, the column
        c and row r bordering it and the corner a, the coefficients of
        det(tI - A_(k+1)) (descending in t) are the Toeplitz product of
        (1, -a, -r c, -r A_k c, ..., -r A_k^(k-1) c) with those of
        det(tI - A_k).  Only ring operations are used.
        """
        rows = self.rows
        coeffs = [ONE, -rows[0][0]]
        for k in range(1, self.dim):
            row = rows[k][:k]
            vec = [rows[i][k] for i in range(k)]
            toeplitz = [ONE, -rows[k][k]]
            for j in range(k):
                if j:
                    vec = dots([(rows[i][:k], vec) for i in range(k)])
                toeplitz.append(-dot(row, vec))
            # Entry i is the sum of toeplitz[i - j] * coeffs[j] over j <= i.
            coeffs = dots([(toeplitz[i::-1], coeffs) for i in range(k + 2)])
        return tuple(reversed(coeffs))


def _det_cofactor(rows) -> Poly:
    if len(rows) == 1:
        return rows[0][0]
    signed = [top if j % 2 == 0 else -top for j, top in enumerate(rows[0])]
    minors = [
        _det_cofactor([r[:j] + r[j + 1 :] for r in rows[1:]]) if top else ZERO for j, top in enumerate(rows[0])
    ]
    return dot(signed, minors)


def build_circulant(sols, R) -> PolyMatrix:
    """The m x m R-twisted circulant with first column ``sols``.

    Entry (i, j) is sols[(i - j) mod m], multiplied by R above the diagonal.
    Its determinant is the degree-m Pell form; for m = 2 it is P^2 - R*Q^2.
    The matrix keeps R, so that its products with circulants of the same R
    take the first-column path of ``PolyMatrix.__matmul__``.
    """
    sols = [Poly(s) for s in sols]
    R = Poly(R)
    m = len(sols)
    if m < 2:
        raise DimensionMismatch("a circulant needs at least two components")
    # Above the diagonal (i - j) mod m runs over 1..m-1 only.
    twisted = {k: sols[k] * R for k in range(1, m)}
    mat = PolyMatrix(
        [
            [sols[(i - j) % m] if j <= i else twisted[(i - j) % m] for j in range(m)]
            for i in range(m)
        ]
    )
    mat._twist = R
    return mat
