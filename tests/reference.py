"""Reference computations shared by the test modules, independent of the
package's column reduction."""

from fractions import Fraction


def fraction_det(matrix) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over
    Fractions: the product of the pivots, negated per row swap."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    value = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if a[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            value = -value
        value *= a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    assert value.denominator == 1
    return int(value)


def gram_of_rows(rows):
    """The matrix of pairings of the given integer vectors."""
    return tuple(tuple(sum(x * y for x, y in zip(v, w)) for w in rows) for v in rows)
