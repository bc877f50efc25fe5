"""System parameters fixing the reflection rank N."""

from collections import namedtuple

from .errors import LimitExceeded

# Vectors have N - 2 entries and every psi term of a census holds one, so
# N is bounded before any vector is built.
MAX_N = 100


class SystemParams(namedtuple("SystemParams", "n")):
    """Fixes the integer 3 <= N <= MAX_N; coefficient vectors have length
    N - 2.

    Logical coefficient indices run 2..N-1; storage index 0 is logical 2.
    Terms built for different parameter sets must never be mixed.
    """

    __slots__ = ()

    def __new__(cls, n=4):
        if n < 3:
            raise LimitExceeded("N must be at least 3, got %r" % (n,))
        if n > MAX_N:
            raise LimitExceeded("N must be at most %d, got %r" % (MAX_N, n))
        return super().__new__(cls, n)

    def logical_indices(self):
        """Logical coefficient positions 2..N-1."""
        return range(2, self.n)
