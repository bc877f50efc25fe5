"""System parameters fixing the reflection rank N."""

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """Fixes the integer N >= 3; coefficient vectors have length N - 2.

    Logical coefficient indices run 2..N-1; storage index 0 is logical 2.
    Terms built for different parameter sets must never be mixed.
    """

    n: int = 4

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("N must be at least 3, got %r" % (self.n,))

    def logical_indices(self):
        """Logical coefficient positions 2..N-1."""
        return range(2, self.n)
