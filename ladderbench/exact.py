"""Exact arithmetic and small linear algebra for the output checkers.

This module is written apart from finsite on purpose: the checkers must
not trust the program they check. Scalars are plain ints reduced mod p
or ``fractions.Fraction`` values; matrices are lists of row lists.
Elimination is forward Gaussian elimination to echelon form, not the
reduced form finsite uses, so the two share no code path.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """F_p for a prime p, or Q when p is 0."""

    def __init__(self, p: int):
        self.p = p

    @classmethod
    def from_label(cls, label) -> "Field":
        text = str(label).strip().upper()
        if text in ("Q", "0"):
            return cls(0)
        return cls(int(text.lstrip("F")))

    def parse(self, raw):
        """A scalar as a document writes it: an int or an "n/d" string."""
        if isinstance(raw, bool):
            raise ValueError(f"bad scalar {raw!r}")
        if isinstance(raw, str):
            num, _, den = raw.partition("/")
            value = Fraction(int(num), int(den or 1))
        elif isinstance(raw, int):
            value = Fraction(raw)
        else:
            raise ValueError(f"bad scalar {raw!r}")
        if self.p == 0:
            return value
        if value.denominator % self.p == 0:
            raise ValueError(f"{raw!r} has no image mod {self.p}")
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def norm(self, a):
        return a if self.p == 0 else a % self.p

    def inv(self, a):
        return 1 / Fraction(a) if self.p == 0 else pow(a, -1, self.p)

    def matrix(self, raw, rows: int, cols: int) -> list:
        if not isinstance(raw, list) or len(raw) != rows or \
                any(not isinstance(r, list) or len(r) != cols for r in raw):
            raise ValueError(f"expected a {rows}x{cols} matrix")
        return [[self.parse(e) for e in r] for r in raw]


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mul(k: Field, a: list, b: list, cols: int) -> list:
    """a times b, where b has the given number of columns (b may be empty)."""
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append([k.norm(v) for v in acc])
    return out


def combine(k: Field, coeffs, mats: list, n: int) -> list:
    """The linear combination sum_i coeffs[i] * mats[i] of n x n matrices."""
    acc = [[0] * n for _ in range(n)]
    for c, a in zip(coeffs, mats):
        if c:
            for ra, rb in zip(acc, a):
                for j, v in enumerate(rb):
                    if v:
                        ra[j] += c * v
    return [[k.norm(v) for v in r] for r in acc]


def rank(k: Field, rows: list, cols: int) -> int:
    """Rank by forward elimination on a copy."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        inv = k.inv(prow[c])
        for i in range(r + 1, len(work)):
            x = work[i][c]
            if x:
                f = x * inv
                row = work[i]
                for j in range(c, cols):
                    if prow[j]:
                        row[j] = k.norm(row[j] - f * prow[j])
        r += 1
        if r == len(work):
            break
    return r


def trace(k: Field, a: list):
    return k.norm(sum(a[i][i] for i in range(len(a))))
