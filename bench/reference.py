"""Reference computations made apart from spin9, for the benchmark's checks.

Only the nine involution matrices are taken from the program.  Their
defining relations are checked here, and everything built on them (the
pair products I_i I_j, the two-form coefficients, wedge signs, the
quadruple-sum coefficients of the 8-form and the dense curvature) is
computed by this module's own code, not by spin9's.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import combinations

N = 16


def matmul(a, b):
    out = []
    for row in a:
        acc = [0] * N
        for k, v in enumerate(row):
            if v:
                bk = b[k]
                for c in range(N):
                    if bk[c]:
                        acc[c] += v * bk[c]
        out.append(acc)
    return out


def apply(m, x):
    return [sum(v * x[k] for k, v in enumerate(row) if v) for row in m]


def inner(x, y):
    return sum(p * q for p, q in zip(x, y))


def permutation_sign(seq) -> int:
    inv = sum(
        1 for p in range(len(seq)) for q in range(p + 1, len(seq))
        if seq[p] > seq[q]
    )
    return -1 if inv % 2 else 1


class Reference:
    """Dense models of the 8-form and the curvature from nine involutions."""

    def __init__(self, involutions):
        self.inv = [[list(row) for row in m] for m in involutions]
        self.pair = {
            (i, j): matmul(self.inv[i], self.inv[j])
            for i in range(9) for j in range(9) if i != j
        }
        self.problems = self._relations()

    def _relations(self) -> list:
        ident = [[int(r == c) for c in range(N)] for r in range(N)]
        problems = []
        for i, m in enumerate(self.inv):
            if any(m[r][c] != m[c][r] for r in range(N) for c in range(N)):
                problems.append(f"I_{i} is not symmetric")
            if matmul(m, m) != ident:
                problems.append(f"I_{i} does not square to the identity")
        for i, j in combinations(range(9), 2):
            a, b = self.pair[i, j], self.pair[j, i]
            if any(a[r][c] != -b[r][c] for r in range(N) for c in range(N)):
                problems.append(f"I_{i} and I_{j} do not anticommute")
        return problems

    # the 8-form ------------------------------------------------------------

    def omega_coefficient(self, subset) -> int:
        """Coefficient of dx_subset in the literal quadruple sum

            sum_{i, i', j, j'} w_ij ^ w_ij' ^ w_i'j ^ w_i'j',

        with w_ij = sum_{a<b} (I_i I_j)[a][b] dx_a ^ dx_b and terms with a
        repeated index (w_ii = 0) left out.
        """
        full = 0
        for a in subset:
            full |= 1 << a
        inside = {
            ij: [(1 << a | 1 << b, a, b, m[a][b])
                 for a, b in combinations(sorted(subset), 2) if m[a][b]]
            for ij, m in self.pair.items()
        }
        total = 0
        for i in range(9):
            for ip in range(9):
                for j in range(9):
                    if j == i or j == ip:
                        continue
                    for jp in range(9):
                        if jp == i or jp == ip:
                            continue
                        factors = (inside[i, j], inside[i, jp],
                                   inside[ip, j], inside[ip, jp])
                        if all(factors):
                            total += _matching_sum(factors, 0, 0, full)
        return total

    # the curvature ------------------------------------------------------------

    def curvature(self, x, y, z, c):
        """R_XY Z = -(c/4) sum_{i<j} <X, I_i I_j Y> I_i I_j Z, densely."""
        total = [0] * N
        for i, j in combinations(range(9), 2):
            m = self.pair[i, j]
            coeff = inner(x, apply(m, y))
            if coeff:
                total = [t + coeff * v for t, v in zip(total, apply(m, z))]
        scale = -Fraction(c, 4)
        return [scale * t for t in total]


def _matching_sum(factors, k, used, full) -> int:
    """Sum over ways to cover `full` by one pair from each remaining factor.

    Appending dx_a ^ dx_b after the sorted monomial dx_used costs the sign
    (-1)^(#used above a + #used above b).
    """
    if k == len(factors):
        return 1 if used == full else 0
    total = 0
    for m, a, b, v in factors[k]:
        if used & m:
            continue
        rest = _matching_sum(factors, k + 1, used | m, full)
        if rest:
            parity = bin(used >> a).count("1") + bin(used >> b).count("1")
            total += (-v if parity % 2 else v) * rest
    return total


def wedge(a: dict, b: dict) -> dict:
    """Shuffle product of forms given as {sorted index tuple: coefficient}."""
    out: dict = {}
    for ia, ca in a.items():
        sa = set(ia)
        for ib, cb in b.items():
            if sa.intersection(ib):
                continue
            seq = ia + ib
            key = tuple(sorted(seq))
            out[key] = out.get(key, 0) + permutation_sign(seq) * ca * cb
    return {k: v for k, v in out.items() if v}


def parse_export(data: bytes, fmt: str, degree: int) -> dict:
    """Read an exported coefficient table back into {indices: Fraction}.

    Raises ValueError on a malformed table or a repeated index tuple.
    """
    out: dict = {}
    text = data.decode()
    if fmt == "json":
        records = [json.loads(line) for line in text.splitlines()]
        rows = [(tuple(r["indices"]), r["num"], r["den"]) for r in records]
    elif fmt == "csv":
        reader = csv.reader(text.splitlines())
        header = next(reader)
        expected = [f"i{t + 1}" for t in range(degree)] + ["num", "den"]
        if header != expected:
            raise ValueError(f"csv header {header}")
        rows = [(tuple(int(v) for v in r[:degree]), r[degree], r[degree + 1])
                for r in reader]
    else:
        raise ValueError(f"unknown format {fmt}")
    for idx, num, den in rows:
        if len(idx) != degree or list(idx) != sorted(set(idx)) or idx in out:
            raise ValueError(f"bad or repeated indices {idx}")
        out[idx] = Fraction(int(num), int(den))
    return out
