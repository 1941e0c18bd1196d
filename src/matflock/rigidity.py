"""Linear constraints on valuations, rigidity certification, Lazarson family.

Every valuation of a matroid satisfies one linear equation per exchange
quadruple in which exactly one of the three pairings holds a non-basis; these
are the quadruples the exchange check walks.  When those equations confine
the solution space to the span of the trivial valuations, the matroid is
certifiably rigid; the converse direction needs more than linear algebra, so
the verdict degrades honestly to Inconclusive when no valuation witness is
found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .matroid import (QQ, Matroid, _exchange_quads, _raise_unless, check_basis_axioms,
                      matroid_from_matrix)
from .valuation import Valuation, _incidence_rows, check_valuation_axioms, is_trivial


# ---------------------------------------------------------------------------
# Dress-Wenzel constraints

@dataclass(frozen=True)
class ConstraintSystem:
    """Equations nu(B1) + nu(B2) = nu(B3) + nu(B4) over the bases of M.

    Each equation is stored as ((B1, B2), (B3, B4)) with bases as sorted
    label tuples, canonically ordered and deduplicated.
    """
    matroid: Matroid
    equations: tuple

    def __len__(self):
        return len(self.equations)

    def holds_for(self, nu: Valuation) -> bool:
        val = nu.value
        return all(
            val(b1) + val(b2) == val(b3) + val(b4)
            for (b1, b2), (b3, b4) in self.equations
        )


def dw_constraints(M: Matroid) -> ConstraintSystem:
    """One equation per exchange quadruple with exactly two finite pairings.

    The quadruples are those of the exchange check (a (d-2)-set F and four
    elements outside it); the two pairings of bases must have equal sums, as
    the third is infinite.  A rank below 2 yields the empty system.
    """
    eqs = {}
    for triple in _exchange_quads(M.masks, len(M.ground)):
        finite = [tuple(sorted(p)) for p in triple if p[0] in M.masks and p[1] in M.masks]
        if len(finite) == 2:
            key = tuple(sorted(finite))
            eqs[key] = tuple(tuple(M.labels_of(m) for m in side) for side in key)
    return ConstraintSystem(M, tuple(eqs[k] for k in sorted(eqs)))


# ---------------------------------------------------------------------------
# rigidity

@dataclass(frozen=True)
class RigidityVerdict:
    kind: str                      # "rigid" | "not_rigid" | "inconclusive"
    witness: Optional[Valuation] = None
    direction: Optional[tuple] = None

    @property
    def is_rigid(self) -> bool:
        return self.kind == "rigid"


def _integerize(vec):
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = math.gcd(*ints) if any(ints) else 1
    return tuple(x // max(g, 1) for x in ints)


def rigidity_certificate(M: Matroid) -> RigidityVerdict:
    """Rigid when the constraint solution space is exactly the trivial span.

    The trivial valuations always satisfy the constraints, so equality of
    dimensions certifies rigidity.  Otherwise a solution direction outside
    the trivial span is scaled to an integer candidate; if some signed copy
    passes the valuation axioms it is a NotRigid witness, and failing that
    the verdict is Inconclusive (the linear method is only sufficient).
    A basis family that fails (B2) raises ValueError with the witness.
    """
    _raise_unless(check_basis_axioms(M.ground, M.d, M.bases), "basis family")
    basis_masks = sorted(M.masks)
    var = {m: k for k, m in enumerate(basis_masks)}
    n = len(M.ground)

    system = dw_constraints(M)
    rows = []
    for (b1, b2), (b3, b4) in system.equations:
        row = [0] * len(basis_masks)
        row[var[M.mask_of(b1)]] += 1
        row[var[M.mask_of(b2)]] += 1
        row[var[M.mask_of(b3)]] -= 1
        row[var[M.mask_of(b4)]] -= 1
        rows.append(row)

    dim_solutions = len(basis_masks) - (linalg.rat_rank(rows) if rows else 0)
    incidence = _incidence_rows(basis_masks, n)
    dim_trivial = linalg.rat_rank(incidence)
    if dim_solutions == dim_trivial:
        return RigidityVerdict("rigid")

    if rows:
        kernel = linalg.rat_kernel(rows)
    else:
        kernel = [tuple(int(i == j) for i in range(len(basis_masks)))
                  for j in range(len(basis_masks))]
    outside = [k for k in kernel
               if linalg.rat_solve(incidence, list(k)) is None]
    candidates = [_integerize(k) for k in outside]
    for k1, k2 in itertools.combinations(outside[:4], 2):
        candidates.append(_integerize([a + b for a, b in zip(k1, k2)]))

    first_direction = candidates[0] if candidates else None
    for cand in candidates:
        for w in (cand, tuple(-x for x in cand)):
            lo = min(w)
            nu = Valuation(M.ground, M.d,
                           {m: w[var[m]] - lo for m in basis_masks})
            if not check_valuation_axioms(nu).ok:
                continue
            if is_trivial(nu).trivial:
                continue
            return RigidityVerdict("not_rigid", witness=nu, direction=cand)
    return RigidityVerdict("inconclusive", direction=first_direction)


# ---------------------------------------------------------------------------
# the Lazarson family

def lazarson_matrix(n: int):
    """The (n+1) x (2n+3) integer matrix with columns x_0..x_n, z, y_0..y_n.

    x_i is the i-th unit column, z is all ones, and y_i is all ones with a
    zero in row i.  Returns (rows, column_labels).
    """
    if n < 2:
        raise ValueError("the family needs n >= 2")
    labels = [f"x{i}" for i in range(n + 1)] + ["z"] + [f"y{i}" for i in range(n + 1)]
    rows = []
    for r in range(n + 1):
        row = [int(r == i) for i in range(n + 1)]
        row.append(1)
        row.extend(int(r != i) for i in range(n + 1))
        rows.append(tuple(row))
    return tuple(rows), tuple(labels)


def lazarson(n: int, variant: str = "full") -> Matroid:
    """variant 'minus': the column matroid over Q; 'full': the all-y basis removed."""
    rows, labels = lazarson_matrix(n)
    M = matroid_from_matrix(rows, QQ, ground=labels)
    if variant == "minus":
        return M
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    ymask = M.mask_of([f"y{i}" for i in range(n + 1)])
    if ymask not in M.masks:
        raise AssertionError("the all-y set is expected to be a basis over Q")
    return Matroid(M.ground, M.masks - {ymask})


def central_bases(n: int):
    """Bases {x_i : i not in I} ∪ {y_i : i in I} of the full variant with |I| > 2."""
    M = lazarson(n, "full")
    out = []
    for size in range(3, n + 2):
        for I in itertools.combinations(range(n + 1), size):
            B = [f"x{i}" for i in range(n + 1) if i not in I] + [f"y{i}" for i in I]
            if M.is_basis(B):
                out.append(tuple(sorted(B)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class CharacteristicCheck:
    n: int
    p: int
    det: int
    formula_ok: bool     # det == n * (-1)^n
    divisible: bool      # p | det, equivalently p | n

    @property
    def ok(self) -> bool:
        return self.formula_ok


def lazarson_char_check(n: int, p: int) -> CharacteristicCheck:
    """Exact determinant of the all-y column block, and its residue mod p.

    The determinant equals n * (-1)^n, so it vanishes mod p exactly when
    p divides n; that is the obstruction turning into a characteristic
    restriction for the full variant.
    """
    if not linalg.is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows, labels = lazarson_matrix(n)
    ycols = [labels.index(f"y{i}") for i in range(n + 1)]
    sub = [[row[j] for j in ycols] for row in rows]
    det = linalg.det_int(sub)
    return CharacteristicCheck(n, p, det, det == n * (-1) ** n, det % p == 0)
