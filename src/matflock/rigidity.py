"""Linear constraints on valuations, rigidity certification, Lazarson family.

Every valuation of a matroid satisfies one linear equation per exchange
quadruple in which exactly one of the three pairings holds a non-basis; these
are the quadruples the exchange check walks.  When those equations confine
the solution space to the span of the trivial valuations, the matroid is
certifiably rigid; the converse direction needs more than linear algebra, so
the verdict degrades honestly to Inconclusive when no valuation witness is
found.

The trivial valuations satisfy every equation, so on m bases the equations
have rank at most m - dim(trivial span), and they confine the solutions to
the trivial span exactly when they reach that rank.  The elimination stops
as soon as it does, so a rigid verdict reads only as many equations as it
needs and builds no kernel.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import linalg
from .lattice import as_int
from .matroid import (QQ, Matroid, _exchange_component, _exchange_quads, _raise_unless,
                      check_basis_axioms, matroid_from_matrix, record)
from .valuation import Valuation, check_valuation_axioms, is_trivial


# ---------------------------------------------------------------------------
# Dress-Wenzel constraints

@record
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
    # as basis masks: each pair sorted, the two pairs sorted, in sorted order
    eqs = sorted(tuple(sorted(tuple(sorted(p)) for p in finite))
                 for finite in _finite_pairings(M.masks, len(M.ground)) if len(finite) == 2)
    return ConstraintSystem(M, tuple(
        tuple(tuple(M.labels_of(m) for m in side) for side in eq) for eq in eqs))


def _finite_pairings(masks, n: int):
    """For each exchange quadruple with one or two finite pairings, the list
    of those pairings.  One is a failure of (B2), as the least pairing sum
    of the all-zero map is then reached once; two give a Dress-Wenzel
    equation.  Each equation comes from one quadruple, as its two pairings
    fix F and the four elements."""
    for triple in _exchange_quads(masks, n):
        finite = [p for p in triple if p[0] in masks and p[1] in masks]
        if 0 < len(finite) < 3:
            yield finite


# ---------------------------------------------------------------------------
# rigidity

@record
class RigidityVerdict:
    kind: str                      # "rigid" | "not_rigid" | "inconclusive"
    witness: Optional[Valuation] = None
    direction: Optional[tuple] = None

    @property
    def is_rigid(self) -> bool:
        return self.kind == "rigid"


def _integerize(vec):
    row = linalg._primitive(linalg._sparse(vec))
    return tuple(row.get(k, 0) for k in range(len(vec)))


def _outside_directions(kernel, span):
    """Integer candidates outside the echelon ``span``, generated lazily.

    First each kernel vector not in the span, in kernel order, then the
    sums of pairs of the first four of them.  A vector lies in the span
    when nothing of it is left after ``linalg._reduce``; scaling it to
    integers does not change that.
    """
    outside = []
    for k in kernel:
        cand = _integerize(k)
        if linalg._reduce(linalg._sparse(cand), span):
            outside.append(k)
            yield cand
    for k1, k2 in itertools.combinations(outside[:4], 2):
        yield _integerize([a + b for a, b in zip(k1, k2)])


def rigidity_certificate(M: Matroid) -> RigidityVerdict:
    """Rigid when the constraint solution space is exactly the trivial span.

    The trivial span is spanned by the basis-incidence columns and the
    all-ones vector (which the columns sum to d times, so it is needed only
    for d = 0), held as one sparse echelon form.  Trivial valuations satisfy
    every equation, so the equations have rank at most m - dim(trivial
    span) over the m bases, and reaching that rank certifies rigidity: the
    elimination stops there, with no kernel built.  Otherwise the kernel is
    read off the full echelon form, and its directions outside the span are
    scaled to integer candidates; the first with a signed copy that passes
    the valuation axioms is a NotRigid witness, and failing that the verdict
    is Inconclusive (the linear method is only sufficient), with the first
    candidate as its direction.  The equations come from one pass over the
    exchange quadruples; a basis family that fails (B2) there, or whose
    basis graph is not connected, raises check_basis_axioms's ValueError.
    """
    basis_masks = sorted(M.masks)
    m, n = len(basis_masks), len(M.ground)
    var = {b: k for k, b in enumerate(basis_masks)}

    pairings = list(_finite_pairings(M.masks, n))
    if any(len(finite) == 1 for finite in pairings) or len(_exchange_component(M.masks)) < m:
        _raise_unless(check_basis_axioms(M.ground, M.d, M.bases), "basis family")
    # the last quadruples first: the elimination then measured 1.3-4 times
    # faster (less fill-in), and a rigid lazarson(3) reduces 483 of its 816
    # rows; each row is built only when the elimination reads it
    rows = ({var[b1]: 1, var[b2]: 1, var[b3]: -1, var[b4]: -1}
            for (b1, b2), (b3, b4) in reversed(pairings))

    span = linalg._echelon([{k: 1 for k, b in enumerate(basis_masks) if b >> i & 1}
                            for i in range(n)] + [dict.fromkeys(range(m), 1)])
    bound = m - len(span)
    echelon = linalg._echelon(rows, limit=bound)
    if len(echelon) == bound:
        return RigidityVerdict("rigid")

    first_direction = None
    for cand in _outside_directions(linalg._kernel(echelon, m), span):
        if first_direction is None:
            first_direction = cand
        for w in (cand, tuple(-x for x in cand)):
            lo = min(w)
            nu = Valuation(M.ground, M.d,
                           {b: w[var[b]] - lo for b in basis_masks})
            if check_valuation_axioms(nu).ok and not is_trivial(nu).trivial:
                return RigidityVerdict("not_rigid", witness=nu, direction=cand)
    return RigidityVerdict("inconclusive", direction=first_direction)


# ---------------------------------------------------------------------------
# the Lazarson family

def lazarson_matrix(n: int):
    """The (n+1) x (2n+3) integer matrix with columns x_0..x_n, z, y_0..y_n.

    x_i is the i-th unit column, z is all ones, and y_i is all ones with a
    zero in row i.  Returns (rows, column_labels).
    """
    n = as_int(n, "n")
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
    n = as_int(n, "n")
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
    n = as_int(n, "n")
    M = lazarson(n, "full")
    out = []
    for size in range(3, n + 2):
        for I in itertools.combinations(range(n + 1), size):
            B = [f"x{i}" for i in range(n + 1) if i not in I] + [f"y{i}" for i in I]
            if M.is_basis(B):
                out.append(tuple(sorted(B)))
    return tuple(sorted(out))


@record
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
    n, p = as_int(n, "n"), linalg.as_prime(p)
    rows, labels = lazarson_matrix(n)
    ycols = [labels.index(f"y{i}") for i in range(n + 1)]
    sub = [[row[j] for j in ycols] for row in rows]
    det = linalg.det_int(sub)
    return CharacteristicCheck(n, p, det, det == n * (-1) ** n, det % p == 0)
