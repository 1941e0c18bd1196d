"""Finite matroids given by explicit basis lists.

Ground sets are canonical sorted tuples of labels (all ints or all strings).
Bases are stored as bit masks over the ground order, which keeps minor and
rank computations cheap enough for exhaustive window scans.  Target scale is
n <= 12 elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import linalg


def canonical_ground(labels) -> tuple:
    """Sorted, distinct ground labels; all ints or all strings."""
    labs = list(labels)
    if not labs:
        raise ValueError("empty ground set")
    if len(set(labs)) != len(labs):
        raise ValueError("ground labels are not distinct")
    if not (all(type(x) is int for x in labs) or all(isinstance(x, str) for x in labs)):
        raise ValueError("ground labels must be all ints or all strings")
    return tuple(sorted(labs))


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of an executable axiom check; witness pins the first failure."""
    ok: bool
    kind: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


VALID = AxiomCheck(True)


# ---------------------------------------------------------------------------
# field choice for linear matroids

@dataclass(frozen=True)
class FieldSpec:
    """The field for a linear matroid: the rationals, or GF(p)."""
    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not linalg.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# mask-level basis-family operations (shared with the flock engine)

def bases_delete(masks: frozenset[int], dmask: int) -> frozenset[int]:
    """Basis masks of M \\ D from basis masks of M (same bit layout)."""
    best = max((b & ~dmask).bit_count() for b in masks)
    return frozenset(b & ~dmask for b in masks if (b & ~dmask).bit_count() == best)


def bases_contract(masks: frozenset[int], cmask: int) -> frozenset[int]:
    """Basis masks of M / C from basis masks of M (same bit layout)."""
    r = max((b & cmask).bit_count() for b in masks)
    return frozenset(b & ~cmask for b in masks if (b & cmask).bit_count() == r)


class Matroid:
    """A matroid (E, B) with an explicit basis family.

    Immutable after construction; equality is labelled equality (same ground
    set, same basis family).
    """

    def __init__(self, ground, masks: Iterable[int]):
        self.ground = canonical_ground(ground)
        self._index = {e: i for i, e in enumerate(self.ground)}
        ms = frozenset(int(m) for m in masks)
        if not ms:
            raise ValueError("a matroid needs at least one basis")
        sizes = {m.bit_count() for m in ms}
        if len(sizes) != 1:
            raise ValueError("bases have mixed sizes")
        full = (1 << len(self.ground)) - 1
        if any(m & ~full for m in ms):
            raise ValueError("basis mask outside ground set")
        self.masks = ms
        self.d = sizes.pop()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bases(cls, ground, bases: Iterable[Iterable]) -> "Matroid":
        ground = canonical_ground(ground)
        index = {e: i for i, e in enumerate(ground)}
        masks = []
        for B in bases:
            B = list(B)
            if len(set(B)) != len(B):
                raise ValueError(f"repeated element in basis {B}")
            try:
                masks.append(sum(1 << index[e] for e in B))
            except KeyError as exc:
                raise ValueError(f"unknown element {exc.args[0]!r}") from None
        return cls(ground, masks)

    # -- element/mask translation -------------------------------------------

    def mask_of(self, subset) -> int:
        m = 0
        for e in subset:
            try:
                m |= 1 << self._index[e]
            except KeyError:
                raise ValueError(f"unknown element {e!r}") from None
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(e for i, e in enumerate(self.ground) if mask >> i & 1)

    @cached_property
    def bases(self) -> tuple:
        """Sorted tuple of bases, each a sorted tuple of labels."""
        return tuple(sorted(self.labels_of(m) for m in self.masks))

    # -- rank and connectivity ----------------------------------------------

    def rank(self, subset) -> int:
        m = self.mask_of(subset)
        return max((b & m).bit_count() for b in self.masks)

    def connectivity(self, subset) -> int:
        m = self.mask_of(subset)
        full = (1 << len(self.ground)) - 1
        co = full & ~m
        rk = lambda x: max((b & x).bit_count() for b in self.masks)
        return rk(m) + rk(co) - self.d

    def is_basis(self, subset) -> bool:
        return self.mask_of(subset) in self.masks

    def loops(self) -> tuple:
        used = 0
        for b in self.masks:
            used |= b
        full = (1 << len(self.ground)) - 1
        return self.labels_of(full & ~used)

    def coloops(self) -> tuple:
        common = (1 << len(self.ground)) - 1
        for b in self.masks:
            common &= b
        return self.labels_of(common)

    def parallel_pairs(self) -> tuple:
        """Unordered pairs {a, b} of non-loop elements with rank({a,b}) = 1."""
        loops = set(self.loops())
        out = []
        for a, b in itertools.combinations(self.ground, 2):
            if a in loops or b in loops:
                continue
            if self.rank((a, b)) == 1:
                out.append((a, b))
        return tuple(out)

    # -- minors and duality --------------------------------------------------

    def _rebuild(self, keep_labels, masks: frozenset[int]) -> "Matroid":
        new_ground = tuple(keep_labels)
        old_pos = [self._index[e] for e in new_ground]
        remapped = []
        for m in masks:
            remapped.append(sum(1 << k for k, pos in enumerate(old_pos) if m >> pos & 1))
        return Matroid(new_ground, remapped)

    def minor(self, delete=(), contract=()) -> "Matroid":
        """The minor M \\ delete / contract (disjoint label sets)."""
        dmask = self.mask_of(delete)
        cmask = self.mask_of(contract)
        if dmask & cmask:
            raise ValueError("delete and contract sets overlap")
        masks = bases_contract(self.masks, cmask) if cmask else self.masks
        if dmask:
            masks = bases_delete(masks, dmask)
        keep = [e for e in self.ground if not (self.mask_of([e]) & (dmask | cmask))]
        if not keep:
            raise ValueError("minor has empty ground set")
        return self._rebuild(keep, masks)

    def dual(self) -> "Matroid":
        full = (1 << len(self.ground)) - 1
        return Matroid(self.ground, (full ^ m for m in self.masks))

    def relabel(self, mapping: dict) -> "Matroid":
        """Rename elements through a bijective label mapping."""
        new_labels = [mapping[e] for e in self.ground]
        if len(set(new_labels)) != len(new_labels):
            raise ValueError("relabelling is not injective")
        return Matroid.from_bases(
            new_labels,
            [[mapping[e] for e in B] for B in self.bases],
        )

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.ground == other.ground
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.ground, self.masks))

    def __repr__(self):
        return f"Matroid(n={len(self.ground)}, d={self.d}, bases={len(self.masks)})"


# ---------------------------------------------------------------------------
# axiom checking

def _single_exchanges(mask: int, n: int):
    """Every (i, j, mask - i + j) with i in mask and j outside it."""
    for i in range(n):
        if mask >> i & 1:
            for j in range(n):
                if not mask >> j & 1:
                    yield i, j, mask & ~(1 << i) | 1 << j


def _exchange_quads(masks, n: int):
    """The three pairings ((Fab, Fce), (Fac, Fbe), (Fae, Fbc)) of each 4-set
    a < b < c < e outside a (d-2)-set F, for F = B - x - y with B in
    ``masks``, in lex order of F.  Every other quadruple pairs no two of
    ``masks``; nothing when d < 2."""
    bits = lambda m: [i for i in range(n) if m >> i & 1]
    Fs = {B & ~(1 << x | 1 << y) for B in masks for x, y in itertools.combinations(bits(B), 2)}
    for f in sorted(Fs, key=bits):
        rest = [1 << i for i in range(n) if not f >> i & 1]
        for a, b, c, e in itertools.combinations(rest, 4):
            yield ((f | a | b, f | c | e), (f | a | c, f | b | e), (f | a | e, f | b | c))


def _exchange_failure(values: dict, ground) -> Optional[tuple]:
    """A witness (B, B', i) against the valuated exchange axiom, or None.

    ``values`` maps d-subset masks to ints; a missing mask is infinite.  The
    local three-term rule (Dress-Wenzel) checks every |B - B'| = 2 exchange:
    the least finite pairing sum of each quadruple must be reached twice.
    With it, the axiom holds exactly when the support is connected under
    single exchanges (Maurer's basis-graph theorem).
    """
    n = len(ground)
    labels = lambda m: tuple(e for k, e in enumerate(ground) if m >> k & 1)
    witness = lambda B, B2: (labels(B), labels(B2), ground[(B & ~B2).bit_length() - 1])
    for triple in _exchange_quads(values, n):
        sums = [(values[B] + values[B2], B, B2) for B, B2 in triple
                if B in values and B2 in values]
        if sums:
            low = min(sums)
            if sum(s == low[0] for s, _, _ in sums) == 1:
                return witness(low[1], low[2])
    reached = {next(iter(values))}
    todo = list(reached)
    while todo:
        for _, _, B2 in _single_exchanges(todo.pop(), n):
            if B2 in values and B2 not in reached:
                reached.add(B2)
                todo.append(B2)
    if len(reached) == len(values):
        return None
    # breadth-first over all d-sets from the reached bases finds a closest
    # unreached basis; any working exchange there would give a closer pair
    source = {B: B for B in reached}
    layer = list(reached)
    while True:
        nxt = []
        for S in layer:
            for _, _, T in _single_exchanges(S, n):
                if T not in source:
                    if T in values:
                        return witness(source[S], T)
                    source[T] = source[S]
                    nxt.append(T)
        layer = nxt


def check_basis_axioms(ground, d: int, bases) -> AxiomCheck:
    """Executable (B1) nonemptiness and (B2) symmetric exchange check.

    Malformed input (wrong basis size, unknown element) raises ValueError;
    axiom failures come back as data with a witness.
    """
    ground = canonical_ground(ground)
    index = {e: i for i, e in enumerate(ground)}
    masks = []
    for B in bases:
        B = sorted(B)
        if len(set(B)) != len(B) or len(B) != d:
            raise ValueError(f"subset {B} does not have size {d}")
        if any(e not in index for e in B):
            raise ValueError(f"subset {B} contains unknown elements")
        masks.append(sum(1 << index[e] for e in B))
    if not masks:
        return AxiomCheck(False, "B1", None)
    witness = _exchange_failure(dict.fromkeys(masks, 0), ground)
    return VALID if witness is None else AxiomCheck(False, "B2", witness)


def _raise_unless(check: AxiomCheck, what: str) -> None:
    """ValueError naming the failed axiom and its witness, unless check.ok."""
    if not check.ok:
        raise ValueError(f"{what} violates ({check.kind})"
                         + ("" if check.witness is None else f" at {check.witness}"))


# ---------------------------------------------------------------------------
# linear matroids

def matroid_from_matrix(rows, field: FieldSpec = QQ, ground=None) -> Matroid:
    """Column matroid of an exact matrix over Q or GF(p).

    B is a basis iff the column submatrix indexed by B has full rank d,
    where d is the rank of the whole matrix.  Columns are indexed by
    ``ground`` (default 1..n).
    """
    A = linalg.as_rat_matrix(rows) if field.is_rational else linalg.as_int_matrix(rows)
    if not A:
        raise ValueError("empty matrix")
    n = len(A[0])
    labels = list(ground) if ground is not None else list(range(1, n + 1))
    if len(labels) != n:
        raise ValueError("ground size does not match column count")
    ground = canonical_ground(labels)

    # columns follow the caller's label order; realign to the sorted ground
    by_label = {lab: j for j, lab in enumerate(labels)}
    rows = [[row[by_label[lab]] for lab in ground] for row in linalg._integer_rows(A)[0]]
    ring = linalg._ZZ if field.is_rational else linalg._PrimeField(field.p)
    masks = [mask for mask, _ in linalg._maximal_minors(rows, ring)]
    if masks[0] == 0:
        raise ValueError("zero matrix has no column basis")
    return Matroid(ground, masks)


# ---------------------------------------------------------------------------
# named matroids (test fixtures)

def uniform_matroid(d: int, n: int) -> Matroid:
    if not 0 < d <= n:
        raise ValueError("uniform matroid needs 0 < d <= n")
    ground = range(1, n + 1)
    return Matroid.from_bases(ground, itertools.combinations(range(1, n + 1), d))


_PLANE_COLUMNS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
)


def fano_matroid() -> Matroid:
    """The Fano plane: seven nonzero GF(2)^3 columns."""
    rows = [[c[i] for c in _PLANE_COLUMNS] for i in range(3)]
    return matroid_from_matrix(rows, GF(2))


def nonfano_matroid() -> Matroid:
    """The same seven columns read over Q; one Fano line becomes a basis."""
    rows = [[c[i] for c in _PLANE_COLUMNS] for i in range(3)]
    return matroid_from_matrix(rows, QQ)


def named_matroid(name: str) -> Matroid:
    """Resolve 'fano', 'nonfano' or 'uniform(d,n)'."""
    name = name.strip().lower()
    if name == "fano":
        return fano_matroid()
    if name == "nonfano":
        return nonfano_matroid()
    if name.startswith("uniform(") and name.endswith(")"):
        inner = name[len("uniform("):-1]
        parts = [s.strip() for s in inner.split(",")]
        if len(parts) == 2:
            return uniform_matroid(int(parts[0]), int(parts[1]))
    raise ValueError(f"unknown matroid name {name!r}")
