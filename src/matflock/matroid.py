"""Finite matroids given by explicit basis lists.

Ground sets are canonical sorted tuples of labels (all ints or all strings).
Bases are stored as bit masks over the ground order, which keeps minor and
rank computations cheap enough for exhaustive window scans.  Matroids and
valuations read label subsets through one reader, ``GroundSet.mask_of``.
Target scale is n <= 12 elements.

The exchange checks (B2) and (V2) run the Dress-Wenzel three-term rule over
every exchange quadruple, on one of two paths that give the same verdict
and the same first failing quadruple.  Small inputs take a loop over the
quadruples, which loads no numpy, so the exact commands start fast.  From
``_WARM_QUADS`` quadruples on when numpy is already loaded, and from
``_COLD_QUADS`` on when it is not (where the saved loop time outweighs
importing it), one numpy pass (``_flagged_quad``) reads the three pairing
sums of every quadruple at once; a spread of 2**62 or more, which int64
cannot hold, keeps the loop.  One walk of the basis graph
(``_exchange_component``) decides connectivity and seeds its witness, in
plain Python.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .lattice import as_int, as_ints


# writes a field past a record's read-only __setattr__ (bound once: looking
# object.__setattr__ up costs about as much as the write)
_write = object.__setattr__


def record(cls):
    """``@dataclass(frozen=True)`` without the start-up cost of that module:
    the fields are the annotated names, trailing ones default to their class
    values, ``__post_init__`` runs once they are set, class-body dunders stay."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init, title = getattr(cls, "__post_init__", lambda self: None), cls.__qualname__

    def bind(args, kwargs):
        by_position = names[:len(args)]
        problems = [f"{len(args)} given by position"] * (len(args) > len(names)) + [
            f"{key!r} given twice" if key in by_position else f"{key!r} is not a field"
            for key in kwargs if key in by_position or key not in names] + [
            f"{n!r} missing" for n in names[len(args):] if n not in kwargs and n not in defaults]
        if problems:
            raise TypeError(f"{title}() takes {', '.join(names)}: {problems[0]}")
        return [*args, *(kwargs[n] if n in kwargs else defaults[n] for n in names[len(args):])]

    def __init__(self, *args, **kwargs):
        values = args if len(args) == len(names) and not kwargs else bind(args, kwargs)
        for n, value in zip(names, values):  # not self.__dict__, which slows later reads
            _write(self, n, value)
        post_init(self)

    # attrgetter reads the fields in C; it returns a bare value for one name
    fields = (operator.attrgetter(*names) if len(names) > 1
              else lambda self: tuple(getattr(self, n) for n in names))

    def frozen(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    def __repr__(self):
        return f"{title}({', '.join(f'{n}={v!r}' for n, v in zip(names, fields(self)))})"

    for key, value in {
            "__init__": __init__, "__setattr__": frozen, "__delattr__": frozen, "__repr__": __repr__,
            "__eq__": lambda self, other: (fields(self) == fields(other) if
                                           other.__class__ is self.__class__ else NotImplemented),
            "__hash__": lambda self: hash(fields(self)), "__match_args__": names}.items():
        if key not in cls.__dict__:
            setattr(cls, key, value)
    return cls


def _label_kind(label):
    """int or str, the two kinds of ground label, or None for anything else:
    True, 1.0 and numpy integers equal the label 1 but are not int labels."""
    if type(label) is int:
        return int
    return str if isinstance(label, str) else None


def canonical_ground(labels) -> tuple:
    """Sorted, distinct ground labels; all ints or all strings."""
    labs = list(labels)
    if not labs:
        raise ValueError("empty ground set")
    if len(set(labs)) != len(labs):
        raise ValueError("ground labels are not distinct")
    kinds = {_label_kind(x) for x in labs}
    if len(kinds) != 1 or None in kinds:
        raise ValueError("ground labels must be all ints or all strings")
    return tuple(sorted(labs))


def positional_ground(labels, n: int, unit: str) -> tuple:
    """Labels of n positions (columns, coordinates) that they align with in
    order: n labels, already in canonical order.  The consumer decides
    whether n = 0 is allowed."""
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"ground size does not match {unit} count")
    if labels and canonical_ground(labels) != labels:
        raise ValueError(f"ground must be sorted ({unit}s align positionally)")
    return labels


def _labels(ground: tuple, mask: int) -> tuple:
    return tuple(e for i, e in enumerate(ground) if mask >> i & 1)


class GroundSet:
    """A canonical ground set and the reader of its subsets: a subset lists
    distinct labels of the ground set and is read as a bit mask over it."""

    def __init__(self, ground):
        ground = canonical_ground(ground)     # _write: a record's __post_init__ calls this
        _write(self, "ground", ground)
        _write(self, "_index", {e: i for i, e in enumerate(ground)})
        _write(self, "_kind", _label_kind(ground[0]))

    def mask_of(self, subset) -> int:
        """ValueError on an unknown or unhashable label, one of another kind
        than the ground's (True or 1.0 where the ground has 1), or a
        repeated one."""
        mask = 0
        for e in subset:
            i = self._index.get(e) if _label_kind(e) is self._kind else None
            if i is None:
                raise ValueError(f"unknown element {e!r}")
            bit = 1 << i
            if mask & bit:
                raise ValueError(f"subset {list(subset)} repeats an element")
            mask |= bit
        return mask

    def _sized_mask(self, subset, d: int) -> int:
        """``mask_of(subset)``, refused unless it has d elements."""
        mask = self.mask_of(subset)
        if mask.bit_count() != d:
            raise ValueError(f"subset {sorted(subset)} does not have size {d}")
        return mask

    def labels_of(self, mask: int) -> tuple:
        return _labels(self.ground, mask)


@record
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

@record
class FieldSpec:
    """The field for a linear matroid: the rationals, or GF(p)."""
    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            from . import linalg
            _write(self, "p", linalg.as_prime(self.p))

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


@record
class Matroid(GroundSet):
    """A matroid (E, B) with an explicit basis family: a record, whose
    ``ground``, ``masks`` (read by ``lattice.as_ints``) and rank ``d`` cannot
    be assigned or deleted.  Equality is labelled equality (same ground
    set, same basis family).
    """
    ground: tuple
    masks: frozenset

    def __post_init__(self):
        GroundSet.__init__(self, self.ground)
        ms = frozenset(as_ints(self.masks, "basis mask"))
        if not ms:
            raise ValueError("a matroid needs at least one basis")
        sizes = {m.bit_count() for m in ms}
        if len(sizes) != 1:
            raise ValueError("bases have mixed sizes")
        if any(m >> len(self.ground) for m in ms):
            raise ValueError("basis mask outside ground set")
        _write(self, "masks", ms)
        _write(self, "d", sizes.pop())

    # -- construction ------------------------------------------------------

    @classmethod
    def _on(cls, labelled: GroundSet, masks: frozenset[int], d: int) -> "Matroid":
        """The matroid on the ground set of ``labelled`` whose bases are
        ``masks``, a nonempty frozenset of d-element int masks inside it.
        Nothing is checked or converted again: for families read off an
        object whose ground set is already canonical."""
        M = cls.__new__(cls)
        _write(M, "ground", labelled.ground)
        _write(M, "_index", labelled._index)
        _write(M, "_kind", labelled._kind)
        _write(M, "masks", masks)
        _write(M, "d", d)
        return M

    @classmethod
    def from_bases(cls, ground, bases: Iterable[Iterable]) -> "Matroid":
        """The matroid whose bases are listed; each basis lists distinct
        labels of ``ground`` (ValueError otherwise)."""
        labelled = GroundSet(ground)
        return cls(labelled.ground, [labelled.mask_of(B) for B in bases])

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
        keep = self.labels_of(~(dmask | cmask))
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

    def __repr__(self):
        return f"Matroid(n={len(self.ground)}, d={self.d}, bases={len(self.masks)})"


# ---------------------------------------------------------------------------
# axiom checking

def _single_exchanges(mask: int, n: int):
    """Every (i, j, mask - i + j) with i in mask and j outside it, by
    increasing i, then j."""
    inside = [i for i in range(n) if mask >> i & 1]
    outside = [j for j in range(n) if not mask >> j & 1]
    for i in inside:
        rest = mask & ~(1 << i)
        for j in outside:
            yield i, j, rest | 1 << j


def _components(masks, n: int) -> list[int]:
    """The components of the matroid on n elements with the set of basis
    masks ``masks``, as element masks in order of their least element.
    Union-find over the fundamental graph of one basis B (Krogdahl 1977):
    i in B and j outside it are joined when B - i + j is a basis, and loops
    and coloops stay isolated."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j, other in _single_exchanges(next(iter(masks)), n):
        if other in masks:
            parent[root(i)] = root(j)
    parts: dict[int, int] = {}
    for i in range(n):
        parts[root(i)] = parts.get(root(i), 0) | 1 << i
    return list(parts.values())


def _connected(masks, n: int) -> bool:
    """Is the matroid on n elements with the set of basis masks ``masks``
    connected?"""
    return len(_components(masks, n)) == 1


def _exchange_faces(masks, n: int) -> list[int]:
    """The (d-2)-sets F = B - x - y with B in ``masks``, in lex order of
    their element lists; none when d < 2."""
    bits = lambda m: [i for i in range(n) if m >> i & 1]
    Fs = {B ^ x ^ y for B in masks
          for x, y in itertools.combinations([1 << i for i in range(n) if B >> i & 1], 2)}
    return sorted(Fs, key=bits)


def _face_quads(f: int, n: int):
    """The three pairings ((Fab, Fce), (Fac, Fbe), (Fae, Fbc)) of each 4-set
    a < b < c < e outside F = ``f``, in lex order of the 4-sets."""
    rest = [1 << i for i in range(n) if not f >> i & 1]
    for a, b, c, e in itertools.combinations(rest, 4):
        yield ((f | a | b, f | c | e), (f | a | c, f | b | e), (f | a | e, f | b | c))


def _exchange_quads(masks, n: int):
    """``_face_quads`` of each F of ``_exchange_faces``, in that order.
    Every other quadruple pairs no two of ``masks``."""
    for f in _exchange_faces(masks, n):
        yield from _face_quads(f, n)


def _exchange_component(masks) -> list[int]:
    """The masks of ``masks`` that single exchanges inside it reach from its
    first one, in the order the walk reaches them: the component of that
    basis in the basis graph.  Two d-sets are one exchange apart exactly
    when they share a (d-1)-set, so the walk steps through the (d-1)-sets,
    each once: d steps a mask, not the d(n-d) exchanges of each."""
    through: dict[int, list[int]] = {}
    for B in masks:
        b = B
        while b:
            low = b & -b
            b ^= low
            through.setdefault(B ^ low, []).append(B)
    component = [next(iter(masks))]
    seen = set(component)
    # the loop reads each mask the walk appends: breadth first
    for B in component:
        b = B
        while b:
            low = b & -b
            b ^= low
            for B2 in through.pop(B ^ low, ()):
                if B2 not in seen:
                    seen.add(B2)
                    component.append(B2)
    return component


def _quad_failure(values: dict, triple) -> Optional[tuple]:
    """The pairing (B, B') of an exchange quadruple whose sum is its least
    finite pairing sum and is reached once, or None."""
    sums = [(values[B] + values[B2], B, B2) for B, B2 in triple
            if B in values and B2 in values]
    if sums:
        low = min(sums)
        if sum(s == low[0] for s, _, _ in sums) == 1:
            return low[1:]
    return None


# Quadruple counts from which the three-term rule runs as one numpy pass.
# Measured on valid toric valuations (n 5-13, d 2-6; 2-core machine, Python
# 3.11, numpy 2.4): the loop costs 1.7-2.9 us a quadruple, the pass about
# 40 us plus 0.08 us a quadruple, so with numpy loaded the two cross at
# 15-30 quadruples; in a fresh process importing numpy costs about 55 ms,
# and the loop (2.2-3.2 us a quadruple there) was still faster at 27 720
# quadruples and slower at 34 650.
_WARM_QUADS = 20
_COLD_QUADS = 30_000
# rows of (F, quadruple) per block of the pass: bounds its gathers
_QUAD_BLOCK = 1 << 15


@lru_cache(maxsize=16)
def _quad_layout(k: int):
    """The pairs {i, j} of k positions in lex order, as (first, second), and
    the six pair indices by which each 4-set a < b < c < e, in lex order,
    reads its pairings ab|ce, ac|be, ae|bc."""
    import numpy as np
    first, second = np.triu_indices(k, 1)
    pair = np.zeros((k, k), dtype=np.intp)
    pair[first, second] = np.arange(len(first))
    quads = np.array(list(itertools.combinations(range(k), 4)), dtype=np.intp).reshape(-1, 4)
    a, b, c, e = quads.T
    return first, second, np.stack([pair[a, b], pair[c, e], pair[a, c],
                                    pair[b, e], pair[a, e], pair[b, c]])


def _flagged_quad(values: dict, faces: list[int], n: int, low: int):
    """The first (F, quadruple) row, in ``_exchange_quads``' order, whose
    least finite pairing sum is reached once, as (F, the quadruple's index
    in ``_face_quads(F, n)``), or None.  Values are shifted by ``low``, the
    least one, and the spread must be below 2**62, so that two of them add
    up within int64; finiteness is a mask."""
    import numpy as np
    first, second, six = _quad_layout(n - faces[0].bit_count())
    per_face = six.shape[1]
    keys = sorted(values)
    shifted = np.array([values[m] - low for m in keys], dtype=np.int64)
    keys = np.array(keys, dtype=np.int64)
    fmasks = np.array(faces, dtype=np.int64)
    elements = np.int64(1) << np.arange(n, dtype=np.int64)
    # the k elements outside each F, as bits, in increasing order
    bits = elements[np.nonzero(fmasks[:, None] & elements == 0)[1]].reshape(len(faces), -1)
    # an infinite pairing sum reads as int64's max, above every finite one
    never = np.iinfo(np.int64).max
    block = max(1, _QUAD_BLOCK // per_face)
    for start in range(0, len(faces), block):
        rows = bits[start:start + block]
        sets = fmasks[start:start + block, None] | rows[:, first] | rows[:, second]
        at = np.minimum(np.searchsorted(keys, sets), len(keys) - 1)
        found, vals = keys[at] == sets, shifted[at]
        found, vals = found[:, six], vals[:, six]
        s0, s1, s2 = np.moveaxis(np.where(found[:, 0::2] & found[:, 1::2],
                                          vals[:, 0::2] + vals[:, 1::2], never), 1, 0)
        # one least sum: s2 below min(s0, s1), or above it with s0 != s1
        least = np.minimum(s0, s1)
        flags = (s2 < least) | (s2 > least) & (s0 != s1)
        if flags.any():
            row, q = divmod(int(np.argmax(flags)), per_face)
            return faces[start + row], q
    return None


def _rule_failure(values: dict, n: int) -> Optional[tuple]:
    """The first failure (B, B') of the three-term rule, in
    ``_exchange_quads``' order, or None.  From ``_WARM_QUADS`` quadruples on
    with numpy loaded, and from ``_COLD_QUADS`` on without, ``_flagged_quad``
    finds the quadruple (when n < 63 and the spread is below 2**62) and the
    loop's rule names its pairing."""
    faces = _exchange_faces(values, n)
    k = n - faces[0].bit_count() if faces else 0
    if n < 63 and len(faces) * math.comb(k, 4) >= (
            _WARM_QUADS if "numpy" in sys.modules else _COLD_QUADS):
        low = min(values.values())
        if max(values.values()) - low < 1 << 62:
            flagged = _flagged_quad(values, faces, n, low)
            if flagged is None:
                return None
            f, q = flagged
            return _quad_failure(values, next(itertools.islice(_face_quads(f, n), q, None)))
    for f in faces:
        for triple in _face_quads(f, n):
            pair = _quad_failure(values, triple)
            if pair is not None:
                return pair
    return None


def _exchange_failure(values: dict, ground) -> Optional[tuple]:
    """A witness (B, B', i) against the valuated exchange axiom, or None.

    ``values`` maps d-subset masks to ints; a missing mask is infinite.  The
    local three-term rule (Dress-Wenzel) checks every |B - B'| = 2 exchange:
    the least finite pairing sum of each quadruple must be reached twice.
    With it, the axiom holds exactly when the support is connected under
    single exchanges (Maurer's basis-graph theorem).
    """
    n = len(ground)
    witness = lambda B, B2: (_labels(ground, B), _labels(ground, B2),
                             ground[(B & ~B2).bit_length() - 1])
    pair = _rule_failure(values, n)
    if pair is not None:
        return witness(*pair)
    reached = _exchange_component(values)
    if len(reached) == len(values):
        return None
    # breadth-first over all d-sets from the reached bases finds a closest
    # unreached basis; any working exchange there would give a closer pair
    source = {B: B for B in reached}
    layer = reached
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

    Malformed input raises ValueError: a basis that is not a list of d
    distinct labels of ``ground``.  Axiom failures come back as data with a
    witness.
    """
    labelled, d = GroundSet(ground), as_int(d, "rank")
    masks = [labelled._sized_mask(B, d) for B in bases]
    if not masks:
        return AxiomCheck(False, "B1", None)
    witness = _exchange_failure(dict.fromkeys(masks, 0), labelled.ground)
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
    from . import linalg
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
    d, n = as_int(d, "rank"), as_int(n, "n")
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
