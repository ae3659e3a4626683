"""Matroids from explicit base families, their quasisymmetric invariant, and
the complete rank-two theory: closed formulas, recovery of the isomorphism
class from the invariant, and base polytope splits with vertex-level
certificates.

Ground sets are always [n] = {1, ..., n}; bases are stored as frozensets and
as bitmasks (bit i-1 for element i) for the hot loops.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from . import linalg
from .compositions import (
    as_composition,
    drop_zero_parts,
    partitions,
    reversal,
    weight,
)
from .elements import QSymElement
from .errors import NotDivisibleError, ResourceLimitError, ValidationError
from .posets import DEFAULT_ENUMERATION_LIMIT, LabeledPoset, qsym_of_poset
from .qsym import (
    compositions_of_rank,
    convert,
    divide_by_pure_power,
    in_Vnr,
    nbasis_product,
    supp,
)


def _mask_of(subset):
    m = 0
    for x in subset:
        m |= 1 << (x - 1)
    return m


def _set_of(mask):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def exchange_valid(n, base_masks):
    """Basis exchange axiom on a family of equal-size subsets of [n]."""
    masks = list(base_masks)
    mask_set = set(masks)
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            diff = b1 & ~b2
            into = b2 & ~b1
            e = diff
            while e:
                ebit = e & -e
                e ^= ebit
                removed = b1 ^ ebit
                f = into
                ok = False
                while f:
                    fbit = f & -f
                    f ^= fbit
                    if (removed | fbit) in mask_set:
                        ok = True
                        break
                if not ok:
                    return False
    return True


class Matroid:
    """A matroid on [n] given by its set of bases.

    `Matroid(n, bases)` validates its input, the exchange axiom included.
    `Matroid.from_masks(n, masks)` trusts its caller and builds every
    matroid derived inside the package.
    """

    __slots__ = ("n", "bases", "_masks", "_mask_set")

    def __init__(self, n, bases):
        n = int(n)
        if n < 0:
            raise ValidationError("ground set size must be >= 0")
        base_sets = frozenset(frozenset(int(x) for x in b) for b in bases)
        if not base_sets:
            raise ValidationError("a matroid needs at least one basis")
        sizes = {len(b) for b in base_sets}
        if len(sizes) != 1:
            raise ValidationError("all bases must have the same cardinality")
        for b in base_sets:
            if any(not 1 <= x <= n for x in b):
                raise ValidationError("basis elements must lie in [n]")
        masks = [_mask_of(b) for b in base_sets]
        if not exchange_valid(n, masks):
            raise ValidationError("base family violates the exchange axiom")
        self._fill(n, masks)

    @classmethod
    def from_masks(cls, n, masks):
        """The matroid whose bases are the given bitmasks, unchecked: the
        caller guarantees a nonempty exchange-valid family on [n]."""
        self = cls.__new__(cls)
        self._fill(n, masks)
        return self

    def _fill(self, n, masks):
        masks = tuple(sorted(set(masks)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", frozenset(_set_of(m) for m in masks))
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_mask_set", frozenset(masks))

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    @classmethod
    def uniform(cls, r, n):
        if not 0 <= r <= n:
            raise ValidationError("uniform matroid needs 0 <= r <= n")
        return cls.from_masks(n, [_mask_of(c) for c in combinations(range(1, n + 1), r)])

    # -- basic structure

    @property
    def rank(self):
        return len(next(iter(self.bases)))

    def loops(self):
        union = 0
        for m in self._masks:
            union |= m
        return _set_of(((1 << self.n) - 1) & ~union)

    def coloops(self):
        inter = (1 << self.n) - 1
        for m in self._masks:
            inter &= m
        return _set_of(inter)

    def dual(self):
        full = (1 << self.n) - 1
        return Matroid.from_masks(self.n, [full & ~m for m in self._masks])

    def direct_sum(self, other):
        return Matroid.from_masks(
            self.n + other.n,
            [m1 | m2 << self.n for m1 in self._masks for m2 in other._masks],
        )

    def _subset_rank(self, mask):
        return max(bin(b & mask).count("1") for b in self._masks)

    def _subset_mask(self, subset, operation):
        elements = [int(x) for x in subset]
        if any(not 1 <= x <= self.n for x in elements):
            raise ValidationError(f"{operation} subset must lie in [n]")
        return _mask_of(elements)

    def _minor(self, subset, kept):
        """The minor on the elements of the mask `kept`, relabeled
        order-preservingly onto [|kept|].  Its bases are the traces on `kept`
        of the bases that meet the mask `subset` in as many elements as the
        rank of `subset`."""
        r = self._subset_rank(subset)
        bits = [1 << i for i in range(self.n) if kept >> i & 1]
        masks = []
        for b in self._masks:
            if bin(b & subset).count("1") == r:
                masks.append(sum(1 << j for j, bit in enumerate(bits) if b & bit))
        return Matroid.from_masks(len(bits), masks)

    def restriction(self, subset):
        """Restriction to a subset, relabeled order-preservingly onto [|A|]."""
        amask = self._subset_mask(subset, "restriction")
        return self._minor(amask, amask)

    def contraction(self, subset):
        """Contraction of a subset, remaining elements relabeled onto [n-|A|]."""
        amask = self._subset_mask(subset, "contraction")
        return self._minor(amask, ((1 << self.n) - 1) & ~amask)

    def independent_masks(self):
        seen = set()
        stack = list(self._masks)
        while stack:
            m = stack.pop()
            if m in seen:
                continue
            seen.add(m)
            mm = m
            while mm:
                bit = mm & -mm
                mm ^= bit
                if (m ^ bit) not in seen:
                    stack.append(m ^ bit)
        return seen

    def circuits(self):
        """Minimal dependent subsets."""
        independent = self.independent_masks()
        out = []
        for mask in range(1, 1 << self.n):
            if mask in independent:
                continue
            mm = mask
            minimal = True
            while mm:
                bit = mm & -mm
                mm ^= bit
                if (mask ^ bit) not in independent:
                    minimal = False
                    break
            if minimal:
                out.append(_set_of(mask))
        return frozenset(out)

    def components(self):
        """Classes of the relation 'both elements lie in a common circuit'."""
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for circuit in self.circuits():
            members = sorted(circuit)
            for a, b in zip(members, members[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        groups = {}
        for x in range(1, self.n + 1):
            groups.setdefault(find(x), []).append(x)
        return tuple(
            frozenset(g) for g in sorted(groups.values(), key=lambda g: g[0])
        )

    def is_connected(self):
        return len(self.components()) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self._mask_set == other._mask_set
        )

    def __hash__(self):
        return hash((self.n, self._mask_set))

    def __repr__(self):
        return f"Matroid(n={self.n}, bases={sorted(sorted(b) for b in self.bases)})"

    def to_json(self):
        return {"n": self.n, "bases": sorted(sorted(b) for b in self.bases)}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "n" not in data or "bases" not in data:
            raise ValidationError("matroid JSON needs 'n' and 'bases'")
        return cls(int(data["n"]), [frozenset(b) for b in data["bases"]])


def uniform(r, n):
    return Matroid.uniform(r, n)


# ---------------------------------------------------------------------------
# the base poset and the invariant


def base_poset(matroid, basis):
    """The exchange poset of a basis, strictly labeled.

    Base elements become the minimal elements and receive the top labels
    n-r+1..n in ascending ground-element order; cobase elements receive
    1..n-r the same way.  An exchangeable pair gives a cover from the base
    label up to the cobase label.
    """
    basis = frozenset(basis)
    if basis not in matroid.bases:
        raise ValidationError("not a basis of the matroid")
    n = matroid.n
    base_sorted = sorted(basis)
    cob_sorted = [x for x in range(1, n + 1) if x not in basis]
    label = {}
    for i, x in enumerate(cob_sorted):
        label[x] = i + 1
    for i, x in enumerate(base_sorted):
        label[x] = len(cob_sorted) + i + 1
    bmask = _mask_of(basis)
    relations = []
    for b in base_sorted:
        removed = bmask ^ (1 << (b - 1))
        for c in cob_sorted:
            if (removed | (1 << (c - 1))) in matroid._mask_set:
                relations.append((label[b], label[c]))
    return LabeledPoset(range(1, n + 1), relations)


def _basis_type_counts(base_mask, cobase_partners):
    """Type multiset of the alternating block interleavings of one basis.

    cobase_partners maps each cobase bit to the mask of base elements it can
    exchange into.  A cobase block may be placed only once all its partners
    are placed; blocks strictly alternate sides starting with the base side.
    Returns a dict from type composition to count.
    """
    counts = {}
    cob_bits = sorted(cobase_partners)
    full_cob = 0
    for bit in cob_bits:
        full_cob |= bit

    def rec(rem_base, rem_cob, base_side, sizes):
        if not rem_base and not rem_cob:
            typ = tuple(sizes)
            counts[typ] = counts.get(typ, 0) + 1
            return
        if base_side:
            if not rem_base:
                return
            sub = rem_base
            while sub:
                sizes.append(bin(sub).count("1"))
                rec(rem_base & ~sub, rem_cob, False, sizes)
                sizes.pop()
                sub = (sub - 1) & rem_base
        else:
            if not rem_cob:
                return
            avail = 0
            for bit in cob_bits:
                if rem_cob & bit and not (cobase_partners[bit] & rem_base):
                    avail |= bit
            sub = avail
            while sub:
                sizes.append(bin(sub).count("1"))
                rec(rem_base, rem_cob & ~sub, True, sizes)
                sizes.pop()
                sub = (sub - 1) & avail

    rec(base_mask, full_cob, True, [])
    return counts


def qsym_of_matroid(matroid, limit=DEFAULT_ENUMERATION_LIMIT, method="fast"):
    """The invariant of a matroid in the N basis.

    The fast path interleaves base and cobase blocks of each exchange poset
    directly; the extensions path sums the poset generating function over
    full linear extension enumeration and converts, and is kept as an
    independent oracle.
    """
    if matroid.n > limit:
        raise ResourceLimitError(
            f"matroid on {matroid.n} elements exceeds enumeration limit {limit}"
        )
    if method == "extensions":
        total = QSymElement.zero("L")
        for basis in matroid.bases:
            total = total + qsym_of_poset(base_poset(matroid, basis), limit)
        return convert(total, "N")
    if method != "fast":
        raise ValidationError(f"unknown method {method!r}")
    if matroid.n == 0:
        return QSymElement.one("N")
    loops = matroid.loops()
    if loops:
        nonloops = [x for x in range(1, matroid.n + 1) if x not in loops]
        stripped = matroid.restriction(nonloops)
        inner = qsym_of_matroid(stripped, limit, "fast")
        return nbasis_product(inner, QSymElement.single("N", (len(loops),)))
    full = (1 << matroid.n) - 1
    acc = {}
    for bmask in matroid._masks:
        cob = full & ~bmask
        partners = {}
        c = cob
        while c:
            cbit = c & -c
            c ^= cbit
            pmask = 0
            b = bmask
            while b:
                bbit = b & -b
                b ^= bbit
                if ((bmask ^ bbit) | cbit) in matroid._mask_set:
                    pmask |= bbit
            partners[cbit] = pmask
        for typ, count in _basis_type_counts(bmask, partners).items():
            acc[typ] = acc.get(typ, 0) + count
    return QSymElement("N", acc)


def loops_coloops_from_qsym(element):
    """Total loop and coloop count read off the N-basis support."""
    best = 0
    for comp in supp(element):
        if len(comp) % 2 == 1 and comp and comp[-1] > best:
            best = comp[-1]
    return best


# ---------------------------------------------------------------------------
# rank-two building blocks


def T_vec(n, k):
    """(1/2) N_(2,n-2) plus binomial(k-1, j) N_(1,j,1,n-2-j) summed over j >= 1."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValidationError("T vector needs n >= 2 and 1 <= k <= n-1")
    terms = {drop_zero_parts((2, n - 2)): Fraction(1, 2)}
    for j in range(1, k):
        c = comb(k - 1, j)
        if c:
            key = drop_zero_parts((1, j, 1, n - 2 - j))
            terms[key] = terms.get(key, 0) + c
    return QSymElement("N", terms)


def U_vec(n, k):
    return T_vec(n, k).scale(k * (n - k))


def Ubar_vec(n, k):
    """U below the midpoint, zero at it, minus the reflected U above it."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValidationError("Ubar vector needs n >= 2 and 1 <= k <= n-1")
    if 2 * k < n:
        return U_vec(n, k)
    if 2 * k == n:
        return QSymElement.zero("N")
    return U_vec(n, n - k).scale(-1)


def _check_partition(lam, min_parts=2):
    lam = as_composition(lam)
    if list(lam) != sorted(lam, reverse=True):
        raise ValidationError("partition parts must be weakly decreasing")
    if len(lam) < min_parts:
        raise ValidationError(f"partition needs at least {min_parts} parts")
    return lam


def rank2_qsym(lam):
    """Invariant of the loopless rank-two class of a partition: sum of U vectors."""
    lam = _check_partition(lam)
    n = weight(lam)
    total = QSymElement.zero("N")
    for part in lam:
        total = total + U_vec(n, part)
    return total


def rank2_matroid_from_blocks(blocks):
    """Rank-two matroid whose bases are the pairs across distinct blocks."""
    blocks = [b for b in map(frozenset, blocks) if b]
    if len(blocks) < 2:
        raise ValidationError("need at least two parallelism classes")
    elements = sorted(x for b in blocks for x in b)
    n = len(elements)
    if elements != list(range(1, n + 1)):
        raise ValidationError("blocks must partition [n]")
    masks = [
        (1 << (x - 1)) | (1 << (y - 1))
        for i, bi in enumerate(blocks)
        for bj in blocks[i + 1 :]
        for x in bi
        for y in bj
    ]
    return Matroid.from_masks(n, masks)


def _interval_blocks(sizes):
    blocks = []
    start = 1
    for size in sizes:
        blocks.append(frozenset(range(start, start + size)))
        start += size
    return tuple(blocks)


def rank2_from_partition(lam):
    """Canonical representative: consecutive interval blocks, largest first."""
    lam = _check_partition(lam)
    return rank2_matroid_from_blocks(_interval_blocks(lam))


@dataclass(frozen=True)
class RankTwoClass:
    """A loopless rank-two isomorphism class, optionally with a concrete
    block assignment on [n] (blocks sorted by size, largest first)."""

    lam: tuple
    blocks: tuple = None

    @classmethod
    def from_blocks(cls, blocks):
        blocks = tuple(
            sorted((frozenset(b) for b in blocks), key=lambda b: (-len(b), min(b)))
        )
        return cls(tuple(len(b) for b in blocks), blocks)

    @property
    def n(self):
        return weight(self.lam)

    def matroid(self):
        blocks = self.blocks if self.blocks is not None else _interval_blocks(self.lam)
        return rank2_matroid_from_blocks(blocks)

    def to_json(self):
        out = {"lambda": list(self.lam)}
        if self.blocks is not None:
            out["blocks"] = [sorted(b) for b in self.blocks]
        return out


@dataclass(frozen=True)
class SplitCertificate:
    """A hyperplane split record: the subset S with the two halfspace sides.

    child_le collects the parent bases B with |B & S| <= 1 and child_ge
    those with |B & S| >= 1; their common bases are exactly the equality
    set |B & S| == 1.
    """

    subset: frozenset
    parent: RankTwoClass
    child_le: RankTwoClass
    child_ge: RankTwoClass

    def to_json(self):
        return {
            "S": sorted(self.subset),
            "parent": self.parent.to_json(),
            "children": [self.child_le.to_json(), self.child_ge.to_json()],
        }


@dataclass(frozen=True)
class SplitResult:
    alpha: tuple
    beta: tuple
    mu: tuple
    certificate: SplitCertificate

    def to_json(self):
        return {
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "mu": list(self.mu),
            "certificate": self.certificate.to_json(),
        }


def split(lam_comp, s):
    """Split a rank-two class at position s of a composition arrangement.

    With a the sum of the first s parts and b the rest, the class of the
    composition equals the union of the classes (a, tail...) and
    (head..., b) glued along (a, b); the certificate records the hyperplane
    subset S = {1..a} on the interval representative.
    """
    lam_comp = as_composition(lam_comp)
    if len(lam_comp) < 2:
        raise ValidationError("splitting needs at least two parts")
    if not 1 <= s < len(lam_comp):
        raise ValidationError(f"split position must satisfy 1 <= s < {len(lam_comp)}")
    a = sum(lam_comp[:s])
    b = sum(lam_comp[s:])
    alpha = (a,) + lam_comp[s:]
    beta = lam_comp[:s] + (b,)
    mu = (a, b)
    parent_blocks = _interval_blocks(lam_comp)
    subset = frozenset(range(1, a + 1))
    le_blocks = (subset,) + parent_blocks[s:]
    ge_blocks = parent_blocks[:s] + (frozenset(range(a + 1, a + b + 1)),)
    cert = SplitCertificate(
        subset=subset,
        parent=RankTwoClass.from_blocks(parent_blocks),
        child_le=RankTwoClass.from_blocks(le_blocks),
        child_ge=RankTwoClass.from_blocks(ge_blocks),
    )
    return SplitResult(alpha=alpha, beta=beta, mu=mu, certificate=cert)


def full_split_to_length3(lam):
    """Repeatedly split a partition with more than three parts into
    length-three partitions (m - 2 of them for m parts)."""
    lam = _check_partition(lam, min_parts=3)
    if len(lam) == 3:
        return (lam,)
    out = []
    current = lam
    while len(current) > 3:
        res = split(current, 2)
        out.append(tuple(sorted(res.beta, reverse=True)))
        current = tuple(sorted(res.alpha, reverse=True))
    out.append(current)
    return tuple(out)


# ---------------------------------------------------------------------------
# U coordinates, the quotient modulo products, and recovery


def u_coordinates(element):
    """Coordinates of a homogeneous member of the rank-two span over the U
    vectors; returns (n, tuple of n-1 Fractions)."""
    q = convert(element, "N")
    if not q:
        raise ValidationError("the zero element has no U coordinates")
    n = q.degree()
    if n < 2 or not in_Vnr(q, n, 2):
        raise ValidationError("element does not lie in the rank-two span")
    rows = compositions_of_rank(n, 2)
    row_index = {c: i for i, c in enumerate(rows)}
    columns = []
    for k in range(1, n):
        col = [Fraction(0)] * len(rows)
        for comp, coeff in U_vec(n, k).terms.items():
            col[row_index[comp]] = Fraction(coeff)
        columns.append(col)
    target = [Fraction(q.terms.get(c, 0)) for c in rows]
    solution = linalg.solve_columns(columns, target)
    if solution is None:
        raise ValidationError("element does not lie in the span of the U vectors")
    return n, tuple(solution)


def mod_m2(element):
    """Class of a rank-two-span element modulo products: coordinates on the
    Ubar vectors indexed by 1 <= k < n/2."""
    n, t = u_coordinates(element)
    return {k: t[k - 1] - t[n - k - 1] for k in range(1, (n + 1) // 2) if 2 * k != n}


def ubar_coordinates_of_partition(lam):
    """Closed-form Ubar coordinates of a rank-two class."""
    lam = _check_partition(lam)
    n = weight(lam)
    coords = {k: Fraction(0) for k in range(1, (n + 1) // 2) if 2 * k != n}
    for part in lam:
        if 2 * part < n:
            coords[part] += 1
        elif 2 * part > n:
            coords[n - part] -= 1
    return coords


@dataclass(frozen=True)
class RankTwoRecovery:
    """Result of reading a rank-two matroid back off its invariant.

    lam is the partition indexing the loopless part (a partition of
    n - loops), so the matroid is that class plus the stated loops; the
    coloop count is determined by lam's singleton parts.
    """

    n: int
    loops: int
    coloops: int
    lam: tuple
    case: str = "no-coloops"

    def to_json(self):
        return {
            "n": self.n,
            "loops": self.loops,
            "coloops": self.coloops,
            "case": self.case,
            "lambda": list(self.lam),
        }


def recover_rank2(element):
    """Recover (loops, coloops, partition) from the invariant of a rank-two
    matroid, validating the reconstruction exactly."""
    q = convert(element, "N")
    if not q:
        raise ValidationError("not a rank-two invariant: zero element")
    degs = q.degrees()
    if len(degs) != 1:
        raise ValidationError("not a rank-two invariant: mixed degrees")
    n = degs[0]
    if n < 2:
        raise ValidationError("not a rank-two invariant: degree below two")
    c = loops_coloops_from_qsym(q)
    if c == n:
        if q != QSymElement.single("N", (n,)):
            raise ValidationError("not a rank-two invariant")
        return RankTwoRecovery(
            n=n, loops=n - 2, coloops=2, lam=(1, 1), case="two-coloops-plus-loops"
        )
    try:
        reduced = divide_by_pure_power(q, c) if c else q
    except NotDivisibleError as exc:
        raise ValidationError(f"not a rank-two invariant: {exc}") from exc
    m = n - c
    if in_Vnr(reduced, m, 1):
        expected = QSymElement.single("N", drop_zero_parts((1, m - 1)), m)
        if c == 0 or m < 2 or reduced != expected:
            raise ValidationError("not a rank-two invariant")
        return RankTwoRecovery(
            n=n, loops=c - 1, coloops=1, lam=(m, 1), case="one-coloop"
        )
    if not in_Vnr(reduced, m, 2):
        raise ValidationError("not a rank-two invariant")
    _, t = u_coordinates(reduced)
    parts = []
    for k in range(1, m):
        tk = t[k - 1]
        if tk < 0 or Fraction(tk).denominator != 1:
            raise ValidationError("not a rank-two invariant")
        parts.extend([k] * int(tk))
    lam = tuple(sorted(parts, reverse=True))
    if len(lam) < 2 or weight(lam) != m or rank2_qsym(lam) != reduced:
        raise ValidationError("not a rank-two invariant")
    return RankTwoRecovery(n=n, loops=c, coloops=0, lam=lam, case="no-coloops")


def recover_rank2_modm2(coords, n):
    """Recover a partition with at least three parts from its Ubar class.

    Positive coordinates give parts below n/2, negative ones give the
    reflected parts above n/2, and a single missing part equal to n/2 is
    restored from the weight.
    """
    parts = []
    seen = dict(coords)
    for k in range(1, (n + 1) // 2):
        if 2 * k == n:
            continue
        value = Fraction(seen.pop(k, 0))
        if value.denominator != 1:
            raise ValidationError("inconsistent coordinates: non-integer entry")
        value = int(value)
        if value >= 0:
            parts.extend([k] * value)
        else:
            parts.extend([n - k] * (-value))
    if any(v for v in seen.values()):
        raise ValidationError("inconsistent coordinates: unknown index")
    missing = n - sum(parts)
    if missing:
        if n % 2 == 0 and missing == n // 2:
            parts.append(n // 2)
        else:
            raise ValidationError("inconsistent coordinates: weight mismatch")
    lam = tuple(sorted(parts, reverse=True))
    if len(lam) < 3:
        raise ValidationError("inconsistent coordinates: fewer than three parts")
    return lam


# ---------------------------------------------------------------------------
# geometric decompositions of rank-two base polytopes


@dataclass(frozen=True)
class GeomDecomposition:
    root: RankTwoClass
    representatives: tuple
    splits: tuple
    verified: bool

    def to_json(self):
        return {
            "root": self.root.to_json(),
            "representatives": [r.to_json() for r in self.representatives],
            "splits": [s.to_json() for s in self.splits],
            "verified": self.verified,
        }


def _find_matching_pair(items, n):
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            for k in sorted(set(items[i][1])):
                if 1 < k < n - 1 and (n - k) in items[j][1]:
                    return i, j, k
    return None


def _split_representative(tau_rep, mu, nu, k, n):
    """Invert one merge: carve the representative of the merged class into
    representatives of mu (keeps a block of size k) and nu (size n-k)."""
    mu_minus = list(mu)
    mu_minus.remove(k)
    nu_minus = list(nu)
    nu_minus.remove(n - k)
    available = list(tau_rep.blocks)
    mu_origin = []
    for size in sorted(mu_minus, reverse=True):
        idx = next(i for i, b in enumerate(available) if len(b) == size)
        mu_origin.append(available.pop(idx))
    nu_origin = available
    if sorted(map(len, nu_origin), reverse=True) != sorted(nu_minus, reverse=True):
        raise ValidationError("merged class does not match the pair being split")
    s_subset = frozenset(x for b in mu_origin for x in b)
    merged_for_mu = frozenset(x for b in nu_origin for x in b)
    mu_rep = RankTwoClass.from_blocks(tuple(mu_origin) + (merged_for_mu,))
    nu_rep = RankTwoClass.from_blocks(tuple(nu_origin) + (s_subset,))
    cert = SplitCertificate(
        subset=s_subset, parent=tau_rep, child_le=nu_rep, child_ge=mu_rep
    )
    return mu_rep, nu_rep, cert


def _class_equation_holds(lam, members):
    """True iff the Ubar classes of the members sum to the class of lam."""
    target = ubar_coordinates_of_partition(lam)
    total = {k: Fraction(0) for k in target}
    for m in members:
        for k, v in ubar_coordinates_of_partition(m).items():
            total[k] += v
    return total == target


def geom_decompose(lam, members):
    """Realize a class equation as an actual base polytope decomposition.

    Given a partition with at least three parts and a multiset of such
    partitions whose Ubar classes sum to its class, produce concrete block
    assignments on [n] whose polytopes decompose the canonical interval
    representative, together with the split certificates, verified at the
    vertex level.
    """
    lam = _check_partition(lam, min_parts=3)
    n = weight(lam)
    members = [(_check_partition(m, min_parts=3)) for m in members]
    if any(weight(m) != n for m in members):
        raise ValidationError("all partitions must have the same weight")
    if not _class_equation_holds(lam, members):
        raise ValidationError("class equation fails modulo products")
    items = [(i, m) for i, m in enumerate(members)]
    next_id = len(members)
    events = []
    while len(items) > 1:
        found = _find_matching_pair(items, n)
        if found is None:
            raise ValidationError("no matching pair; the class equation is not valid")
        i, j, k = found
        id_mu, mu = items[i]
        id_nu, nu = items[j]
        merged = list(mu) + list(nu)
        merged.remove(k)
        merged.remove(n - k)
        tau = tuple(sorted(merged, reverse=True))
        events.append((id_mu, id_nu, next_id, k, mu, nu, tau))
        items = [it for idx, it in enumerate(items) if idx not in (i, j)]
        items.append((next_id, tau))
        next_id += 1
    final_id, final = items[0]
    if final != lam:
        raise ValidationError("class equation does not reduce to the target class")
    root = RankTwoClass.from_blocks(_interval_blocks(lam))
    reps = {final_id: root}
    certs = []
    for id_mu, id_nu, id_tau, k, mu, nu, tau in reversed(events):
        tau_rep = reps.pop(id_tau)
        mu_rep, nu_rep, cert = _split_representative(tau_rep, mu, nu, k, n)
        reps[id_mu] = mu_rep
        reps[id_nu] = nu_rep
        certs.append(cert)
    representatives = tuple(reps[i] for i in range(len(members)))
    ok, _reason = verify_polytope_decomposition(
        root.matroid(), [r.matroid() for r in representatives], certs
    )
    return GeomDecomposition(
        root=root,
        representatives=representatives,
        splits=tuple(certs),
        verified=ok,
    )


def verify_polytope_decomposition(parent, parts, certificates):
    """Vertex and halfspace level checks of a decomposition.

    Checks that the parts' bases cover the parent's bases from inside, that
    every recorded split puts exactly the <=1 and >=1 halfspace bases on its
    two sides with the equality set as intersection, and that every pairwise
    intersection of parts satisfies the exchange axiom.  Returns (ok,
    reason) with reason None on success.
    """
    parent_bases = parent.bases
    union = set()
    for i, part in enumerate(parts):
        if part.n != parent.n:
            return False, f"part {i} lives on a different ground set"
        if not part.bases <= parent_bases:
            return False, f"part {i} has a basis outside the parent"
        union |= part.bases
    if union != parent_bases:
        return False, "parts do not cover all parent bases"
    for idx, cert in enumerate(certificates):
        cert_parent = cert.parent.matroid()
        le_expected = {b for b in cert_parent.bases if len(b & cert.subset) <= 1}
        ge_expected = {b for b in cert_parent.bases if len(b & cert.subset) >= 1}
        if cert.child_le.matroid().bases != le_expected:
            return False, f"split {idx}: <=1 side mismatch"
        if cert.child_ge.matroid().bases != ge_expected:
            return False, f"split {idx}: >=1 side mismatch"
        equality = {b for b in cert_parent.bases if len(b & cert.subset) == 1}
        if le_expected & ge_expected != equality:
            return False, f"split {idx}: intersection is not the equality set"
        if not exchange_valid(parent.n, [_mask_of(b) for b in equality]):
            return False, f"split {idx}: equality set is not a matroid"
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            common = parts[i].bases & parts[j].bases
            if common and not exchange_valid(parent.n, [_mask_of(b) for b in common]):
                return False, f"parts {i} and {j} intersect in a non-matroid"
    return True, None


def polytope_dim(matroid):
    """Dimension of the base polytope: n minus the number of components."""
    return matroid.n - len(matroid.components())


def polytope_edge(matroid, basis1, basis2):
    """True iff the two bases differ by a single exchange."""
    b1, b2 = frozenset(basis1), frozenset(basis2)
    if b1 not in matroid.bases or b2 not in matroid.bases:
        raise ValidationError("both arguments must be bases")
    return len(b1 ^ b2) == 2


# ---------------------------------------------------------------------------
# the semigroup of classes modulo products


def hilbert_basis_check(n):
    """Check that the length-three classes generate minimally.

    Verifies (a) length-three classes are pairwise distinct, (b) none is a
    sum of two or more classes, using the linear functional sending the
    k-th Ubar vector to n/2 - k, under which every class of a length-m
    partition takes the value (m-2) n/2, so any sum of at least two
    generators is too large; multisets of two and three generators are also
    searched explicitly, and (c) every longer class decomposes into
    length-three classes by repeated splitting.
    """
    if n < 3:
        raise ValidationError("the semigroup check needs n >= 3")
    gens = [lam for lam in partitions(n, min_parts=3) if len(lam) == 3]
    vectors = {lam: ubar_coordinates_of_partition(lam) for lam in gens}

    def as_tuple(vec):
        return tuple(vec[k] for k in sorted(vec))

    distinct = len({as_tuple(v) for v in vectors.values()}) == len(gens)

    def functional(vec):
        return sum((Fraction(n, 2) - k) * v for k, v in vec.items())

    phi = {lam: functional(vectors[lam]) for lam in gens}
    min_phi = min(phi.values()) if phi else Fraction(0)
    target_phi = Fraction(n, 2)
    bound = int(target_phi / min_phi) if min_phi > 0 else None
    indecomposable = bound == 1
    found_sum = None
    for size in (2, 3):
        for combo in combinations_with_replacement(gens, size):
            total = {}
            for lam in combo:
                for k, v in vectors[lam].items():
                    total[k] = total.get(k, Fraction(0)) + v
            for lam in gens:
                if as_tuple({k: total.get(k, Fraction(0)) for k in vectors[lam]}) == as_tuple(vectors[lam]):
                    found_sum = (lam, combo)
                    indecomposable = False
    longer = [lam for lam in partitions(n, min_parts=4)]
    decompositions = {}
    all_decompose = True
    for lam in longer:
        parts3 = full_split_to_length3(lam)
        ok = _class_equation_holds(lam, parts3)
        all_decompose = all_decompose and ok
        decompositions[lam] = {"summands": [list(m) for m in parts3], "valid": ok}
    return {
        "n": n,
        "generators": [list(g) for g in gens],
        "pairwise_distinct": distinct,
        "indecomposable": indecomposable,
        "sum_bound": bound,
        "counterexample": found_sum,
        "longer_classes_decompose": all_decompose,
        "decompositions": {str(list(k)): v for k, v in decompositions.items()},
        "passed": distinct and indecomposable and all_decompose,
    }


# ---------------------------------------------------------------------------
# duality


def duality_check(matroid, limit=DEFAULT_ENUMERATION_LIMIT):
    """Compare the invariant of the dual with the part-reversal transforms.

    The monomial-basis reversal always holds; the N-basis reversal needs a
    loopless and coloop-free matroid (the precondition flag records this and
    the check is still evaluated).  For loopless matroids the rank-space
    shift of the dual is checked as well.
    """
    f = qsym_of_matroid(matroid, limit)
    fd = qsym_of_matroid(matroid.dual(), limit)
    fm = convert(f, "M")
    fdm = convert(fd, "M")
    monomial_holds = fdm.terms == {reversal(c): v for c, v in fm.terms.items()}
    nbasis_holds = fd.terms == {reversal(c): v for c, v in f.terms.items()}
    loops = len(matroid.loops())
    coloops = len(matroid.coloops())
    vshift_holds = None
    if loops == 0:
        vshift_holds = in_Vnr(fd, matroid.n, matroid.n - matroid.rank + coloops)
    return {
        "monomial_holds": monomial_holds,
        "nbasis_holds": nbasis_holds,
        "nbasis_precondition_ok": loops == 0 and coloops == 0,
        "vshift_holds": vshift_holds,
    }


# ---------------------------------------------------------------------------
# sampling


def sample_loopless_matroid(rng, n, max_deletions=None):
    """Random exchange-valid loopless matroid on [n].

    Starts from a uniform matroid of random positive rank and deletes random
    bases one at a time, keeping a deletion only if the family stays
    exchange-valid and loopless.
    """
    if n < 1:
        raise ValidationError("sampling needs n >= 1")
    r = rng.randint(1, max(1, n - 1)) if n > 1 else 1
    masks = Matroid.uniform(r, n)._masks
    full = (1 << n) - 1
    goal = rng.randint(0, len(masks) - 1)
    if max_deletions is not None:
        goal = min(goal, max_deletions)
    order = list(masks)
    rng.shuffle(order)
    current = set(masks)
    deleted = 0
    for candidate in order:
        if deleted >= goal or len(current) == 1:
            break
        trial = current - {candidate}
        union = 0
        for m in trial:
            union |= m
        if union != full:
            continue
        if exchange_valid(n, trial):
            current = trial
            deleted += 1
    return Matroid.from_masks(n, current)
