"""Pairings, partial pairings, and the wiring permutations of moment diagrams.

A pairing is a fixed-point-free involution of {0, ..., 2m-1}, i.e. a perfect
matching; these index orthogonal-group moment sums.  Moment diagrams for the
p-th trace moment of r channel copies carry 2pr wire endpoints, addressed by
triples (copy i, channel x, side L/R) and flattened as

    index = ((i * r) + x) * 2 + side,      side: L = 0, R = 1.

Two pairings of the same points form a two-matching graph whose components
are alternating cycles.  coset_type walks them once; its half-lengths, a
partition of m, are the coset type of the pair, and the component count and
the Moebius coefficient are read from it.  The type is all that Gram and
Weingarten entries depend on; coset_types tabulates it for every pair at once.

Partial pairings (sets of disjoint pairs, possibly leaving singletons) index
the dominant terms of the large-dimension expansion and the asymptotic
operator family.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EnumerationLimitError, ValidationError, checked_index

PAIRING_HALF_SIZE_CAP = 6        # largest m whose pairings of 2m points are enumerated
PAIR_LISTING_HALF_SIZE_CAP = 5   # largest m whose (2m-1)!!^2 pairs of pairings are listed: 893025, 1.08e8 at m = 6
PARTIAL_PAIRING_CAP = 8          # largest ground set for partial pairings
TRANSVERSE_BRUTE_CAP = 5         # largest q = pr for transverse brute force

SIDE_L = 0
SIDE_R = 1


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., N-1} stored as its image array."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValidationError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self∘other, i.e. apply other first."""
        if other.size != self.size:
            raise ValidationError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())


@dataclass(frozen=True)
class Pairing(Permutation):
    """A fixed-point-free involution (perfect matching) of an even ground set."""

    def __post_init__(self):
        super().__post_init__()
        for i, j in enumerate(self.images):
            if j == i or self.images[j] != i:
                raise ValidationError(f"not a fixed-point-free involution: {self.images}")

    @classmethod
    def from_pairs(cls, pairs, size: int | None = None) -> "Pairing":
        pairs = [tuple(p) for p in pairs]
        if size is None:
            size = 2 * len(pairs)
        if any(len(pair) != 2 for pair in pairs):
            raise ValidationError(f"pairs need two entries each: {tuple(pairs)}")
        images = list(range(size))
        try:
            for a, b in pairs:
                images[a], images[b] = b, a
        except IndexError:
            raise ValidationError(f"pair entries outside 0..{size - 1}: {tuple(pairs)}") from None
        return cls(tuple(images))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The matching as a sorted tuple of (low, high) pairs."""
        return tuple((i, self.images[i]) for i in range(self.size) if i < self.images[i])

    def pair_list(self) -> list[list[int]]:
        """JSON-friendly sorted pair list, e.g. [[0, 1], [2, 3]]."""
        return [list(p) for p in self.pairs]


@dataclass(frozen=True)
class PartialPairing:
    """A set of disjoint pairs on {0, ..., n_points-1}; unpaired points are singles."""

    n_points: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", norm)
        support = [i for p in norm for i in p]
        if len(set(support)) != len(support):
            raise ValidationError(f"pairs are not disjoint: {norm}")
        if support and (min(support) < 0 or max(support) >= self.n_points):
            raise ValidationError(f"pair entries outside 0..{self.n_points - 1}: {norm}")

    @property
    def singles(self) -> tuple[int, ...]:
        support = {i for p in self.pairs for i in p}
        return tuple(i for i in range(self.n_points) if i not in support)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def is_maximal(self) -> bool:
        return self.n_pairs == self.n_points // 2

    def contains(self, other: "PartialPairing") -> bool:
        return set(other.pairs) <= set(self.pairs)

    def sub_blocks(self) -> list["PartialPairing"]:
        """Every partial pairing contained in this one, by pair count, then in combinations order."""
        sizes = range(self.n_pairs + 1)
        return [PartialPairing(self.n_points, sub) for j in sizes for sub in itertools.combinations(self.pairs, j)]

    def sort_key(self):
        return (self.n_pairs, self.pairs)


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = number of pairings of 2m points."""
    return math.prod(range(1, 2 * m, 2))


PAIRING_ENUMERATION_CAP = double_factorial_odd(PAIRING_HALF_SIZE_CAP)  # 10395 pairings at m = 6


def catalan(p: int) -> int:
    return math.comb(2 * p, p) // (p + 1)


def _check_pairing_count(m: int) -> None:
    if checked_index(m, "m", 1) > PAIRING_HALF_SIZE_CAP:
        raise EnumerationLimitError(
            f"enumerating pairings of 2m={2 * m} points needs {double_factorial_odd(m)} pairings, "
            f"above cap {PAIRING_ENUMERATION_CAP}"
        )


def enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    """All pairings of {0, ..., 2m-1} in smallest-unmatched-element-first order.

    The first pairing is the identity pairing {(0, 1), (2, 3), ...}.  Cached
    per m; every call returns the same tuple.
    """
    _check_pairing_count(m)
    return _enumerate_pairings(m)


# The recursive enumerations (_matchings, _partitions_below, _partial_matchings)
# are module-level generators: a nested recursive closure refers to itself, and
# each call would leave that reference cycle to the cyclic collector.
def _matchings(points):
    """Perfect matchings of the points as pair tuples, the first point's partner ascending."""
    if not points:
        yield ()
        return
    a = points[0]
    for idx in range(1, len(points)):
        b = points[idx]
        rest = points[1:idx] + points[idx + 1:]
        for sub in _matchings(rest):
            yield ((a, b),) + sub


@lru_cache(maxsize=None)  # one entry per m <= 6 under the enumeration cap
def _enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    return tuple(Pairing.from_pairs(p, 2 * m) for p in _matchings(tuple(range(2 * m))))


def length(sigma: Permutation) -> int:
    """Cayley-graph length of sigma: N minus the number of cycles."""
    return sigma.size - sigma.cycle_count()


def coset_type(alpha: Pairing, beta: Pairing) -> tuple[int, ...]:
    """Half-lengths of the alternating cycles of the two-matching graph, non-increasing.

    Both pairings are fixed-point-free involutions, so every component of the
    graph is a cycle whose edges alternate between alpha and beta.  One walk
    from each unvisited point follows alpha and then beta, marking two points
    per step, until it closes; its step count is the cycle's half-length.
    This partition of m is the coset type of the pair: two pairs of pairings
    are related by a relabelling of the points exactly when their types agree.
    """
    if alpha.size != beta.size:
        raise ValidationError(f"size mismatch: {alpha.size} vs {beta.size}")
    a, b = alpha.images, beta.images
    seen = [False] * alpha.size
    halves = []
    for start in range(alpha.size):
        if seen[start]:
            continue
        half, j = 0, start
        while not seen[j]:
            seen[j] = seen[a[j]] = True
            j = b[a[j]]
            half += 1
        halves.append(half)
    return tuple(sorted(halves, reverse=True))


def connected_components(alpha: Pairing, beta: Pairing) -> int:
    """Number of connected components of the graph with edge sets alpha and beta.

    Each component consists of two product cycles of equal length, so this
    always equals half the cycle count of the product permutation.
    """
    return len(coset_type(alpha, beta))


def mobius(alpha: Pairing, beta: Pairing) -> int:
    """Signed Catalan product over components of the two-matching graph.

    A component of 2c vertices (its two product cycles have common length c)
    contributes (-1)^(c-1) * Catalan(c-1).  This per-component form satisfies
    mobius(a, a) == 1 and is the leading coefficient of the exact tables.
    """
    return math.prod((-1) ** (c - 1) * catalan(c - 1) for c in coset_type(alpha, beta))


def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of m as non-increasing tuples, in reverse lexicographic order.

    The position of a partition in this tuple is its coset-type id; the last
    one, (1, ..., 1), is the type of a pairing with itself.
    """
    return tuple(_partitions_below(m, m))


def _partitions_below(rest: int, largest: int):
    """Partitions of rest into parts <= largest, non-increasing, largest first part first."""
    if rest == 0:
        yield ()
        return
    for part in range(min(rest, largest), 0, -1):
        for tail in _partitions_below(rest - part, part):
            yield (part,) + tail


def type_lengths(m: int) -> np.ndarray:
    """Component count (number of parts) of each coset type of half-size m, by type id."""
    return np.array([len(lam) for lam in partitions(m)])


def coset_types(m: int) -> np.ndarray:
    """Coset-type id of every pair of pairings of 2m points, as a read-only uint8 array.

    Rows and columns follow enumerate_pairings(m) and ids index partitions(m),
    so type_lengths(m)[coset_types(m)] is the component-count matrix.  Cached
    per m.
    """
    _check_pairing_count(m)
    return _coset_types(m)


def _type_sums(m: int, rows, weights) -> np.ndarray:
    """Per-type sums of weights along the listed rows: out[i, lam] sums weights[b] where type(rows[i], b) = lam.

    A class function dotted with out[i] is its weighted sum along row rows[i].
    """
    types, kinds = coset_types(m), len(partitions(m))
    weights = np.ascontiguousarray(weights, dtype=float)
    return np.array([np.bincount(types[a], weights, kinds) for a in rows]).reshape(-1, kinds)


def _type_representatives(m: int) -> np.ndarray:
    """Index of one pairing b of each coset type lam, the first with type(identity, b) = lam, by type id."""
    return np.unique(coset_types(m)[0], return_index=True)[1]


def _conjugation_maps(m: int, involutions) -> list[np.ndarray]:
    """Index maps b -> s b s over enumerate_pairings(m), one per involution s of the 2m points.

    Conjugates are found among the pairings by ranking image arrays read as
    base-2m integers.
    """
    size = 2 * m
    images = np.array([b.images for b in enumerate_pairings(m)])
    place = size ** np.arange(size)
    codes = images @ place
    order = np.argsort(codes)
    sorted_codes = codes[order]
    return [order[np.searchsorted(sorted_codes, s[images[:, s]] @ place)] for s in involutions]


@lru_cache(maxsize=None)  # one entry per m <= 6 under the enumeration cap
def _coset_types(m: int) -> np.ndarray:
    # Relabelling both pairings by a transposition s keeps their type, so
    # type(s a s, b) = type(a, s b s): the row of s a s is the row of a
    # permuted by b -> s b s.  Rows are filled outwards from the identity
    # pairing (row 0, by coset_type's walk) along such conjugations.
    pairs = enumerate_pairings(m)
    count, size = len(pairs), 2 * m
    ids = {lam: i for i, lam in enumerate(partitions(m))}
    transpositions = []
    for i, j in itertools.combinations(range(size), 2):
        s = np.arange(size)
        s[[i, j]] = j, i
        transpositions.append(s)
    conjugations = _conjugation_maps(m, transpositions)
    out = np.empty((count, count), dtype=np.uint8)
    out[0] = [ids[coset_type(pairs[0], b)] for b in pairs]
    seen = np.zeros(count, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reached = []
        for conj in conjugations:
            rows = conj[frontier]
            fresh = ~seen[rows]
            rows, parents = rows[fresh], frontier[fresh]
            out[rows] = out[parents[:, None], conj]
            seen[rows] = True
            reached.append(rows)
        frontier = np.concatenate(reached)
    out.setflags(write=False)
    return out


def copy_orbits(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the diagram pairings of p copies of r cells under relabelling the copies.

    A permutation sigma of the copies moves endpoint (i, x, side) to
    (sigma(i), x, side) and a pairing beta to sigma beta sigma^-1; f_beta of p
    copies of one state is constant on these orbits.  Returns (orbit, reps):
    the orbit id of every pairing of enumerate_pairings(p * r), and the index
    of the first pairing of each orbit, in increasing order, so that
    reps[orbit] lies in the orbit of each pairing.  Both are read-only and
    cached per (p, r).
    """
    p, r = checked_index(p, "p", 1), checked_index(r, "r", 1)
    _check_pairing_count(p * r)
    return _symmetry_orbits(p, r, (), False)[:2]


@lru_cache(maxsize=None)
def _symmetry_orbits(
    p: int, r: int, channels: tuple[int, ...], sides: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the diagram pairings under endpoint relabellings: (orbit, reps, flipped).

    The group is generated by the swaps of neighbouring copies (which generate
    S_p), the swap of channels x and x + 1 in every copy for each x in
    channels, and, with sides, the swap of the L and R sides of every
    endpoint.  orbit and reps are as in copy_orbits.  The side swap commutes
    with the others, so a pairing is reached from its representative either
    without it or only through an odd number of side swaps; flipped marks the
    latter.  All three are read-only.
    """
    grid = np.arange(2 * p * r).reshape(p, r, 2)  # endpoint index by (copy, channel, side)

    def swap(axis: int, first: int) -> np.ndarray:
        order = np.arange(grid.shape[axis])
        order[[first, first + 1]] = first + 1, first
        return np.take(grid, order, axis).ravel()

    swaps = [swap(0, c) for c in range(p - 1)] + [swap(1, x) for x in channels] + [swap(2, 0)] * sides
    flips = [0] * (len(swaps) - sides) + [1] * sides
    conjugations = _conjugation_maps(p * r, swaps)
    # An orbit is a connected component of the graph joining each pairing to
    # its conjugates.  Each pairing carries 2 * least + parity and takes the
    # least code over its neighbours, the parity flipping across a side swap:
    # it ends at its component's least index, with parity 0 when an even path
    # reaches it from there.
    code = 2 * np.arange(len(enumerate_pairings(p * r)))
    while True:
        step = code
        for conj, flip in zip(conjugations, flips):
            step = np.minimum(step, step[conj] ^ flip)
        if np.array_equal(step, code):
            break
        code = step
    least, parity = np.divmod(code, 2)
    reps, orbit = np.unique(least, return_inverse=True)
    flipped = parity.astype(bool)
    for array in (orbit, reps, flipped):
        array.setflags(write=False)
    return orbit, reps, flipped


def box_index(i: int, x: int, side: int, p: int, r: int) -> int:
    """Flatten the wire-endpoint triple (copy i, channel x, side) to an integer."""
    if not (0 <= i < p and 0 <= x < r and side in (SIDE_L, SIDE_R)):
        raise ValidationError(f"box label ({i}, {x}, {side}) out of range for p={p}, r={r}")
    return ((i * r) + x) * 2 + side


def delta_gamma(p: int, r: int) -> tuple[Pairing, Pairing]:
    """Wiring pairings of the p-th trace-moment diagram with r channel copies.

    delta joins (i, x, L) to (i, x, R) and encodes the per-channel partial
    trace; gamma joins (i, x, L) to (i-1, x, R) cyclically in i and encodes
    the matrix product under the trace.  For p = 1 the two coincide.
    """
    p, r = checked_index(p, "p", 1), checked_index(r, "r", 1)
    dpairs = []
    gpairs = []
    for i in range(p):
        for x in range(r):
            dpairs.append((box_index(i, x, SIDE_L, p, r), box_index(i, x, SIDE_R, p, r)))
            gpairs.append((box_index(i, x, SIDE_L, p, r), box_index((i - 1) % p, x, SIDE_R, p, r)))
    size = 2 * p * r
    return Pairing.from_pairs(dpairs, size), Pairing.from_pairs(gpairs, size)


def _check_diagram_size(pairing: Pairing, p: int, r: int):
    if pairing.size != 2 * p * r:
        raise ValidationError(f"pairing acts on {pairing.size} points, expected 2pr = {2 * p * r}")


def _wiring_shape(p: int, r: int, dim: int) -> tuple[int, int, int]:
    """p, r and dim of a wiring pattern, each an integer >= 1."""
    return checked_index(p, "p", 1), checked_index(r, "r", 1), checked_index(dim, "dim", 1)


def wiring_offsets(pairing: Pairing, p: int, r: int, dim: int) -> np.ndarray:
    """Flat positions of the ones in the dim^(pr) x dim^(pr) delta pattern of a diagram pairing.

    Rows are indexed by the R legs and columns by the L legs, each in cell
    order with cell 0 most significant; an entry is one where every pair's two
    legs carry the same index.  Each pair is thus one base-dim variable whose
    weight is the sum of its two legs' place values in the flattened matrix.
    The dim^(pr) offsets are distinct, so one scatter fills the pattern.
    """
    p, r, dim = _wiring_shape(p, r, dim)
    _check_diagram_size(pairing, p, r)
    q = p * r
    place = np.empty(2 * q, dtype=np.int64)
    place[SIDE_L::2] = dim ** np.arange(q - 1, -1, -1)  # column digit of cell c
    place[SIDE_R::2] = place[SIDE_L::2] * dim**q        # row digit of cell c
    offsets = np.zeros(1, dtype=np.int64)
    values = np.arange(dim)
    for s, u in pairing.pairs:
        offsets = (offsets[:, None] + (place[s] + place[u]) * values).reshape(-1)
    return offsets


def wiring_sum(pairings, coeffs, p: int, r: int, dim: int) -> np.ndarray:
    """sum_i coeffs[i] times the delta pattern of pairings[i], a dim^(pr) x dim^(pr) matrix.

    Starts from zeros of coeffs' dtype and adds each coefficient at its
    pairing's wiring_offsets, in order, so no dense matrix is formed per term.
    """
    p, r, dim = _wiring_shape(p, r, dim)  # before the allocation sizes anything by them
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(pairings),):
        raise ValidationError(f"need one coefficient per pairing, got shape {coeffs.shape} for {len(pairings)}")
    flat = np.zeros(dim ** (2 * p * r), dtype=coeffs.dtype)
    for pairing, coeff in zip(pairings, coeffs):
        flat[wiring_offsets(pairing, p, r, dim)] += coeff
    return flat.reshape(dim ** (p * r), -1)


def bumps(beta: Pairing, p: int, r: int) -> int:
    """Number of pairs of beta joining two R-side endpoints."""
    _check_diagram_size(beta, p, r)
    return sum(1 for a, b in beta.pairs if a % 2 == SIDE_R and b % 2 == SIDE_R)


def is_transverse(tau: Pairing, p: int, r: int) -> bool:
    """True iff every pair of tau joins an L endpoint to an R endpoint."""
    _check_diagram_size(tau, p, r)
    return all((a % 2) != (b % 2) for a, b in tau.pairs)


def transverse_pairings(p: int, r: int) -> list[Pairing]:
    """All q! transverse pairings of the 2q = 2pr endpoints, in a fixed order."""
    q = p * r
    left = [2 * c for c in range(q)]
    right = [2 * c + 1 for c in range(q)]
    out = []
    for perm in itertools.permutations(range(q)):
        out.append(Pairing.from_pairs([(left[i], right[perm[i]]) for i in range(q)], 2 * q))
    return out


def min_transverse_distance(beta: Pairing, p: int, r: int) -> tuple[int, list[Pairing]]:
    """Brute-force minimum of |tau * beta| over transverse tau, with all minimizers.

    The minimum equals twice the bump count of beta; the minimizers keep every
    transverse pair of beta and match R-side bumps to L-side bumps.
    """
    q = p * r
    if q > TRANSVERSE_BRUTE_CAP:
        raise EnumerationLimitError(f"transverse brute force needs q = pr <= {TRANSVERSE_BRUTE_CAP}, got {q}")
    _check_diagram_size(beta, p, r)
    best = None
    minimizers: list[Pairing] = []
    for tau in transverse_pairings(p, r):
        dist = 2 * (q - connected_components(tau, beta))  # |tau beta|: 2q less the product's 2cc cycles
        if best is None or dist < best:
            best = dist
            minimizers = [tau]
        elif dist == best:
            minimizers.append(tau)
    return best, minimizers


def enumerate_partial_pairings(r: int) -> list[PartialPairing]:
    """All partial pairings of {0, ..., r-1}, sorted by (pair count, pair list)."""
    if checked_index(r, "r") > PARTIAL_PAIRING_CAP:
        raise EnumerationLimitError(
            f"partial pairing enumeration capped at r <= {PARTIAL_PAIRING_CAP}, got {r}"
        )

    out = [PartialPairing(r, p) for p in _partial_matchings(tuple(range(r)))]
    out.sort(key=PartialPairing.sort_key)
    return out


def _partial_matchings(points):
    """Sets of disjoint pairs of the points, as pair tuples."""
    if not points:
        yield ()
        return
    a = points[0]
    rest = points[1:]
    for sub in _partial_matchings(rest):  # a stays single
        yield sub
    for idx, b in enumerate(rest):
        for sub in _partial_matchings(rest[:idx] + rest[idx + 1:]):
            yield ((a, b),) + sub


def partial_pairing_count(r: int) -> int:
    """Closed-form count: sum over j of r! / (j! 2^j (r-2j)!)."""
    return sum(
        math.factorial(r) // (math.factorial(j) * 2**j * math.factorial(r - 2 * j))
        for j in range(r // 2 + 1)
    )


def pairing_from_partial(block: PartialPairing, p: int, r: int) -> Pairing:
    """The diagram pairing made of symmetric bumps on a cell block plus horizontal wires.

    Cells are flattened copy-major (cell = i * r + x).  Each cell pair (c, c')
    of the block contributes the L-L pair and the R-R pair of the two cells;
    every unpaired cell contributes its horizontal L-R wire.
    """
    if block.n_points != p * r:
        raise ValidationError(f"block on {block.n_points} cells, expected pr = {p * r}")
    pairs = []
    for c1, c2 in block.pairs:
        pairs.append((2 * c1 + SIDE_L, 2 * c2 + SIDE_L))
        pairs.append((2 * c1 + SIDE_R, 2 * c2 + SIDE_R))
    for c in block.singles:
        pairs.append((2 * c + SIDE_L, 2 * c + SIDE_R))
    return Pairing.from_pairs(pairs, 2 * p * r)


def dominant_pairs(p: int, r: int, inward_only: bool = False) -> list[tuple[PartialPairing, PartialPairing]]:
    """All (A, B) with B a partial pairing of the p x r cell grid and A a sub-pairing.

    These index the moment-sum terms that saturate the large-n exponent bounds.
    With inward_only, B is restricted to pairs of cells sharing the copy index
    (the blocks surviving in the second-moment leading order).
    """
    blocks = enumerate_partial_pairings(p * r)
    if inward_only:
        blocks = [b for b in blocks if all(c1 // r == c2 // r for c1, c2 in b.pairs)]
    return [(sub, block) for block in blocks for sub in block.sub_blocks()]


def combine_copies(blocks: list[PartialPairing], r: int) -> PartialPairing:
    """Stack per-copy partial pairings of [r] into one on the p x r cell grid."""
    pairs = []
    for i, block in enumerate(blocks):
        if block.n_points != r:
            raise ValidationError(f"copy block on {block.n_points} points, expected {r}")
        pairs.extend((i * r + a, i * r + b) for a, b in block.pairs)
    return PartialPairing(len(blocks) * r, tuple(pairs))
