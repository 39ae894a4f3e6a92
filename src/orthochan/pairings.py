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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FULL_COUNT_BITS, EnumerationLimitError, ValidationError
from .errors import checked_index, checked_instance, checked_size, shown

PAIRING_HALF_SIZE_CAP = 6        # largest m whose pairings of 2m points are enumerated
PAIR_LISTING_HALF_SIZE_CAP = 5   # largest m whose (2m-1)!!^2 pairs of pairings are listed: 893025, 1.08e8 at m = 6
PARTIAL_PAIRING_CAP = 8          # largest ground set for partial pairings
TRANSVERSE_BRUTE_CAP = 5         # largest q = pr for transverse brute force

SIDE_L = 0
SIDE_R = 1


def _ordered(values) -> bool:
    """Whether values is an ordered sequence: a list, tuple, range or other Sequence, or a 1-D array.

    A set or a mapping has no order of the caller's, and an iterator is read once.
    """
    return isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1


def _int_entries(values, what: str) -> tuple[int, ...]:
    """The sequence values as a tuple of Python ints, each read by checked_index with what naming one entry.

    This is the one entry rule of permutations, pairings and partial pairings: a
    bool, float, string or other non-integer entry, or a values that is not an
    ordered sequence (_ordered), raises ValidationError before any entry is used as an index.
    """
    if not _ordered(values):
        raise ValidationError(f"not a sequence of integers: {values!r}")
    return tuple(checked_index(value, what, None) for value in values)


def _int_pairs(pairs, n_points: int | None) -> tuple[tuple[int, int], ...]:
    """pairs in their given order as (int, int) tuples by _int_entries, in 0..n_points-1 (None: twice their count)."""
    try:
        entries = tuple(pairs)
        lengths = [len(pair) for pair in entries]
    except TypeError:  # pairs, or a pair in it, is not a collection, as in a flat (0, 1)
        raise ValidationError(f"pairs need two entries each: {shown(pairs)}") from None
    if any(length != 2 for length in lengths):
        raise ValidationError(f"pairs need two entries each: {shown(entries)}")
    pairs = tuple(_int_entries(pair, "pair entry") for pair in entries)
    n_points = 2 * len(pairs) if n_points is None else n_points
    if any(not 0 <= i < n_points for pair in pairs for i in pair):
        raise ValidationError(f"pair entries outside 0..{shown(n_points - 1)}: {shown(pairs)}")
    return pairs


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., N-1} stored as its image tuple of Python ints."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = _int_entries(self.images, "permutation image")
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a permutation of 0..{len(images) - 1}: {shown(images)}")

    @property
    def size(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self∘other, i.e. apply other first."""
        if checked_instance(other, Permutation, "other").size != self.size:
            raise ValidationError(f"size mismatch: {self.size} vs {other.size}")
        return Permutation(tuple(self.images[j] for j in other.images))

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
        images = self.images
        if any(j == i or images[j] != i for i, j in enumerate(images)):
            raise ValidationError(f"not a fixed-point-free involution: {images}")

    @classmethod
    def from_pairs(cls, pairs) -> "Pairing":
        """The pairing of twice as many points as pairs that swaps the two entries of each pair."""
        pairs = _int_pairs(pairs, None)
        images = list(range(2 * len(pairs)))
        for a, b in pairs:
            images[a], images[b] = b, a
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
        object.__setattr__(self, "n_points", checked_index(self.n_points, "n_points"))
        norm = tuple(sorted(tuple(sorted(pair)) for pair in _int_pairs(self.pairs, self.n_points)))
        object.__setattr__(self, "pairs", norm)
        support = [i for p in norm for i in p]
        if len(set(support)) != len(support):
            raise ValidationError(f"pairs are not disjoint: {shown(norm)}")

    @property
    def singles(self) -> tuple[int, ...]:
        support = {i for p in self.pairs for i in p}
        return tuple(i for i in range(self.n_points) if i not in support)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def is_maximal(self) -> bool:
        return self.n_pairs == self.n_points // 2

    def sub_blocks(self) -> list["PartialPairing"]:
        """Every partial pairing contained in this one, by pair count, then in combinations order."""
        return _pair_sets(self.n_points, self.pairs)


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = number of pairings of 2m points."""
    return math.prod(range(1, 2 * m, 2))


PAIRING_ENUMERATION_CAP = double_factorial_odd(PAIRING_HALF_SIZE_CAP)  # 10395 pairings at m = 6


def catalan(p: int) -> int:
    return math.comb(2 * p, p) // (p + 1)


def _pairing_count(m: int, power: int = 1) -> str:
    """(2m-1)!!^power as a refusal prints it: in full below 2^FULL_COUNT_BITS, else "at least 2^FULL_COUNT_BITS".
    As (2m-1)!! >= 2^(m-1), it is built only up to m = FULL_COUNT_BITS + 1, so its cost does not grow with m."""
    count = double_factorial_odd(min(m, FULL_COUNT_BITS + 1)) ** power
    return str(count) if count.bit_length() <= FULL_COUNT_BITS else f"at least 2^{FULL_COUNT_BITS}"


def _check_pairing_count(m: int) -> None:
    if checked_index(m, "m", 1) > PAIRING_HALF_SIZE_CAP:
        raise EnumerationLimitError(
            f"enumerating pairings of 2m={shown(2 * m)} points needs {_pairing_count(m)} pairings, "
            f"above cap {PAIRING_ENUMERATION_CAP}"
        )


def enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    """All pairings of {0, ..., 2m-1} in smallest-unmatched-element-first order.

    The first pairing is the identity pairing {(0, 1), (2, 3), ...}.  Cached
    per m; every call returns the same tuple.
    """
    _check_pairing_count(m)
    return _enumerate_pairings(m)


# The recursive enumerations (_matchings and _partitions_below) are
# module-level generators: a nested recursive closure refers to itself, and
# each call would leave that reference cycle to the cyclic collector.
def _matchings(points, images):
    """Every perfect matching of the points as an image tuple, the first point's partner ascending.

    Each matching is written into the list images, whose other entries are kept.
    """
    if not points:
        yield tuple(images)
        return
    a = points[0]
    for idx in range(1, len(points)):
        b = points[idx]
        images[a], images[b] = b, a
        yield from _matchings(points[1:idx] + points[idx + 1:], images)


@lru_cache(maxsize=None)  # one entry per m <= 6 under the enumeration cap
def _enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    return tuple(Pairing(images) for images in _matchings(tuple(range(2 * m)), [0] * (2 * m)))


def coset_type(alpha: Pairing, beta: Pairing) -> tuple[int, ...]:
    """Half-lengths of the alternating cycles of the two-matching graph, non-increasing.

    Both pairings are fixed-point-free involutions, so every component of the
    graph is a cycle whose edges alternate between alpha and beta.  One walk
    from each unvisited point follows alpha and then beta, marking two points
    per step, until it closes; its step count is the cycle's half-length.
    This partition of m is the coset type of the pair: two pairs of pairings
    are related by a relabelling of the points exactly when their types agree.
    """
    alpha, beta = checked_instance(alpha, Pairing, "alpha"), checked_instance(beta, Pairing, "beta")
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


def _neighbour_swap(grid: np.ndarray, axis: int, first: int) -> np.ndarray:
    """The involution of grid's flat entries that swaps positions first and first + 1 along axis, as images."""
    order = np.arange(grid.shape[axis])
    order[[first, first + 1]] = first + 1, first
    return np.take(grid, order, axis).ravel()


@lru_cache(maxsize=None)  # one entry per m <= 6 under the enumeration cap
def _coset_types(m: int) -> np.ndarray:
    # Relabelling both pairings by a transposition s keeps their type, so
    # type(s a s, b) = type(a, s b s): the row of s a s is the row of a
    # permuted by b -> s b s.  Rows are filled outwards from the identity
    # pairing (row 0, by coset_type's walk) along the conjugations by the
    # neighbour transpositions, which generate every relabelling.
    pairs = enumerate_pairings(m)
    count, points = len(pairs), np.arange(2 * m)
    ids = {lam: i for i, lam in enumerate(partitions(m))}
    conjugations = _conjugation_maps(m, [_neighbour_swap(points, 0, i) for i in range(2 * m - 1)])
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


@lru_cache(maxsize=None)
def _symmetry_orbits(p: int, r: int, channels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the diagram pairings of p copies of r cells under endpoint relabellings: (orbit, reps, flipped).

    A relabelling s of the endpoints moves a pairing beta to s beta s.  The
    group is generated by the swaps of neighbouring copies (which generate
    S_p), the swap of channels x and x + 1 in every copy for each x in
    channels, and the swap of the L and R sides of every endpoint.  orbit is
    the orbit id of every pairing of enumerate_pairings(p * r), and reps the
    index of the first pairing of each orbit, in increasing order, so that
    reps[orbit] lies in the orbit of each pairing.  The side swap commutes
    with the others, so a pairing is reached from its representative either
    without it or only through an odd number of side swaps; flipped marks the
    latter.  All three are read-only.
    """
    grid = np.arange(2 * p * r).reshape(p, r, 2)  # endpoint index by (copy, channel, side)
    swaps = [_neighbour_swap(grid, 0, c) for c in range(p - 1)] + [_neighbour_swap(grid, 1, x) for x in channels]
    conjugations = _conjugation_maps(p * r, swaps + [_neighbour_swap(grid, 2, 0)])
    flips = [0] * len(swaps) + [1]
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
    i, x, side, p, r = (checked_index(v, what, None) for v, what in zip((i, x, side, p, r), "i x side p r".split()))
    if not (0 <= i < p and 0 <= x < r and side in (SIDE_L, SIDE_R)):
        raise ValidationError(f"box label {shown((i, x, side))} out of range for p={shown(p)}, r={shown(r)}")
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
    return Pairing.from_pairs(dpairs), Pairing.from_pairs(gpairs)


def wiring_offsets(pairing: Pairing, dim: int) -> np.ndarray:
    """Flat positions of the ones in the dim^q x dim^q delta pattern of a diagram pairing of 2q endpoints.

    Rows are indexed by the R legs and columns by the L legs, each in cell
    order with cell 0 most significant; an entry is one where every pair's two
    legs carry the same index.  Each pair is thus one base-dim variable whose
    weight is the sum of its two legs' place values in the flattened matrix.
    The dim^q offsets are distinct, so one scatter fills the pattern.
    """
    dim, q = checked_index(dim, "dim", 1), pairing.size // 2
    place = np.empty(2 * q, dtype=np.int64)
    place[SIDE_L::2] = dim ** np.arange(q - 1, -1, -1)  # column digit of cell c
    place[SIDE_R::2] = place[SIDE_L::2] * dim**q        # row digit of cell c
    offsets = np.zeros(1, dtype=np.int64)
    values = np.arange(dim)
    for s, u in pairing.pairs:
        offsets = (offsets[:, None] + (place[s] + place[u]) * values).reshape(-1)
    return offsets


def wiring_sum(pairings, coeffs, dim: int) -> np.ndarray:
    """sum_i coeffs[i] times the delta pattern of pairings[i], a dim^q x dim^q matrix for 2q endpoints each.

    Starts from zeros of coeffs' dtype and adds each coefficient at its
    pairing's wiring_offsets, in order, so no dense matrix is formed per term.
    The pairings are the only source of q, so they must be one or more, of one size.
    """
    dim = checked_index(dim, "dim", 1)  # before the allocation sizes anything by it
    sizes = sorted({pairing.size for pairing in pairings})
    if len(sizes) != 1:
        raise ValidationError(f"wiring sum needs pairings of one size, got sizes {sizes}")
    q = sizes[0] // 2
    size = checked_size(dim, 2 * q, "wiring pattern needs dim^(2pr)")
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(pairings),):
        raise ValidationError(f"need one coefficient per pairing, got shape {coeffs.shape} for {len(pairings)}")
    flat = np.zeros(size, dtype=coeffs.dtype)
    for pairing, coeff in zip(pairings, coeffs):
        flat[wiring_offsets(pairing, dim)] += coeff
    return flat.reshape(dim**q, -1)


def bumps(beta: Pairing) -> int:
    """Number of pairs of beta joining two R-side endpoints."""
    return sum(1 for a, b in checked_instance(beta, Pairing, "beta").pairs if a % 2 == SIDE_R and b % 2 == SIDE_R)


def transverse_pairings(q: int) -> list[Pairing]:
    """All q! transverse pairings of 2q endpoints, in a fixed order: L of cell c to R of cell perm[c]."""
    perms = itertools.permutations(range(q))
    return [Pairing.from_pairs([(2 * c, 2 * perm[c] + 1) for c in range(q)]) for perm in perms]


def min_transverse_distance(beta: Pairing) -> tuple[int, list[Pairing]]:
    """Brute-force minimum of |tau * beta| over transverse tau, with all minimizers.

    The minimum equals twice the bump count of beta; the minimizers keep every
    transverse pair of beta and match R-side bumps to L-side bumps.
    """
    q = checked_instance(beta, Pairing, "beta").size // 2
    if q > TRANSVERSE_BRUTE_CAP:
        raise EnumerationLimitError(f"transverse brute force needs q = pr <= {TRANSVERSE_BRUTE_CAP}, got {q}")
    # |tau beta|: 2q less the product's 2cc cycles
    dists = {tau: 2 * (q - connected_components(tau, beta)) for tau in transverse_pairings(q)}
    best = min(dists.values())
    return best, [tau for tau, dist in dists.items() if dist == best]


def _check_partial_count(points: int) -> int:
    if points > PARTIAL_PAIRING_CAP:
        what = f"partial pairing enumeration capped at r <= {PARTIAL_PAIRING_CAP}"
        raise EnumerationLimitError(f"{what}, got {shown(points)}")
    return points


def _pair_sets(n_points: int, pairs, base=()) -> list[PartialPairing]:
    """The blocks base + S on n_points points, S each set of disjoint pairs drawn from the sorted sequence pairs.

    S comes by size, then in the combinations order of pairs.  Every list of partial pairings is one such call.
    """
    sets = (s for j in range(n_points // 2 + 1) for s in itertools.combinations(pairs, j))
    return [PartialPairing(n_points, base + s) for s in sets if len({i for pair in s for i in pair}) == 2 * len(s)]


def enumerate_partial_pairings(r: int) -> list[PartialPairing]:
    """All partial pairings of {0, ..., r-1}, by pair count, then by pair list."""
    r = _check_partial_count(checked_index(r, "r"))
    return _pair_sets(r, list(itertools.combinations(range(r), 2)))


def pairing_from_partial(block: PartialPairing) -> Pairing:
    """The diagram pairing of 2 * block.n_points endpoints: symmetric bumps on a cell block plus horizontal wires.

    Cells are flattened copy-major (cell = i * r + x).  Each cell pair (c, c')
    of the block contributes the L-L pair and the R-R pair of the two cells;
    every unpaired cell contributes its horizontal L-R wire.
    """
    checked_instance(block, PartialPairing, "block")
    pairs = [(2 * c1 + side, 2 * c2 + side) for c1, c2 in block.pairs for side in (SIDE_L, SIDE_R)]
    return Pairing.from_pairs(pairs + [(2 * c + SIDE_L, 2 * c + SIDE_R) for c in block.singles])


def dominant_pairs(p: int, r: int, inward_only: bool = False) -> list[tuple[PartialPairing, PartialPairing]]:
    """All (A, B) with B a partial pairing of the p x r cell grid and A a sub-pairing.

    These index the moment-sum terms that saturate the large-n exponent bounds.
    With inward_only, B is restricted to pairs of cells sharing the copy index
    (the blocks surviving in the second-moment leading order).
    """
    p, r = checked_index(p, "p", 1), checked_index(r, "r", 1)
    inward_only = checked_instance(inward_only, bool, "inward_only")
    pairs = itertools.combinations(range(_check_partial_count(p * r)), 2)
    blocks = _pair_sets(p * r, [(c1, c2) for c1, c2 in pairs if not inward_only or c1 // r == c2 // r])
    return [(sub, block) for block in blocks for sub in block.sub_blocks()]
