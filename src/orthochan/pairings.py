"""Pairings, partial pairings, and the wiring permutations of moment diagrams.

A pairing is a fixed-point-free involution of {0, ..., 2m-1}, i.e. a perfect
matching; these index orthogonal-group moment sums.  Moment diagrams for the
p-th trace moment of r channel copies carry 2pr wire endpoints, addressed by
triples (copy i, channel x, side L/R) and flattened as

    index = ((i * r) + x) * 2 + side,      side: L = 0, R = 1.

The coset type of a pair of pairings (the half-sizes of the components of
their two-matching graph, a partition of m) is all that Gram and Weingarten
entries depend on; coset_types tabulates it for every pair at once.

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

from .errors import EnumerationLimitError, ValidationError

PAIRING_HALF_SIZE_CAP = 6        # largest m whose pairings of 2m points are enumerated
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
        images = list(range(size))
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

    def sort_key(self):
        return (self.n_pairs, self.pairs)


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = number of pairings of 2m points."""
    return math.prod(range(1, 2 * m, 2))


PAIRING_ENUMERATION_CAP = double_factorial_odd(PAIRING_HALF_SIZE_CAP)  # 10395 pairings at m = 6


def catalan(p: int) -> int:
    return math.comb(2 * p, p) // (p + 1)


def _check_pairing_count(m: int) -> None:
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if m > PAIRING_HALF_SIZE_CAP:
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


@lru_cache(maxsize=None)  # one entry per m <= 6 under the enumeration cap
def _enumerate_pairings(m: int) -> tuple[Pairing, ...]:
    def rec(points):
        if not points:
            yield ()
            return
        a = points[0]
        for idx in range(1, len(points)):
            b = points[idx]
            rest = points[1:idx] + points[idx + 1:]
            for sub in rec(rest):
                yield ((a, b),) + sub

    return tuple(Pairing.from_pairs(p, 2 * m) for p in rec(tuple(range(2 * m))))


def length(sigma: Permutation) -> int:
    """Cayley-graph length of sigma: N minus the number of cycles."""
    return sigma.size - sigma.cycle_count()


def _component_sizes(alpha: Pairing, beta: Pairing) -> list[int]:
    """Sizes of the connected components of the two-matching graph, by union-find."""
    if alpha.size != beta.size:
        raise ValidationError(f"size mismatch: {alpha.size} vs {beta.size}")
    n = alpha.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in (alpha.images[i], beta.images[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    sizes: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return list(sizes.values())


def connected_components(alpha: Pairing, beta: Pairing) -> int:
    """Number of connected components of the graph with edge sets alpha and beta.

    Each component consists of two product cycles of equal length, so this
    always equals half the cycle count of the product permutation.
    """
    return len(_component_sizes(alpha, beta))


def partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of m as non-increasing tuples, in reverse lexicographic order.

    The position of a partition in this tuple is its coset-type id; the last
    one, (1, ..., 1), is the type of a pairing with itself.
    """
    def rec(rest, largest):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    return tuple(rec(m, m))


def coset_type(alpha: Pairing, beta: Pairing) -> tuple[int, ...]:
    """Half-sizes of the components of the two-matching graph, non-increasing.

    This partition of m is the coset type of the pair: two pairs of pairings
    are related by a relabelling of the points exactly when their types agree.
    """
    return tuple(sorted((s // 2 for s in _component_sizes(alpha, beta)), reverse=True))


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
    # pairing (row 0, by union-find) along such conjugations.
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
    if p < 1 or r < 1:
        raise ValidationError(f"p and r must be >= 1, got p={p}, r={r}")
    _check_pairing_count(p * r)
    return _copy_orbits(p, r)


@lru_cache(maxsize=None)
def _copy_orbits(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    # The swaps of neighbouring copies generate S_p, so an orbit is a connected
    # component of the graph joining each pairing to its conjugates by the
    # swaps; every pairing takes the least index of its component.
    legs = np.arange(2 * r)  # the endpoints of one copy, relative to its first
    swaps = []
    for c in range(p - 1):
        s = np.arange(2 * p * r)
        s[2 * r * c + legs], s[2 * r * (c + 1) + legs] = 2 * r * (c + 1) + legs, 2 * r * c + legs
        swaps.append(s)
    conjugations = _conjugation_maps(p * r, swaps)
    least = np.arange(len(enumerate_pairings(p * r)))
    while True:
        step = least
        for conj in conjugations:
            step = np.minimum(step, step[conj])
        if np.array_equal(step, least):
            break
        least = step
    reps, orbit = np.unique(least, return_inverse=True)
    orbit.setflags(write=False)
    reps.setflags(write=False)
    return orbit, reps


def mobius(alpha: Pairing, beta: Pairing) -> int:
    """Signed Catalan product over components of the two-matching graph.

    A component of 2c vertices (its two product cycles have common length c)
    contributes (-1)^(c-1) * Catalan(c-1).  This per-component form satisfies
    mobius(a, a) == 1 and is the leading coefficient of the exact tables.
    """
    out = 1
    for s in _component_sizes(alpha, beta):
        c = s // 2
        out *= (-1) ** (c - 1) * catalan(c - 1)
    return out


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
    if p < 1 or r < 1:
        raise ValidationError(f"p and r must be >= 1, got p={p}, r={r}")
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
        dist = length(tau.compose(beta))
        if best is None or dist < best:
            best = dist
            minimizers = [tau]
        elif dist == best:
            minimizers.append(tau)
    return best, minimizers


def enumerate_partial_pairings(r: int) -> list[PartialPairing]:
    """All partial pairings of {0, ..., r-1}, sorted by (pair count, pair list)."""
    if r < 0:
        raise ValidationError(f"r must be >= 0, got {r}")
    if r > PARTIAL_PAIRING_CAP:
        raise EnumerationLimitError(
            f"partial pairing enumeration capped at r <= {PARTIAL_PAIRING_CAP}, got {r}"
        )

    def rec(points):
        if not points:
            yield ()
            return
        a = points[0]
        rest = points[1:]
        for sub in rec(rest):  # a stays single
            yield sub
        for idx, b in enumerate(rest):
            for sub in rec(rest[:idx] + rest[idx + 1:]):
                yield ((a, b),) + sub

    out = [PartialPairing(r, p) for p in rec(tuple(range(r)))]
    out.sort(key=PartialPairing.sort_key)
    return out


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
    out = []
    for block in blocks:
        for size in range(block.n_pairs + 1):
            for sub in itertools.combinations(block.pairs, size):
                out.append((PartialPairing(block.n_points, sub), block))
    return out


def combine_copies(blocks: list[PartialPairing], r: int) -> PartialPairing:
    """Stack per-copy partial pairings of [r] into one on the p x r cell grid."""
    pairs = []
    for i, block in enumerate(blocks):
        if block.n_points != r:
            raise ValidationError(f"copy block on {block.n_points} points, expected {r}")
        pairs.extend((i * r + a, i * r + b) for a, b in block.pairs)
    return PartialPairing(len(blocks) * r, tuple(pairs))
