import itertools
import json
import math
import re

import numpy as np
import pytest

from orthochan.errors import EnumerationLimitError, ValidationError
from orthochan.pairings import (
    Pairing,
    PartialPairing,
    Permutation,
    _symmetry_orbits,
    box_index,
    bumps,
    combine_copies,
    connected_components,
    copy_orbits,
    coset_type,
    coset_types,
    delta_gamma,
    dominant_pairs,
    double_factorial_odd,
    enumerate_pairings,
    enumerate_partial_pairings,
    is_transverse,
    length,
    min_transverse_distance,
    mobius,
    pairing_from_partial,
    partial_pairing_count,
    partitions,
    transverse_pairings,
    type_lengths,
    wiring_sum,
)
from orthochan.weingarten import wg_asymptotic


def graph_components_oracle(alpha, beta):
    """Half-sizes of the two-matching graph's components, non-increasing, by an independent graph search.

    It treats the graph as a general one: no use is made of its components
    being alternating cycles.
    """
    n = alpha.size
    seen = [False] * n
    halves = []
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        stack = [start]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            size += 1
            stack.extend((alpha.images[v], beta.images[v]))
        halves.append(size // 2)
    return tuple(sorted(halves, reverse=True))


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_pairings(1)) == 1
        assert len(enumerate_pairings(2)) == 3
        assert len(enumerate_pairings(5)) == 945

    def test_m1_is_single_transposition(self):
        assert enumerate_pairings(1)[0].pairs == ((0, 1),)

    def test_duplicate_free_and_deterministic(self):
        first = enumerate_pairings(4)
        second = enumerate_pairings(4)
        assert first == second
        assert len(set(first)) == len(first) == 105

    def test_smallest_unmatched_first_order(self):
        # reference enumeration written independently of the library internals
        def ref(points):
            if not points:
                yield []
                return
            for j in range(1, len(points)):
                for rest in ref(points[1:j] + points[j + 1:]):
                    yield [(points[0], points[j])] + rest

        expected = [tuple(p) for p in ref(tuple(range(6)))]
        assert [p.pairs for p in enumerate_pairings(3)] == expected

    def test_cap_error_names_cap(self):
        with pytest.raises(EnumerationLimitError, match="10395"):
            enumerate_pairings(7)

    def test_cached_tuple(self):
        first = enumerate_pairings(3)
        assert isinstance(first, tuple)
        assert enumerate_pairings(3) is first

    def test_serialization_round_trip(self):
        p = enumerate_pairings(2)[1]
        text = json.dumps(p.pair_list())
        assert text == "[[0, 2], [1, 3]]"
        assert Pairing.from_pairs(json.loads(text), 4) == p


# arguments whose sizes or entries do not fit together
SIZE_REFUSALS = {
    "not-a-permutation": (lambda: Permutation((0, 0, 1)), "not a permutation of 0..2: (0, 0, 1)"),
    "compose-sizes": (lambda: Permutation((0, 1)).compose(Permutation((0, 1, 2))), "size mismatch: 2 vs 3"),
    "partial-pair-range": (lambda: PartialPairing(2, ((0, 2),)), "pair entries outside 0..1: ((0, 2),)"),
    "pairing-pair-range": (lambda: Pairing.from_pairs([(0, 5)], 4), "pair entries outside 0..3: ((0, 5),)"),
    "pairing-pair-too-long": (lambda: Pairing.from_pairs([(0, 1, 2)], 4), "pairs need two entries each: ((0, 1, 2),)"),
    "pairing-pair-too-short": (lambda: Pairing.from_pairs([(0,)], 2), "pairs need two entries each: ((0,),)"),
    "box-label-range": (lambda: box_index(2, 0, 0, 2, 1), "box label (2, 0, 0) out of range for p=2, r=1"),
    "partial-to-pairing-cells": (
        lambda: pairing_from_partial(PartialPairing(2, ((0, 1),)), 1, 3), "block on 2 cells, expected pr = 3"
    ),
    "combine-copy-points": (
        lambda: combine_copies([PartialPairing(2, ((0, 1),)), PartialPairing(3, ())], 2),
        "copy block on 3 points, expected 2",
    ),
    "wg-asymptotic-sizes": (
        lambda: wg_asymptotic(enumerate_pairings(1)[0], enumerate_pairings(2)[0], 5), "size mismatch: 2 vs 4"
    ),
    # the cycle walk and the two statistics read from it
    "coset-type-sizes": (
        lambda: coset_type(enumerate_pairings(2)[0], enumerate_pairings(3)[0]), "size mismatch: 4 vs 6"
    ),
    "components-sizes": (
        lambda: connected_components(enumerate_pairings(3)[0], enumerate_pairings(1)[0]), "size mismatch: 6 vs 2"
    ),
    "mobius-sizes": (lambda: mobius(enumerate_pairings(1)[0], enumerate_pairings(2)[0]), "size mismatch: 2 vs 4"),
    "wiring-sum-coefficients": (
        lambda: wiring_sum(enumerate_pairings(1), [1.0, 2.0], 1, 1, 2),
        "need one coefficient per pairing, got shape (2,) for 1",
    ),
}


@pytest.mark.parametrize("call, message", SIZE_REFUSALS.values(), ids=SIZE_REFUSALS.keys())
def test_size_refusals_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


class TestPermutationBasics:
    def test_length_identity(self):
        assert length(Permutation((0, 1, 2, 3))) == 0

    def test_length_transposition(self):
        assert length(Permutation((1, 0, 2, 3))) == 1

    def test_length_four_cycle(self):
        assert length(Permutation((1, 2, 3, 0))) == 3

    def test_pairing_rejects_fixed_points(self):
        with pytest.raises(ValidationError):
            Pairing((0, 2, 1, 3))

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(5)
        pairings = enumerate_pairings(3)
        for _ in range(200):
            a, b, c = (pairings[i] for i in rng.integers(0, len(pairings), 3))
            ab = length(a.compose(b))
            assert ab <= length(a.compose(c)) + length(c.compose(b))


class TestConnectedComponents:
    def test_equal_pairings(self):
        p = Pairing.from_pairs([(0, 1), (2, 3)])
        assert connected_components(p, p) == 2

    def test_crossing_pair(self):
        a = Pairing.from_pairs([(0, 1), (2, 3)])
        b = Pairing.from_pairs([(0, 2), (1, 3)])
        assert connected_components(a, b) == len(graph_components_oracle(a, b)) == 1

    def test_six_point_example(self):
        a = Pairing.from_pairs([(0, 1), (2, 3), (4, 5)])
        b = Pairing.from_pairs([(0, 1), (2, 4), (3, 5)])
        assert connected_components(a, b) == len(graph_components_oracle(a, b)) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            connected_components(Pairing.from_pairs([(0, 1)]), Pairing.from_pairs([(0, 1), (2, 3)]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_three_routes_agree(self, m):
        pairings = enumerate_pairings(m)
        for a in pairings:
            for b in pairings:
                via_graph = connected_components(a, b)
                via_cycles = a.compose(b).cycle_count() // 2
                via_length = m - length(a.compose(b)) // 2
                assert via_graph == len(graph_components_oracle(a, b)) == via_cycles == via_length


class TestCosetTypes:
    def test_partitions(self):
        assert partitions(1) == ((1,),)
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert [len(partitions(m)) for m in range(1, 7)] == [1, 2, 3, 5, 7, 11]
        assert type_lengths(4).tolist() == [1, 2, 2, 3, 4]

    @staticmethod
    def _check_pair(types, pairings, i, j):
        m = pairings[0].size // 2
        a, b = pairings[i], pairings[j]
        assert partitions(m)[types[i, j]] == coset_type(a, b) == graph_components_oracle(a, b)
        assert type_lengths(m)[types[i, j]] == connected_components(a, b)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_pair_matches_graph_search(self, m):
        types = coset_types(m)
        pairings = enumerate_pairings(m)
        assert types.shape == (len(pairings),) * 2 and types.dtype == np.uint8
        for i in range(len(pairings)):
            for j in range(len(pairings)):
                self._check_pair(types, pairings, i, j)

    def test_sampled_pairs_match_graph_search_m5(self):
        types = coset_types(5)
        pairings = enumerate_pairings(5)
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, len(pairings), size=(5000, 2)).tolist():
            self._check_pair(types, pairings, i, j)

    def test_symmetric_identity_diagonal_and_read_only(self):
        types = coset_types(4)
        assert np.array_equal(types, types.T)
        assert np.all(np.diag(types) == len(partitions(4)) - 1)  # type (1, 1, 1, 1)
        assert coset_types(4) is types
        with pytest.raises(ValueError):
            types[0, 0] = 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_class_sizes(self, m):
        # type lam occurs 2^m m! / (z_lam 2^len(lam)) times against one pairing,
        # with z_lam = prod_i i^(mult_i) mult_i!
        def expected(lam):
            z = math.prod(i ** lam.count(i) * math.factorial(lam.count(i)) for i in set(lam))
            return 2**m * math.factorial(m) // (z * 2 ** len(lam))

        counts = np.bincount(coset_types(m)[0], minlength=len(partitions(m)))
        assert counts.tolist() == [expected(lam) for lam in partitions(m)]

    def test_cap(self):
        with pytest.raises(EnumerationLimitError):
            coset_types(7)
        with pytest.raises(ValidationError):
            coset_types(0)


def copy_permutation(sigma, r):
    """The endpoint permutation moving copy i to copy sigma[i], as an image list."""
    return [((sigma[e // (2 * r)] * r) + (e // 2) % r) * 2 + e % 2 for e in range(2 * len(sigma) * r)]


def conjugate(images, s):
    """Images of s b s^-1 for the pairing b with the given images."""
    out = [0] * len(images)
    for e, b in enumerate(images):
        out[s[e]] = s[b]
    return tuple(out)


class TestCopyOrbits:
    @pytest.mark.parametrize("p,r", [(1, 3), (2, 1), (3, 1), (2, 2), (4, 1), (5, 1), (3, 2)])
    def test_orbits_match_brute_force(self, p, r):
        # every copy permutation applied to every pairing
        pairings = enumerate_pairings(p * r)
        index = {b.images: i for i, b in enumerate(pairings)}
        perms = [copy_permutation(sigma, r) for sigma in itertools.permutations(range(p))]
        brute = {frozenset(index[conjugate(b.images, s)] for s in perms) for b in pairings}
        orbit, reps = copy_orbits(p, r)
        assert orbit.shape == (len(pairings),) and len(reps) == len(brute)
        found = {frozenset(np.flatnonzero(orbit == o).tolist()) for o in range(len(reps))}
        assert found == brute
        assert reps.tolist() == sorted(min(members) for members in brute)
        assert np.array_equal(orbit[reps], np.arange(len(reps)))
        for members in brute:
            assert math.factorial(p) % len(members) == 0

    @pytest.mark.parametrize(
        "p,r,count", [(1, 3, 15), (2, 1, 3), (5, 1, 20), (2, 2, 65), (3, 2, 1779), (6, 1, 44)]
    )
    def test_orbit_counts_by_burnside(self, p, r, count):
        # orbit count = average number of pairings a copy permutation fixes;
        # the fixed count depends only on the cycle type of the permutation
        images = [b.images for b in enumerate_pairings(p * r)]
        fixed = {}
        total = 0
        for sigma in itertools.permutations(range(p)):
            cycle_type = tuple(sorted(len(c) for c in Permutation(sigma).cycles()))
            if cycle_type not in fixed:
                s = copy_permutation(sigma, r)
                fixed[cycle_type] = sum(conjugate(b, s) == b for b in images)
            total += fixed[cycle_type]
        assert total % math.factorial(p) == 0
        assert total // math.factorial(p) == count == len(copy_orbits(p, r)[1])
        sizes = np.bincount(copy_orbits(p, r)[0])
        assert sizes.sum() == len(images) and np.all(math.factorial(p) % sizes == 0)

    def test_cached_and_read_only(self):
        orbit, reps = copy_orbits(3, 1)
        assert copy_orbits(3, 1)[0] is orbit
        with pytest.raises(ValueError):
            orbit[0] = 1
        with pytest.raises(ValueError):
            reps[0] = 1

    def test_limits(self):
        with pytest.raises(ValidationError):
            copy_orbits(0, 2)
        with pytest.raises(EnumerationLimitError):
            copy_orbits(7, 1)


def endpoint_swap(p, r, axis, first):
    """Images of the endpoint swap of copies (axis 0), channels (axis 1) or sides (axis 2) first and first + 1."""
    def move(i, x, side):
        triple = [i, x, side]
        if triple[axis] in (first, first + 1):
            triple[axis] = 2 * first + 1 - triple[axis]
        return (triple[0] * r + triple[1]) * 2 + triple[2]

    return [move(e // (2 * r), (e // 2) % r, e % 2) for e in range(2 * p * r)]


def generated_group(generators):
    """Every product of the generators, as image tuples, by closure from the identity."""
    identity = tuple(range(len(generators[0])))
    group, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for s in generators:
                h = tuple(s[j] for j in g)
                if h not in group:
                    group.add(h)
                    fresh.append(h)
        frontier = fresh
    return group


class TestSymmetryOrbits:
    @pytest.mark.parametrize(
        "p,r,channels",
        [(2, 2, (0,)), (2, 2, ()), (1, 3, (0, 1)), (1, 3, (1,)), (3, 1, ()), (1, 4, (0, 2)), (2, 3, (0,))],
    )
    def test_orbits_and_flips_match_brute_force(self, p, r, channels):
        pairings = enumerate_pairings(p * r)
        index = {b.images: i for i, b in enumerate(pairings)}
        unsided = [endpoint_swap(p, r, 0, c) for c in range(p - 1)] + [endpoint_swap(p, r, 1, x) for x in channels]
        unsided = generated_group(unsided or [list(range(2 * p * r))])
        sides = generated_group([endpoint_swap(p, r, 2, 0)])
        orbit, reps, flipped = _symmetry_orbits(p, r, channels, True)
        for rep_id, rep in enumerate(reps.tolist()):
            even = {index[conjugate(pairings[rep].images, g)] for g in unsided}
            whole = {index[conjugate(pairings[b].images, s)] for b in even for s in sides}
            assert rep == min(whole)
            assert set(np.flatnonzero(orbit == rep_id).tolist()) == whole
            assert set(np.flatnonzero(flipped).tolist()) & whole == whole - even
        assert orbit.shape == flipped.shape == (len(pairings),)

    @pytest.mark.parametrize(
        "p,r,copies,sides,channels",
        [(3, 2, 1779, 1001, 612), (2, 3, 5363, 2847, 612), (1, 5, 945, 513, 20), (5, 1, 20, 20, 20)],
    )
    def test_orbit_counts(self, p, r, copies, sides, channels):
        # the side swap, then every adjacent channel swap, joined to the copy swaps
        assert len(copy_orbits(p, r)[1]) == len(_symmetry_orbits(p, r, (), False)[1]) == copies
        assert len(_symmetry_orbits(p, r, (), True)[1]) == sides
        assert len(_symmetry_orbits(p, r, tuple(range(r - 1)), True)[1]) == channels

    def test_without_the_side_swap_nothing_is_flipped(self):
        assert not _symmetry_orbits(2, 2, (0,), False)[2].any()

    def test_cached_and_read_only(self):
        arrays = _symmetry_orbits(2, 2, (0,), True)
        assert all(a is b for a, b in zip(arrays, _symmetry_orbits(2, 2, (0,), True)))
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0


class TestMobius:
    def test_diagonal_is_one(self):
        for m in range(1, 5):
            for p in enumerate_pairings(m):
                assert mobius(p, p) == 1

    def test_single_crossing_loop(self):
        a = Pairing.from_pairs([(0, 1), (2, 3)])
        b = Pairing.from_pairs([(0, 2), (1, 3)])
        assert mobius(a, b) == -1

    def test_length_three_loop(self):
        a = Pairing.from_pairs([(0, 1), (2, 3), (4, 5)])
        b = Pairing.from_pairs([(0, 2), (1, 4), (3, 5)])
        assert mobius(a, b) == 2

    def test_symmetry(self):
        pairings = enumerate_pairings(3)
        for a in pairings:
            for b in pairings:
                assert mobius(a, b) == mobius(b, a)


class TestDiagramWirings:
    def test_delta_equals_gamma_at_p1(self):
        for r in (1, 2, 3):
            delta, gamma = delta_gamma(1, r)
            assert delta == gamma

    def test_p1_r1(self):
        delta, _ = delta_gamma(1, 1)
        assert delta.pairs == ((0, 1),)

    def test_p2_r1_cyclic_shift(self):
        _, gamma = delta_gamma(2, 1)
        assert gamma.pairs == ((0, 3), (1, 2))

    def test_wirings_are_transverse(self):
        for p, r in [(1, 2), (2, 2), (2, 3), (3, 1)]:
            delta, gamma = delta_gamma(p, r)
            assert is_transverse(delta, p, r)
            assert is_transverse(gamma, p, r)
            assert bumps(delta, p, r) == bumps(gamma, p, r) == 0


class TestBumps:
    def test_one_bump_pairing(self):
        beta = Pairing.from_pairs([(0, 2), (1, 3)])  # L-L and R-R on two cells
        assert bumps(beta, 1, 2) == 1
        assert not is_transverse(beta, 1, 2)

    def test_left_and_right_bump_counts_match(self):
        for beta in enumerate_pairings(3):
            left = sum(1 for a, b in beta.pairs if a % 2 == 0 and b % 2 == 0)
            assert bumps(beta, 1, 3) == left

    def test_size_check(self):
        with pytest.raises(ValidationError):
            bumps(Pairing.from_pairs([(0, 1)]), 1, 2)

    def test_fig_style_p2_r3_single_bump(self):
        # one symmetric bump across cells (copy 0, channels 0 and 1), rest horizontal
        block = PartialPairing(6, ((0, 1),))
        beta = pairing_from_partial(block, 2, 3)
        assert bumps(beta, 2, 3) == 1


class TestMinTransverseDistance:
    def test_transverse_input(self):
        delta, _ = delta_gamma(1, 3)
        minimum, minimizers = min_transverse_distance(delta, 1, 3)
        assert minimum == 0
        assert minimizers == [delta]

    def test_single_bump_two_minimizers(self):
        beta = Pairing.from_pairs([(0, 2), (1, 3)])
        minimum, minimizers = min_transverse_distance(beta, 1, 2)
        assert minimum == 2
        assert len(minimizers) == 2
        assert set(minimizers) == set(transverse_pairings(1, 2))

    def test_exhaustive_q3_minimum_equals_twice_bumps(self):
        for beta in enumerate_pairings(3):
            minimum, minimizers = min_transverse_distance(beta, 1, 3)
            flats = bumps(beta, 1, 3)
            assert minimum == 2 * flats
            # every minimizer keeps the transverse pairs of beta
            for tau in minimizers:
                for a, b in beta.pairs:
                    if a % 2 != b % 2:
                        assert tau.images[a] == b
            assert len(minimizers) == math.factorial(flats) * 2**flats

    def test_cap(self):
        beta = pairing_from_partial(PartialPairing(6, ()), 1, 6)
        with pytest.raises(EnumerationLimitError):
            min_transverse_distance(beta, 1, 6)


class TestPartialPairings:
    def test_counts(self):
        assert len(enumerate_partial_pairings(2)) == 2
        assert len(enumerate_partial_pairings(3)) == 4
        assert len(enumerate_partial_pairings(4)) == 10

    def test_count_formula(self):
        for r in range(0, 8):
            assert len(enumerate_partial_pairings(r)) == partial_pairing_count(r)

    def test_r2_contents(self):
        blocks = enumerate_partial_pairings(2)
        assert blocks[0].pairs == ()
        assert blocks[1].pairs == ((0, 1),)

    def test_pair_budget_invariant(self):
        for block in enumerate_partial_pairings(5):
            assert 2 * block.n_pairs + len(block.singles) == 5

    def test_cap(self):
        with pytest.raises(EnumerationLimitError, match="8"):
            enumerate_partial_pairings(9)

    def test_disjointness_validated(self):
        with pytest.raises(ValidationError):
            PartialPairing(4, ((0, 1), (1, 2)))


class TestDominantPairs:
    def test_p1_r2(self):
        pairs = dominant_pairs(1, 2)
        assert len(pairs) == 3
        assert all(b.contains(a) for a, b in pairs)

    def test_p1_inward_is_everything(self):
        assert dominant_pairs(1, 3) == dominant_pairs(1, 3, inward_only=True)

    def test_p2_r1_inward_only_empty(self):
        pairs = dominant_pairs(2, 1, inward_only=True)
        assert [(a.pairs, b.pairs) for a, b in pairs] == [((), ())]

    def test_geodesic_membership(self):
        # length additivity along delta - alpha - beta for the dominant forms
        for p, r in [(1, 2), (2, 2), (1, 4)]:
            delta, _ = delta_gamma(p, r)
            for sub, block in dominant_pairs(p, r):
                alpha = pairing_from_partial(sub, p, r)
                beta = pairing_from_partial(block, p, r)
                total = length(delta.compose(beta))
                assert total == length(delta.compose(alpha)) + length(alpha.compose(beta))


class TestCombineCopies:
    def test_offsets(self):
        b1 = PartialPairing(2, ((0, 1),))
        b2 = PartialPairing(2, ())
        combined = combine_copies([b1, b2], 2)
        assert combined.n_points == 4
        assert combined.pairs == ((0, 1),)

    def test_double_factorial(self):
        assert [double_factorial_odd(m) for m in (1, 2, 3, 5)] == [1, 3, 15, 945]
