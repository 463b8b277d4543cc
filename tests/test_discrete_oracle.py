"""Enumeration oracle checks on small discrete populations.

Everything here is finite, so optimality claims are decided by listing
all 2^n subset classifiers and comparing.  The two fixed populations used
for the minimax comparison were found by seeded search when these tests
were first written and are frozen to keep the equality / strict-gap cases
pinned down.
"""

import hashlib
import math

import numpy as np
import pytest

from binquant.discrete_oracle import (
    _BLOCK,
    MAX_ATOMS,
    _slices,
    check_population,
    DiscretePopulation,
    SubsetClassifier,
    brute_force_fbeta_max,
    local_bayes_check,
    minimax_comparison,
    random_population,
    subset_confusion,
    thresholded_fbeta_sup,
)
from binquant.metrics import CostParams, f_beta

# Three atoms, posteriors 6/7, 0.4, 0.25; the best minimax subset {0} is
# itself a posterior threshold set, so the two minima coincide.
POP_MINIMAX_EQUAL = DiscretePopulation(atoms=((0.30, 0.05), (0.10, 0.15), (0.10, 0.30)))

# Three atoms, posteriors 1/3, 5/6, 9/11; the best subset {2} is not an
# upper set of the posterior order, so thresholding is strictly worse.
POP_MINIMAX_GAP = DiscretePopulation(atoms=((0.05, 0.10), (0.25, 0.05), (0.45, 0.10)))


def _population_cases(n_pops, seed, n_min=2, n_max=12):
    """Seeded mix of distinct-posterior and tied-posterior populations."""
    rng = np.random.default_rng(seed)
    for _ in range(n_pops):
        n_atoms = int(rng.integers(n_min, n_max + 1))
        yield random_population(rng, n_atoms, tied=False)
        yield random_population(rng, n_atoms, tied=True)


class TestDiscretePopulation:
    def test_basic_properties(self):
        pop = POP_MINIMAX_EQUAL
        assert pop.n_atoms == 3
        np.testing.assert_allclose(pop.prevalence, 0.5, atol=1e-15)
        np.testing.assert_allclose(pop.posteriors, (6.0 / 7.0, 0.4, 0.25), rtol=1e-15)

    def test_rejects_unnormalized_masses(self):
        with pytest.raises(ValueError):
            DiscretePopulation(atoms=((0.5, 0.4),))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            DiscretePopulation(atoms=((0.5, 0.0), (0.5, 0.0)))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscretePopulation(atoms=((1.1, -0.05), (0.0, -0.05)))

    def test_rejects_empty_atom(self):
        with pytest.raises(ValueError):
            DiscretePopulation(atoms=((0.5, 0.5), (0.0, 0.0)))

    @pytest.mark.parametrize("atoms, index", [
        (((0.5, math.nan), (0.25, 0.25)), 0),
        (((math.nan, 0.5), (0.25, 0.25)), 0),
        (((0.25, 0.25), (0.5, math.inf)), 1),
        (((0.25, 0.25), (-math.inf, 0.5)), 1),
    ])
    def test_rejects_non_finite_mass(self, atoms, index):
        with pytest.raises(ValueError, match=f"^atom {index} has a non-finite mass$"):
            DiscretePopulation(atoms=atoms)

    def test_rejects_too_many_atoms(self):
        n = MAX_ATOMS + 1
        atoms = tuple((0.5 / n, 0.5 / n) for _ in range(n))
        with pytest.raises(ValueError):
            DiscretePopulation(atoms=atoms)

    def test_rejects_no_atoms(self):
        with pytest.raises(ValueError, match="^population needs at least one atom$"):
            DiscretePopulation(atoms=())


class TestSubsetConfusion:
    def test_hand_values(self):
        probs = subset_confusion(POP_MINIMAX_EQUAL, SubsetClassifier(frozenset({0, 1})))
        np.testing.assert_allclose(probs.p_pos_and_pred, 0.40, atol=1e-15)
        np.testing.assert_allclose(probs.p_neg_and_pred, 0.20, atol=1e-15)
        np.testing.assert_allclose(probs.p_pred, 0.60, atol=1e-15)

    def test_additive_over_disjoint_subsets(self):
        """Joint masses of a disjoint union are the sums of the parts."""
        rng = np.random.default_rng(5)
        for pop in _population_cases(10, seed=5, n_max=10):
            n = pop.n_atoms
            picks = rng.permutation(n)
            cut = n // 2
            left = frozenset(int(i) for i in picks[:cut])
            right = frozenset(int(i) for i in picks[cut:])
            whole = subset_confusion(pop, SubsetClassifier(left | right))
            a = subset_confusion(pop, SubsetClassifier(left))
            b = subset_confusion(pop, SubsetClassifier(right))
            np.testing.assert_allclose(
                whole.p_pos_and_pred, a.p_pos_and_pred + b.p_pos_and_pred, atol=1e-12
            )
            np.testing.assert_allclose(
                whole.p_neg_and_pred, a.p_neg_and_pred + b.p_neg_and_pred, atol=1e-12
            )

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            subset_confusion(POP_MINIMAX_EQUAL, SubsetClassifier(frozenset({3})))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="^atom indices must be nonnegative$"):
            SubsetClassifier(frozenset({-1}))


class TestFbetaEnumeration:
    def test_brute_force_agrees_with_direct_evaluation(self):
        pop = POP_MINIMAX_EQUAL
        clf, value = brute_force_fbeta_max(pop, 1.0)
        np.testing.assert_allclose(value, f_beta(subset_confusion(pop, clf), 1.0), rtol=1e-15)

    def test_thresholding_attains_the_brute_force_max(self):
        """Core equivalence: over 100 seeded populations (half with tied
        posteriors) and three beta values, posterior threshold sets reach
        the global maximum."""
        checked = 0
        for pop in _population_cases(50, seed=101):
            for beta in (0.5, 1.0, 2.0):
                _, brute = brute_force_fbeta_max(pop, beta)
                sup = thresholded_fbeta_sup(pop, beta)
                assert abs(brute - sup) <= 1e-12
                checked += 1
        assert checked == 300

    def test_tie_break_is_lexicographic(self):
        """Adding an atom whose posterior is exactly F/2 leaves F unchanged,
        so {0} and {0, 1} tie at 0.8; dyadic masses make the tie bitwise
        and the lexicographically smaller index tuple must win."""
        pop = DiscretePopulation(atoms=((0.25, 0.0), (0.125, 0.1875), (0.0, 0.4375)))
        clf, value = brute_force_fbeta_max(pop, 1.0)
        assert value == 0.75 / 0.9375  # the tied F value, 0.8
        assert clf.included == frozenset({0})

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            brute_force_fbeta_max(POP_MINIMAX_EQUAL, 0.0)
        with pytest.raises(ValueError):
            thresholded_fbeta_sup(POP_MINIMAX_EQUAL, math.inf)


class TestLocalBayes:
    def test_hand_example_below_ratio(self):
        """Cut at 0.3 under unit costs: H = {0, 1}, mass 0.6, cost 0.3;
        no subset with mass >= 0.6 does better."""
        report = local_bayes_check(POP_MINIMAX_EQUAL, CostParams(1.0, 1.0), 0.3)
        assert report.constraint == "mass_at_least"
        assert report.included == frozenset({0, 1})
        np.testing.assert_allclose(report.predicted_mass, 0.6, atol=1e-15)
        np.testing.assert_allclose(report.cut_cost, 0.3, atol=1e-15)
        np.testing.assert_allclose(report.best_cost, 0.3, atol=1e-15)
        assert report.holds

    def test_cut_above_ratio_constrains_from_above(self):
        report = local_bayes_check(POP_MINIMAX_EQUAL, CostParams(1.0, 1.0), 0.7)
        assert report.constraint == "mass_at_most"
        assert report.holds

    def test_cut_at_ratio_beats_everything(self):
        report = local_bayes_check(POP_MINIMAX_EQUAL, CostParams(1.0, 1.0), 0.5)
        assert report.constraint == "all"
        assert report.holds

    def test_randomized_both_branches(self):
        """100 populations x random costs x a cut level on each side of the
        cost ratio; the posterior cut is never beaten on its own side."""
        rng = np.random.default_rng(77)
        for pop in _population_cases(50, seed=202):
            fn = float(rng.uniform(0.05, 2.0))
            fp = float(rng.uniform(0.05, 2.0))
            cost = CostParams(fn, fp)
            ratio = cost.posterior_cutoff
            below = ratio * float(rng.uniform(0.05, 0.95))
            above = ratio + (1.0 - ratio) * float(rng.uniform(0.05, 0.95))
            for level in (below, above):
                report = local_bayes_check(pop, cost, level)
                assert report.holds, (pop.atoms, cost, level)

    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError):
            local_bayes_check(POP_MINIMAX_EQUAL, CostParams(1.0, 1.0), 1.5)

    def test_cut_levels_need_a_cost(self):
        with pytest.raises(ValueError, match="cut levels need a cost"):
            check_population(POP_MINIMAX_EQUAL, cut_levels=(0.3,))


class TestMinimaxComparison:
    def test_equality_instance(self):
        report = minimax_comparison(POP_MINIMAX_EQUAL)
        np.testing.assert_allclose(report.brute_value, 0.4, atol=1e-12)
        np.testing.assert_allclose(report.threshold_value, 0.4, atol=1e-12)
        assert report.equal
        assert report.brute_classifier.included == frozenset({0})

    def test_strict_gap_instance(self):
        """{2} is best overall but is not an upper set of the posterior
        order, so the threshold family stops at 0.6."""
        report = minimax_comparison(POP_MINIMAX_GAP)
        np.testing.assert_allclose(report.brute_value, 0.4, atol=1e-12)
        np.testing.assert_allclose(report.threshold_value, 0.6, atol=1e-12)
        assert not report.equal
        assert report.brute_classifier.included == frozenset({2})
        assert report.threshold_classifier.included == frozenset({1, 2})

    def test_brute_never_exceeds_threshold(self):
        for pop in _population_cases(50, seed=303):
            report = minimax_comparison(pop)
            assert report.brute_value <= report.threshold_value + 1e-12


class TestRandomPopulation:
    def test_deterministic_under_seed(self):
        a = random_population(np.random.default_rng(9), 8)
        b = random_population(np.random.default_rng(9), 8)
        assert a.atoms == b.atoms

    def test_distinct_posteriors_are_separated(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pop = random_population(rng, int(rng.integers(2, 13)))
            ordered = np.sort(pop.posteriors)
            assert float(np.min(np.diff(ordered))) >= 1e-6

    def test_colliding_posteriors_are_nudged_apart(self):
        """Seed 1320 draws 20 atoms of which two share a posterior.  The nudge moves
        them at least 1e-6 apart, and the nudged population passes every check."""
        counts = np.random.default_rng(1320).integers(1, 1001, size=(20, 2)).astype(float)
        masses = counts / counts.sum()
        drawn = masses[:, 0] / masses.sum(axis=1)
        assert float(np.min(np.diff(np.sort(drawn)))) == 0.0
        pop = random_population(np.random.default_rng(1320), 20)
        assert float(np.min(np.diff(np.sort(pop.posteriors)))) >= 1e-6
        cost = CostParams(0.7, 1.3)
        ratio = cost.posterior_cutoff
        levels = (0.5 * ratio, ratio, 0.5 * (1.0 + ratio))
        assert check_population(pop, (0.5, 1.0, 2.0), cost, levels, minimax=True).failed == ()

    def test_tied_populations_contain_an_exact_tie(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pop = random_population(rng, int(rng.integers(2, 13)), tied=True)
            posteriors = pop.posteriors
            assert len(set(posteriors)) < len(posteriors)

    def test_rejects_out_of_range_size(self):
        rng = np.random.default_rng(0)
        for n in (1, MAX_ATOMS + 1):
            with pytest.raises(ValueError):
                random_population(rng, n)


class TestSubsetMasses:
    def test_built_once_and_read_only(self):
        pop = DiscretePopulation(atoms=POP_MINIMAX_GAP.atoms)
        pos, neg = pop.subset_masses
        again = pop.subset_masses
        assert again[0] is pos and again[1] is neg
        for arr in (pos, neg):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_indexed_by_bit_mask(self):
        pop = POP_MINIMAX_GAP
        pos, neg = pop.subset_masses
        assert pos.shape == neg.shape == (1 << pop.n_atoms,)
        for mask in range(1 << pop.n_atoms):
            included = frozenset(i for i in range(pop.n_atoms) if mask >> i & 1)
            probs = subset_confusion(pop, SubsetClassifier(included))
            np.testing.assert_allclose(pos[mask], probs.p_pos_and_pred, atol=1e-15)
            np.testing.assert_allclose(neg[mask], probs.p_neg_and_pred, atol=1e-15)


def _dyadic_tie_population():
    """18 atoms in 128ths, so every subset sum is exact.  Atoms 0, 1, 2 and
    16 have posterior 1 and make F = 2/3 at beta = 1; atom 15 has posterior
    exactly 1/3 = F / 2, so adding it leaves F unchanged.  The two
    maximizing masks lie in slices 2 and 3, and the later one,
    {0, 1, 2, 15, 16}, is the lexicographically smaller."""
    counts = ([(4, 0)] * 3 + [(2, 12)] * 7 + [(0, 2)] * 2 + [(0, 1)] * 3
              + [(2, 4), (4, 0), (0, 1)])
    return DiscretePopulation(atoms=tuple((a / 128, b / 128) for a, b in counts))


def _block_cases():
    rng = np.random.default_rng(1615)
    cases = [pytest.param(random_population(rng, n, tied=tied), id=f"n={n}-{kind}")
             for n in (16, 17, 18) for tied, kind in ((False, "distinct"), (True, "tied"))]
    return cases + [pytest.param(_dyadic_tie_population(), id="n=18-dyadic-tie")]


def _slice_visits(pop, *masks):
    """Position in the pass's visit order of the slice that holds each mask."""
    order = [start // _BLOCK for start, _, _ in _slices(pop)]
    return [order.index(mask // _BLOCK) for mask in masks]


class TestBlockScan:
    """The slice-by-slice scans return exactly what the whole-array formulas
    give, on populations with 2^16 to 2^18 subsets, each more than one slice
    of ``_BLOCK`` masks."""

    @staticmethod
    def _whole(pop):
        """Subset masses by concatenation, and the threshold-set masks."""
        pos, neg = np.zeros(1), np.zeros(1)
        for mp, mn in pop.atoms:
            pos = np.concatenate([pos, pos + mp])
            neg = np.concatenate([neg, neg + mn])
        q = pop.posteriors
        masks = [sum(1 << i for i, qi in enumerate(q) if (qi > level if strict else qi >= level))
                 for level in sorted(set(q)) + [0.0, 1.0] for strict in (True, False)]
        return pos, neg, masks

    @pytest.fixture(scope="class", params=_block_cases())
    def case(self, request):
        pop = request.param
        return pop, *self._whole(pop)

    def test_subset_masses_are_bit_identical(self, case):
        pop, pos, neg, _ = case
        assert pop.n_atoms >= 16 and (1 << pop.n_atoms) > _BLOCK
        assert np.array_equal(pop.subset_masses[0], pos)
        assert np.array_equal(pop.subset_masses[1], neg)

    def test_fbeta(self, case):
        pop, pos, neg, masks = case
        n, prevalence = pop.n_atoms, pop.prevalence
        for beta in (0.5, 1.0, 2.0):
            b2 = beta * beta
            values = (1.0 + b2) * pos / (b2 * prevalence + (pos + neg))
            best = np.max(values)
            tied = np.flatnonzero(values == best).tolist()
            first = min(tied, key=lambda m: [i for i in range(n) if m >> i & 1])
            clf, value = brute_force_fbeta_max(pop, beta)
            assert value == best
            assert clf.included == frozenset(i for i in range(n) if first >> i & 1)
            assert thresholded_fbeta_sup(pop, beta) == np.max(values[masks])

    def test_fbeta_tie_across_slices(self):
        pop = _dyadic_tie_population()
        pos, neg, _ = self._whole(pop)
        values = 2.0 * pos / (pop.prevalence + (pos + neg))
        tied = np.flatnonzero(values == np.max(values))
        early, late = 0b111 | 1 << 16, 0b111 | 1 << 15 | 1 << 16
        assert tied.tolist() == [early, late]
        early_visit, late_visit = _slice_visits(pop, early, late)
        assert late_visit < early_visit  # different slices, the later mask's seen first
        clf, value = brute_force_fbeta_max(pop, 1.0)
        assert value == 2.0 / 3.0 and clf.included == frozenset({0, 1, 2, 15, 16})

    def test_local_bayes_all_three_constraints(self, case):
        pop, pos, neg, _ = case
        prevalence = pop.prevalence
        cost = CostParams(0.7, 1.3)
        ratio = cost.posterior_cutoff
        costs = cost.fn_cost * (prevalence - pos) + cost.fp_cost * neg
        predicted = pos + neg
        for level, constraint in ((0.5 * ratio, "mass_at_least"), (ratio, "all"),
                                  (0.5 * (1.0 + ratio), "mass_at_most")):
            report = local_bayes_check(pop, cost, level)
            cut = sum(1 << i for i, q in enumerate(pop.posteriors) if q > level)
            eligible = {"mass_at_least": predicted >= predicted[cut],
                        "mass_at_most": predicted <= predicted[cut],
                        "all": np.ones(predicted.shape, dtype=bool)}[constraint]
            assert report.constraint == constraint
            assert report.predicted_mass == predicted[cut]
            assert report.cut_cost == costs[cut]
            assert report.best_cost == np.min(costs[eligible])

    def test_minimax(self, case):
        pop, pos, neg, masks = case
        n, prevalence = pop.n_atoms, pop.prevalence
        worst = np.maximum(neg / (1.0 - prevalence), 1.0 - pos / prevalence)
        brute = int(np.argmin(worst))
        threshold = masks[int(np.argmin(worst[masks]))]
        report = minimax_comparison(pop)
        assert report.brute_value == np.min(worst)
        assert report.brute_classifier.included == frozenset(i for i in range(n) if brute >> i & 1)
        assert report.threshold_value == worst[threshold]
        assert report.threshold_classifier.included == frozenset(
            i for i in range(n) if threshold >> i & 1)


def _slice_cases():
    rng = np.random.default_rng(1517)
    return [pytest.param(random_population(rng, n, tied=tied), id=f"n={n}-{kind}")
            for n in (15, 17, 20) for tied, kind in ((False, "distinct"), (True, "tied"))]


@pytest.mark.parametrize("pop", _slice_cases())
def test_slices_have_the_bits_of_subset_masses(pop):
    """Each start comes once, and each slice, read before the next is asked for,
    has the bits of its run of ``subset_masses``."""
    starts = []
    for start, *masses in _slices(pop):
        starts.append(start)
        for part, whole in zip(masses, pop.subset_masses, strict=True):
            assert part.tobytes() == whole[start:start + _BLOCK].tobytes()
    assert sorted(starts) == list(range(0, 1 << pop.n_atoms, _BLOCK))


def _mask_cases():
    rng = np.random.default_rng(2520)
    return [pytest.param(random_population(rng, n, tied=tied), id=f"n={n}-{kind}")
            for n in (2, 5, 14, 15, 20) for tied, kind in ((False, "distinct"), (True, "tied"))]


@pytest.mark.parametrize("pop", _mask_cases())
def test_posterior_cut_masks_at_every_size(pop):
    """The threshold-set masks and each cut's atoms are the posterior comparisons'
    on either side of ``_LOW_ATOMS``, at levels equal to an atom's posterior too."""
    q = pop.posteriors
    assert pop._threshold_masks.tolist() == TestBlockScan._whole(pop)[2]
    levels = (0.0, q[0], q[-1], min(q), max(q), float(np.median(q)), 1.0)
    found = check_population(pop, cost=CostParams(fn_cost=1.0, fp_cost=1.0), cut_levels=levels)
    for level, report in zip(levels, found.local_bayes, strict=True):
        assert report.included == frozenset(i for i, qi in enumerate(q) if qi > level)


def _pass_cases():
    rng = np.random.default_rng(2718)
    return [pytest.param(random_population(rng, n, tied=tied), id=f"n={n}-{kind}")
            for n in range(2, MAX_ATOMS + 1)
            for tied, kind in ((False, "distinct"), (True, "tied"))]


class TestOnePass:
    """``oracle`` runs every check on a population in one pass over its subset
    masses; what the pass reports is what the separate calls report."""

    @pytest.mark.parametrize("pop", _pass_cases())
    def test_one_pass_equals_separate_calls(self, pop):
        cost = CostParams(0.7, 1.3)
        ratio = cost.posterior_cutoff
        betas, levels = (0.5, 1.0, 2.0), (0.5 * ratio, ratio, 0.5 * (1.0 + ratio))
        found = check_population(pop, betas, cost, levels, minimax=True)
        assert found.fbeta == tuple(brute_force_fbeta_max(pop, beta) for beta in betas)
        assert found.local_bayes == tuple(local_bayes_check(pop, cost, level) for level in levels)
        assert [r.constraint for r in found.local_bayes] == ["mass_at_least", "all", "mass_at_most"]
        assert found.minimax == minimax_comparison(pop)

    def test_minimax_tie_goes_to_the_first_mask_across_slices(self):
        """17 atoms in 256ths, so every subset sum is exact.  {16} and {15, 16} tie
        at the least max(fpr, fnr), 8/158, because atom 15 is positive only and fpr
        is the larger rate of both.  They lie in different slices, and the pass
        visits the slice of {15, 16} first; {16}, first in mask order, must still win."""
        counts = [(0, 10)] * 15 + [(2, 0), (96, 8)]
        pop = DiscretePopulation(atoms=tuple((a / 256, b / 256) for a, b in counts))
        early_visit, late_visit = _slice_visits(pop, 1 << 16, 1 << 15 | 1 << 16)
        assert late_visit < early_visit
        pos, neg = pop.subset_masses
        worst = np.maximum(neg / (1.0 - pop.prevalence), 1.0 - pos / pop.prevalence)
        assert np.flatnonzero(worst == worst.min()).tolist() == [1 << 16, 1 << 15 | 1 << 16]
        report = minimax_comparison(pop)
        assert report.brute_value == worst.min() == 8 / 158
        assert report.brute_classifier.included == frozenset({16})


# sha256 of the reprs of check_population's results on the seed-2027 populations,
# n = 2..20, distinct then tied, recorded with numpy 2.4 and scipy 1.17 on x86-64.
ORACLE_RESULTS_SHA256 = "1af53f4bf6d677e180614b8fed1ea2e8b3fcc080e37c36dd949c55e093f99b32"


def test_oracle_results_match_recorded_digest():
    """Every value, verdict and chosen subset of the one-pass checks keeps its bits.
    Another numpy or scipy release may move a last digit, so the digest is
    compared only under the releases that recorded it."""
    import scipy
    releases = tuple(".".join(v.split(".")[:2]) for v in (np.__version__, scipy.__version__))
    if releases != ("2.4", "1.17"):
        pytest.skip(f"digest recorded with numpy 2.4 and scipy 1.17, not {releases}")
    cost = CostParams(0.7, 1.3)
    ratio = cost.posterior_cutoff
    digest = hashlib.sha256()
    for n in range(2, MAX_ATOMS + 1):
        for tied in (False, True):
            pop = random_population(np.random.default_rng(2027), n, tied)
            found = check_population(pop, (0.5, 1.0, 2.0), cost,
                                     (ratio / 2, ratio, (1 + ratio) / 2), minimax=True)
            digest.update(repr(found).encode())
    assert digest.hexdigest() == ORACLE_RESULTS_SHA256
