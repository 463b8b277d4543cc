"""Exhaustive checks of threshold optimality on small discrete populations.

A ``DiscretePopulation`` puts probability mass on finitely many score
atoms, each split between the positive and negative class.  With at most
20 atoms every one of the 2^n subset classifiers can be enumerated, which
turns three optimality statements into machine-checkable facts:

* the best F measure over all subsets is attained on a posterior
  threshold set {posterior > q} or {posterior >= q}
  (``brute_force_fbeta_max`` versus ``thresholded_fbeta_sup``),
* a posterior cut at q is cost-optimal among subsets whose total mass is
  on the matching side of its own (``local_bayes_check``),
* no subset beats the best likelihood-ratio threshold set at the minimax
  criterion by more than discreteness allows (``minimax_comparison``).

Enumeration is vectorized over bit masks: subset index sets are encoded
as integers, with bit i meaning atom i is included.  Each population
caches one mask-indexed pair of arrays, the positive and negative mass of
every subset, and each check scans that pair in cache-sized slices of
``_BLOCK`` masks, so no temporary spans all 2^n subsets.  Threshold sets
are evaluated at their own masks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metrics import ConfusionProbs, CostParams, _check_beta, _f_formula

__all__ = [
    "MAX_ATOMS",
    "DiscretePopulation",
    "SubsetClassifier",
    "LocalBayesReport",
    "MinimaxReport",
    "subset_confusion",
    "brute_force_fbeta_max",
    "thresholded_fbeta_sup",
    "local_bayes_check",
    "minimax_comparison",
    "random_population",
]

MAX_ATOMS = 20

_MASS_SUM_TOL = 1e-12
_COST_SLACK = 1e-12
_EQUALITY_TOL = 1e-12
_BLOCK = 1 << 15  # masks per slice: 256 KiB per float64 temporary


@dataclass(frozen=True)
class DiscretePopulation:
    """Finite score population: per-atom (positive mass, negative mass) pairs.

    Masses are joint probabilities and must total 1 across all atoms and
    both classes.  Each atom needs positive total mass so its posterior is
    well defined, and both classes must be present overall.  The atom
    count is capped at ``MAX_ATOMS`` to keep full subset enumeration
    cheap.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(mp), float(mn)) for mp, mn in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("population needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
        for i, (mp, mn) in enumerate(atoms):
            if not (math.isfinite(mp) and math.isfinite(mn)):
                raise ValueError(f"atom {i} has a non-finite mass")
            if mp < 0.0 or mn < 0.0:
                raise ValueError(f"atom {i} has a negative mass")
            if mp + mn <= 0.0:
                raise ValueError(f"atom {i} has zero total mass")
        total = math.fsum(mp + mn for mp, mn in atoms)
        if abs(total - 1.0) > _MASS_SUM_TOL:
            raise ValueError(f"masses must sum to 1, got {total!r}")
        if not (0.0 < self.prevalence < 1.0):
            raise ValueError("both classes must carry positive mass")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def prevalence(self) -> float:
        """Total positive-class mass P[A]."""
        return math.fsum(mp for mp, _ in self.atoms)

    @property
    def posteriors(self) -> tuple[float, ...]:
        """Per-atom positive-class posterior mp / (mp + mn)."""
        return tuple(mp / (mp + mn) for mp, mn in self.atoms)

    @cached_property
    def subset_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive and negative mass of every subset, indexed by bit mask.

        Built once per population by doubling: the masks with top bit i
        are the masks below 2^i plus atom i.  Shared by every check; the
        arrays are read-only.
        """
        pos = np.empty(1 << self.n_atoms)
        neg = np.empty(1 << self.n_atoms)
        pos[0] = neg[0] = 0.0
        for i, (mp, mn) in enumerate(self.atoms):
            k = 1 << i
            np.add(pos[:k], mp, out=pos[k:2 * k])
            np.add(neg[:k], mn, out=neg[k:2 * k])
        pos.flags.writeable = False
        neg.flags.writeable = False
        return pos, neg

    @cached_property
    def _threshold_masks(self) -> np.ndarray:
        """Bit masks of every posterior threshold set, in a fixed order.

        Levels q run over the distinct atom posteriors in ascending order,
        then 0 and 1, and each level gives {posterior > q} before
        {posterior >= q}.  On a finite population every threshold set
        equals one of these.
        """
        posteriors = self.posteriors
        levels = sorted(set(posteriors)) + [0.0, 1.0]
        masks = np.array([_posterior_cut(posteriors, q, strict)
                          for q in levels for strict in (True, False)])
        masks.flags.writeable = False
        return masks


@dataclass(frozen=True)
class SubsetClassifier:
    """Classifier on a discrete population: predict positive on the listed atoms."""

    included: frozenset[int]

    def __post_init__(self) -> None:
        included = frozenset(int(i) for i in self.included)
        object.__setattr__(self, "included", included)
        if any(i < 0 for i in included):
            raise ValueError("atom indices must be nonnegative")


def _check_indices(population: DiscretePopulation, classifier: SubsetClassifier) -> None:
    bad = [i for i in classifier.included if i >= population.n_atoms]
    if bad:
        raise ValueError(f"atom indices {sorted(bad)} out of range for {population.n_atoms} atoms")


def _mask_to_indices(mask: int, n_atoms: int) -> tuple[int, ...]:
    return tuple(i for i in range(n_atoms) if mask >> i & 1)


def _posterior_cut(posteriors: tuple[float, ...], level: float, strict: bool = True) -> int:
    """Bit mask of {posterior > level}, or of {posterior >= level} when not strict."""
    return sum(1 << i for i, q in enumerate(posteriors) if (q > level if strict else q >= level))


def _blocks(population: DiscretePopulation):
    """Yield (first mask, positive masses, negative masses) for each slice of
    ``_BLOCK`` consecutive masks; the slices are views of ``subset_masses``."""
    pos, neg = population.subset_masses
    for start in range(0, pos.size, _BLOCK):
        yield start, pos[start:start + _BLOCK], neg[start:start + _BLOCK]


def subset_confusion(population: DiscretePopulation, classifier: SubsetClassifier) -> ConfusionProbs:
    """Exact confusion probabilities of a subset classifier."""
    _check_indices(population, classifier)
    p_pos_and_pred = math.fsum(population.atoms[i][0] for i in sorted(classifier.included))
    p_neg_and_pred = math.fsum(population.atoms[i][1] for i in sorted(classifier.included))
    return ConfusionProbs(
        p_pos_and_pred=p_pos_and_pred,
        p_neg_and_pred=p_neg_and_pred,
        p_pos=population.prevalence,
        p_pred=p_pos_and_pred + p_neg_and_pred,
    )


def brute_force_fbeta_max(
    population: DiscretePopulation, beta: float
) -> tuple[SubsetClassifier, float]:
    """Maximize the F measure over all 2^n subset classifiers.

    Ties are broken deterministically: among subsets attaining the maximal
    value, the lexicographically smallest sorted index tuple wins.  The
    empty prediction, whose cells are 0, scores 0.
    """
    b2 = _check_beta(beta)
    prevalence = population.prevalence
    best_value = -math.inf
    tied_masks: list[int] = []
    for start, pos, neg in _blocks(population):
        values = _f_formula(pos, prevalence, pos + neg, b2)
        block_max = float(np.max(values))
        if block_max < best_value:
            continue
        if block_max > best_value:
            best_value, tied_masks = block_max, []
        tied_masks += (start + np.flatnonzero(values == block_max)).tolist()
    n = population.n_atoms
    best_mask = min(tied_masks, key=lambda m: _mask_to_indices(m, n))
    return SubsetClassifier(frozenset(_mask_to_indices(best_mask, n))), best_value


def thresholded_fbeta_sup(population: DiscretePopulation, beta: float) -> float:
    """Best F measure over posterior threshold sets.

    Candidates are {posterior > q} and {posterior >= q} for q ranging over
    the distinct atom posteriors together with 0 and 1; on a finite
    population every threshold set equals one of these.
    """
    b2 = _check_beta(beta)
    masks = population._threshold_masks
    pos, neg = (masses[masks] for masses in population.subset_masses)
    return float(np.max(_f_formula(pos, population.prevalence, pos + neg, b2)))


@dataclass(frozen=True)
class LocalBayesReport:
    """Outcome of checking a posterior cut against constrained enumeration.

    ``constraint`` records which side was enumerated: "mass_at_least" when
    the cut level sits below the cost ratio, "mass_at_most" when above,
    "all" at equality (where the cut is globally optimal).  ``holds`` is
    true when no enumerated subset undercuts the threshold set's cost by
    more than numerical slack.
    """

    cut_level: float
    cost_ratio: float
    constraint: str
    included: frozenset[int]
    predicted_mass: float
    cut_cost: float
    best_cost: float
    holds: bool


def local_bayes_check(
    population: DiscretePopulation, cost: CostParams, cut_level: float
) -> LocalBayesReport:
    """Verify constrained cost optimality of the posterior cut at ``cut_level``.

    The cut H = {posterior > cut_level} with predicted mass m is compared
    by exhaustive enumeration against every subset whose predicted mass is
    >= m when cut_level < fp_cost / (fn_cost + fp_cost), <= m when above,
    and against every subset at equality.
    """
    if not (0.0 <= cut_level <= 1.0):
        raise ValueError(f"cut level must lie in [0, 1], got {cut_level!r}")
    prevalence = population.prevalence

    def costs(pos, neg):
        return cost.fn_cost * (prevalence - pos) + cost.fp_cost * neg

    cut_mask = _posterior_cut(population.posteriors, cut_level)
    cut_indices = frozenset(_mask_to_indices(cut_mask, population.n_atoms))
    cut_pos, cut_neg = (masses[cut_mask] for masses in population.subset_masses)
    cut_mass = float(cut_pos + cut_neg)
    cut_cost = float(costs(cut_pos, cut_neg))

    ratio = cost.posterior_cutoff
    if cut_level < ratio:
        constraint, on_side = "mass_at_least", np.greater_equal
    elif cut_level > ratio:
        constraint, on_side = "mass_at_most", np.less_equal
    else:
        constraint, on_side = "all", None

    best_cost = math.inf
    for _, pos, neg in _blocks(population):
        eligible = True if on_side is None else on_side(pos + neg, cut_mass)
        best_cost = min(best_cost, float(np.min(costs(pos, neg), where=eligible, initial=math.inf)))
    return LocalBayesReport(
        cut_level=cut_level,
        cost_ratio=ratio,
        constraint=constraint,
        included=cut_indices,
        predicted_mass=cut_mass,
        cut_cost=cut_cost,
        best_cost=best_cost,
        holds=cut_cost <= best_cost + _COST_SLACK,
    )


@dataclass(frozen=True)
class MinimaxReport:
    """Best max(fpr, fnr) over all subsets versus over likelihood-ratio
    threshold sets.  The brute-force value never exceeds the threshold
    value; ``equal`` flags whether the threshold family attains it."""

    brute_value: float
    brute_classifier: SubsetClassifier
    threshold_value: float
    threshold_classifier: SubsetClassifier
    equal: bool


def minimax_comparison(population: DiscretePopulation) -> MinimaxReport:
    """Compare exhaustive and threshold-family minimax error levels.

    Threshold sets are the upper sets of the likelihood-ratio ordering,
    equivalently of the posterior ordering: {posterior > q} and
    {posterior >= q} over the distinct posterior levels.  On atomic
    populations the brute-force minimum can be strictly smaller because
    the ratio takes only finitely many values; it can never be larger.
    """
    prevalence = population.prevalence

    def worst(pos, neg):
        return np.maximum(neg / (1.0 - prevalence), 1.0 - pos / prevalence)

    # The first subset in mask order wins ties: a later slice must be strictly better.
    brute_value, brute_mask = math.inf, 0
    for start, pos, neg in _blocks(population):
        values = worst(pos, neg)
        best = int(np.argmin(values))
        if values[best] < brute_value:
            brute_value, brute_mask = float(values[best]), start + best

    # The first threshold set in enumeration order wins ties.
    masks = population._threshold_masks
    values = worst(*(masses[masks] for masses in population.subset_masses))
    best = int(np.argmin(values))
    threshold_mask = int(masks[best])
    threshold_value = float(values[best])

    n = population.n_atoms

    return MinimaxReport(
        brute_value=brute_value,
        brute_classifier=SubsetClassifier(frozenset(_mask_to_indices(brute_mask, n))),
        threshold_value=threshold_value,
        threshold_classifier=SubsetClassifier(frozenset(_mask_to_indices(threshold_mask, n))),
        equal=abs(brute_value - threshold_value) <= _EQUALITY_TOL,
    )


def _distinct_posterior_population(rng: np.random.Generator, n_atoms: int) -> DiscretePopulation:
    counts = rng.integers(1, 1001, size=(n_atoms, 2)).astype(float)
    for _ in range(100):
        masses = counts / counts.sum()
        posteriors = masses[:, 0] / masses.sum(axis=1)
        order = np.sort(posteriors)
        if n_atoms == 1 or np.min(np.diff(order)) >= 1e-6:
            return DiscretePopulation(atoms=tuple((row[0], row[1]) for row in masses))
        # nudge colliding atoms apart, then renormalize on the next pass
        for i in range(1, n_atoms):
            ranked = np.argsort(posteriors)
            if posteriors[ranked[i]] - posteriors[ranked[i - 1]] < 1e-6:
                counts[ranked[i], 0] *= 1.0 + 1e-6 * (i + 1)
    raise RuntimeError("could not separate atom posteriors")


def _tied_posterior_population(rng: np.random.Generator, n_atoms: int) -> DiscretePopulation:
    n_groups = max(1, n_atoms // 2)
    groups = rng.integers(0, n_groups, size=n_atoms)
    groups[1] = groups[0]  # guarantee at least one genuine tie
    base = rng.integers(1, 101, size=(n_groups, 2)).astype(float)
    # scaling a pair by a power of two keeps the posterior bit-identical
    scale = np.exp2(rng.integers(0, 3, size=n_atoms).astype(float))
    counts = base[groups] * scale[:, None]
    masses = counts / counts.sum()
    return DiscretePopulation(atoms=tuple((row[0], row[1]) for row in masses))


def random_population(
    rng: np.random.Generator, n_atoms: int, tied: bool = False
) -> DiscretePopulation:
    """Seeded random population on ``n_atoms`` score atoms.

    Masses start as uniform integer counts and are normalized to sum to 1.
    By default atom posteriors are forced pairwise distinct (colliding
    atoms are perturbed by a relative 1e-6 until separated); with
    ``tied=True`` the atoms are instead built in groups sharing exactly
    equal posteriors, to exercise tie handling.
    """
    if not (2 <= n_atoms <= MAX_ATOMS):
        raise ValueError(f"n_atoms must lie in [2, {MAX_ATOMS}], got {n_atoms}")
    if tied:
        return _tied_posterior_population(rng, n_atoms)
    return _distinct_posterior_population(rng, n_atoms)
