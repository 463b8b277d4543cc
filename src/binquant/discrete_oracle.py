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
as integers, with bit i meaning atom i is included.  The positive and
negative mass of every subset are streamed in slices of ``_BLOCK``
consecutive masks by a recursive walk: the table of the low ``_LOW_ATOMS``
atoms is built once by ``_doubled``, and each slice yields itself and then
its children, each its own masses plus one atom above its top atom.  That is
``_doubled``'s own recurrence, so every mass keeps its bits.  One
pass per population, ``check_population``, reduces each slice while it is
in cache for every check at once and also returns the verdicts; no
temporary spans all 2^n subsets.  Threshold sets are evaluated at their
own masks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binormal import _check_probability
from .metrics import ConfusionProbs, CostParams, _check_beta, _f_formula

__all__ = [
    "MAX_ATOMS",
    "DiscretePopulation",
    "SubsetClassifier",
    "LocalBayesReport",
    "MinimaxReport",
    "PopulationChecks",
    "subset_confusion",
    "check_population",
    "brute_force_fbeta_max",
    "thresholded_fbeta_sup",
    "local_bayes_check",
    "minimax_comparison",
    "random_population",
]

MAX_ATOMS = 20

_MASS_SUM_TOL = 1e-12
_VERDICT_TOL = 1e-12
_LOW_ATOMS = 14
_BLOCK = 1 << _LOW_ATOMS  # masks per slice: 8 * _BLOCK bytes per float64 temporary, L2-sized


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

    @cached_property
    def prevalence(self) -> float:
        """Total positive-class mass P[A]."""
        return math.fsum(mp for mp, _ in self.atoms)

    @cached_property
    def posteriors(self) -> tuple[float, ...]:
        """Per-atom positive-class posterior mp / (mp + mn)."""
        return tuple(mp / (mp + mn) for mp, mn in self.atoms)

    @cached_property
    def subset_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive and negative mass of every subset, indexed by bit mask: ``_doubled``
        of all atoms, whose recurrence the streamed slices follow, so each value has the
        bits the checks see.  The checks themselves never hold all 2^n masses."""
        return _doubled(self.atoms)

    @cached_property
    def _threshold_masks(self) -> np.ndarray:
        """Bit masks of every posterior threshold set, in a fixed order.

        Levels q run over the distinct atom posteriors in ascending order,
        then 0 and 1, and each level gives {posterior > q} before
        {posterior >= q}.  On a finite population every threshold set
        equals one of these.
        """
        levels = sorted(set(self.posteriors)) + [0.0, 1.0]
        masks = np.column_stack([_posterior_cuts(self, levels),
                                 _posterior_cuts(self, levels, False)]).ravel()
        masks.flags.writeable = False
        return masks

    @cached_property
    def _low_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """``_doubled`` of the low ``_LOW_ATOMS`` atoms (of all atoms when there are
        no more), which is the first slice of ``_slices``."""
        return _doubled(self.atoms[:_LOW_ATOMS])

    @cached_property
    def _threshold_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive and negative mass of each of ``_threshold_masks``."""
        return _masses_at(self, self._threshold_masks)


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


def _doubled(atoms) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positive and negative mass of every subset of ``atoms``, indexed
    by bit mask and built by doubling: the masks with top bit i are the masks
    below 2^i plus atom i, so every mass is summed from 0.0 in atom order."""
    pos = np.empty(1 << len(atoms))
    neg = np.empty(1 << len(atoms))
    pos[0] = neg[0] = 0.0
    for i, (mp, mn) in enumerate(atoms):
        k = 1 << i
        np.add(pos[:k], mp, out=pos[k:2 * k])
        np.add(neg[:k], mn, out=neg[k:2 * k])
    pos.flags.writeable = False
    neg.flags.writeable = False
    return pos, neg


def _posterior_cuts(population: DiscretePopulation, levels, strict: bool = True) -> np.ndarray:
    """Int64 bit masks of {posterior > level}, or of {posterior >= level} when not
    strict, for each of ``levels``."""
    compare = np.greater if strict else np.greater_equal
    above = compare(population.posteriors, np.array(levels)[:, None])
    return above @ (1 << np.arange(population.n_atoms, dtype=np.int64))


def _slices(population: DiscretePopulation):
    """Yield (first mask, positive masses, negative masses) for each slice of
    ``_BLOCK`` consecutive masks, or of all 2^n masks when n <= ``_LOW_ATOMS``.

    The first slice is ``_low_masses``; ``_walk`` yields it and the slices below
    it, depth first and thus out of mask order.  A yielded slice is valid only
    until the next slice with its top atom is asked for.  Fresh arrays per slice
    would let glibc trim and re-fault the heap: a 20-atom pass took 1,900 page
    faults instead of a few hundred that way, and ``oracle-enum`` ran 18% slower.
    """
    pos_by_top = np.empty((len(population.atoms[_LOW_ATOMS:]), _BLOCK))
    neg_by_top = np.empty_like(pos_by_top)
    return _walk(population.atoms, pos_by_top, neg_by_top, 0, *population._low_masses,
                 _LOW_ATOMS - 1)


def _walk(atoms, pos_by_top, neg_by_top, start, pos, neg, top):
    """Yield the slice (start, pos, neg) whose top atom is ``top``, then for each atom
    i above it the slices from its child: its masses plus atom i, ``_doubled``'s own
    recurrence, so every mass is summed from 0.0 in atom order.  The child goes to
    the buffer of atom i, which no slice still in use shares, as top atoms rise
    along the path.  Not a closure: a recursive closure is a reference cycle, which
    would keep the buffers until the garbage collector runs."""
    yield start, pos, neg
    for i in range(top + 1, len(atoms)):
        kid_pos = np.add(pos, atoms[i][0], out=pos_by_top[i - _LOW_ATOMS])
        kid_neg = np.add(neg, atoms[i][1], out=neg_by_top[i - _LOW_ATOMS])
        yield from _walk(atoms, pos_by_top, neg_by_top, start | 1 << i, kid_pos, kid_neg, i)


def _masses_at(population: DiscretePopulation, masks) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative mass of the subsets in the integer array ``masks``,
    with the bits ``_slices`` gives them: the low atoms' mass from
    ``_low_masses``, then each higher atom added in order."""
    low_pos, low_neg = population._low_masses
    pos, neg = low_pos[masks & (_BLOCK - 1)], low_neg[masks & (_BLOCK - 1)]
    for i in range(_LOW_ATOMS, population.n_atoms):
        has = (masks >> i & 1).astype(bool)
        pos[has] += population.atoms[i][0]
        neg[has] += population.atoms[i][1]
    return pos, neg


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


def _subset_costs(cost: CostParams, prevalence: float, pos, neg):
    """Expected cost fn_cost (P[A] - pos) + fp_cost neg of predicting positive on
    subsets with these masses; vectorizes."""
    return cost.fn_cost * (prevalence - pos) + cost.fp_cost * neg


def _worst_error(prevalence: float, pos, neg):
    """max(fpr, fnr) of subsets with these masses; vectorizes."""
    return np.maximum(neg / (1.0 - prevalence), 1.0 - pos / prevalence)


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


@dataclass(frozen=True)
class PopulationChecks:
    """What one ``check_population`` pass found, in the order it was asked, and
    ``failed``: a ``what: detail`` line for each check that failed."""

    fbeta: tuple[tuple[SubsetClassifier, float], ...]
    local_bayes: tuple[LocalBayesReport, ...]
    minimax: MinimaxReport | None
    failed: tuple[str, ...]


def check_population(
    population: DiscretePopulation,
    betas: tuple[float, ...] = (),
    cost: CostParams | None = None,
    cut_levels: tuple[float, ...] = (),
    minimax: bool = False,
) -> PopulationChecks:
    """Run the enumeration checks in one pass over the subset masses.

    Finds the best F subset for each of ``betas``, checks the posterior cut
    at each of ``cut_levels`` under ``cost`` against its side's subsets, and
    compares the minimax levels if ``minimax`` is set.  A check fails by more
    than ``_VERDICT_TOL`` where the best F differs from ``thresholded_fbeta_sup``,
    the cut costs more than its side's best or the threshold level exceeds
    the brute-force minimax level.  Each slice is reduced for every check
    while it is in cache, sharing ``pos + neg`` and one cost array.  Each
    check reduces the slice on its own, so each result equals that of its
    public function, which is this pass asked for that check alone.
    """
    b2s = [_check_beta(beta) for beta in betas]
    _check_probability(cut_levels, "cut level")
    prevalence, n = population.prevalence, population.n_atoms

    # Each cut H = {posterior > level} with predicted mass m is compared against
    # every subset whose predicted mass is >= m when the level is below the cost
    # ratio, <= m when above, and against every subset at equality.
    ratio = None if cost is None else cost.posterior_cutoff
    cut_masks = _posterior_cuts(population, cut_levels)
    cuts = []
    for level, mask, pos, neg in zip(cut_levels, cut_masks.tolist(),
                                     *_masses_at(population, cut_masks)):
        if level < ratio:
            constraint, eligible = "mass_at_least", np.greater_equal
        elif level > ratio:
            constraint, eligible = "mass_at_most", np.less_equal
        else:
            constraint, eligible = "all", None
        cuts.append((level, mask, float(pos + neg),
                     float(_subset_costs(cost, prevalence, pos, neg)), constraint, eligible))

    f_best = [-math.inf] * len(b2s)
    f_tied: list[list[int]] = [[] for _ in b2s]
    best_costs = [math.inf] * len(cuts)
    brute = (math.inf, 0)  # (least max(fpr, fnr), its first mask)
    for start, pos, neg in _slices(population):
        predicted = pos + neg
        for k, b2 in enumerate(b2s):
            values = _f_formula(pos, prevalence, predicted, b2)
            block_max = float(values.max())
            if block_max < f_best[k]:
                continue
            if block_max > f_best[k]:
                f_best[k], f_tied[k] = block_max, []
            f_tied[k] += (start + np.flatnonzero(values == block_max)).tolist()
        if cuts:
            costs = _subset_costs(cost, prevalence, pos, neg)
            least = float(costs.min())
        for k, (_, _, cut_mass, _, _, eligible) in enumerate(cuts):
            if least >= best_costs[k]:
                continue  # no subset of this slice, eligible or not, costs less
            if eligible is None:
                best_costs[k] = least
            else:
                best_costs[k] = min(best_costs[k], float(
                    costs[eligible(predicted, cut_mass)].min(initial=math.inf)))
        if minimax:
            values = _worst_error(prevalence, pos, neg)
            best = int(values.argmin())
            # The first subset in mask order wins ties, and the slices come out of mask order.
            brute = min(brute, (float(values[best]), start + best))

    def classifier(mask: int) -> SubsetClassifier:
        return SubsetClassifier(frozenset(_mask_to_indices(mask, n)))

    # Among tied F maxima, the lexicographically smallest sorted index tuple wins.
    fbeta = tuple((classifier(min(tied, key=lambda m: _mask_to_indices(m, n))), value)
                  for tied, value in zip(f_tied, f_best))
    thresholds = [thresholded_fbeta_sup(population, beta) for beta in betas]
    failed = [f"fbeta beta={beta:g}: brute={brute!r} threshold={threshold!r}"
              for beta, (_, brute), threshold in zip(betas, fbeta, thresholds)
              if abs(brute - threshold) > _VERDICT_TOL]
    local_bayes = tuple(
        LocalBayesReport(cut_level=level, cost_ratio=ratio, constraint=constraint,
                         included=frozenset(_mask_to_indices(mask, n)), predicted_mass=cut_mass,
                         cut_cost=cut_cost, best_cost=best_cost,
                         holds=cut_cost <= best_cost + _VERDICT_TOL)
        for (level, mask, cut_mass, cut_cost, constraint, _), best_cost in zip(cuts, best_costs))
    failed += [f"local-bayes cut={r.cut_level!r}: cut_cost={r.cut_cost!r} best={r.best_cost!r}"
               for r in local_bayes if not r.holds]
    report = None
    if minimax:
        brute_value, brute_mask = brute
        # The first threshold set in enumeration order wins ties.
        values = _worst_error(prevalence, *population._threshold_masses)
        best = int(np.argmin(values))
        threshold_value = float(values[best])
        report = MinimaxReport(
            brute_value=brute_value,
            brute_classifier=classifier(brute_mask),
            threshold_value=threshold_value,
            threshold_classifier=classifier(int(population._threshold_masks[best])),
            equal=abs(brute_value - threshold_value) <= _VERDICT_TOL,
        )
        if brute_value > threshold_value + _VERDICT_TOL:
            failed.append(f"minimax: brute={brute_value!r} threshold={threshold_value!r}")
    return PopulationChecks(fbeta, local_bayes, report, tuple(failed))


def brute_force_fbeta_max(
    population: DiscretePopulation, beta: float
) -> tuple[SubsetClassifier, float]:
    """Maximize the F measure over all 2^n subset classifiers.

    Ties are broken deterministically: among subsets attaining the maximal
    value, the lexicographically smallest sorted index tuple wins.  The
    empty prediction, whose cells are 0, scores 0.
    """
    return check_population(population, betas=(beta,)).fbeta[0]


def thresholded_fbeta_sup(population: DiscretePopulation, beta: float) -> float:
    """Best F measure over posterior threshold sets.

    Candidates are {posterior > q} and {posterior >= q} for q ranging over
    the distinct atom posteriors together with 0 and 1; on a finite
    population every threshold set equals one of these.
    """
    b2 = _check_beta(beta)
    pos, neg = population._threshold_masses
    return float(np.max(_f_formula(pos, population.prevalence, pos + neg, b2)))


def local_bayes_check(
    population: DiscretePopulation, cost: CostParams, cut_level: float
) -> LocalBayesReport:
    """Verify constrained cost optimality of the posterior cut at ``cut_level``.

    The cut H = {posterior > cut_level} with predicted mass m is compared
    by exhaustive enumeration against every subset whose predicted mass is
    >= m when cut_level < fp_cost / (fn_cost + fp_cost), <= m when above,
    and against every subset at equality.
    """
    return check_population(population, cost=cost, cut_levels=(cut_level,)).local_bayes[0]


def minimax_comparison(population: DiscretePopulation) -> MinimaxReport:
    """Compare exhaustive and threshold-family minimax error levels.

    Threshold sets are the upper sets of the likelihood-ratio ordering,
    equivalently of the posterior ordering: {posterior > q} and
    {posterior >= q} over the distinct posterior levels.  On atomic
    populations the brute-force minimum can be strictly smaller because
    the ratio takes only finitely many values; it can never be larger.
    """
    return check_population(population, minimax=True).minimax


def _distinct_posterior_population(rng: np.random.Generator, n_atoms: int) -> DiscretePopulation:
    counts = rng.integers(1, 1001, size=(n_atoms, 2)).astype(float)
    for _ in range(100):
        masses = counts / counts.sum()
        posteriors = masses[:, 0] / masses.sum(axis=1)
        order = np.sort(posteriors)
        if n_atoms == 1 or np.min(np.diff(order)) >= 1e-6:
            return DiscretePopulation(atoms=tuple((row[0], row[1]) for row in masses))
        # nudge colliding atoms apart, then renormalize on the next pass
        ranked = np.argsort(posteriors)
        for i in range(1, n_atoms):
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
