"""Shannon entropy calculus over finite distributions and joint tables.

All quantities are in bits (base-2 logarithms) with the convention
0 * log2(0) = 0, so structurally forbidden outcomes contribute nothing.
Process-level rates (entropy rate, excess entropy) are defined here as
well; they operate on validated machines from :mod:`pattherm.process_model`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AxisError, BlockTooLargeError, DistributionError, NonConvergedWarning

PROB_TOL = 1e-12


def _as_prob_array(probs, tol: float = PROB_TOL) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise DistributionError("empty probability table")
    if p.min() < -tol:
        raise DistributionError(f"negative probability {p.min()!r}")
    total = p.sum()
    if abs(total - 1.0) > max(tol, 1e-12 * p.size):
        raise DistributionError(f"probabilities sum to {total!r}, expected 1")
    return p


def plogp(p: np.ndarray) -> np.ndarray:
    """Elementwise p*log2(p) with 0*log2(0) = 0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0.0
    q = p[mask]
    logq = np.log2(q)
    logq *= q
    out[mask] = logq
    return out


def entropy_bits(p: np.ndarray) -> float:
    """-sum(p * log2 p) of an unchecked array, in bits.

    The one entropy sum in the package; callers that take outside input
    validate it first (see `entropy`). The sum runs over the whole array,
    zeros included: `simulate` traces print n times per-block costs built
    from these sums, so another summation order would change their bytes.
    """
    return float(-plogp(p).sum()) + 0.0  # normalize -0.0


def entropy(probs) -> float:
    """Shannon entropy of a distribution, in bits.

    Parameters
    ----------
    probs : array-like or FiniteDistribution
        Non-negative probabilities summing to 1 (tolerance 1e-12).

    Returns
    -------
    float
        -sum(p * log2 p), always >= 0.
    """
    if isinstance(probs, FiniteDistribution):
        probs = probs.probs
    return entropy_bits(_as_prob_array(probs))


@dataclass(frozen=True)
class FiniteDistribution:
    """A labelled probability distribution over finitely many outcomes."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise DistributionError("outcome labels must be unique")
        p = _as_prob_array(self.probs)
        if len(labels) != p.size:
            raise DistributionError("label/probability length mismatch")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)

    def entropy(self) -> float:
        return entropy_bits(self.probs)

    def probability(self, label) -> float:
        return float(self.probs[self.labels.index(label)])


def uniform_distribution(labels: Sequence) -> FiniteDistribution:
    n = len(labels)
    return FiniteDistribution(tuple(labels), np.full(n, 1.0 / n))


@dataclass(frozen=True)
class JointTable:
    """Joint probability table with named axes.

    The probability array has one dimension per axis name; marginals and
    the conditional/mutual-information helpers are defined over axis-name
    groups.
    """

    axes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != len(axes):
            raise AxisError(f"{len(axes)} axis names for {p.ndim}-dim table")
        if len(set(axes)) != len(axes):
            raise AxisError("axis names must be unique")
        _as_prob_array(p)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", p)

    def _axis_ids(self, names: Iterable[str] | str) -> tuple[int, ...]:
        if isinstance(names, str):
            names = (names,)
        ids = []
        for name in names:
            if name not in self.axes:
                raise AxisError(f"unknown axis {name!r}; have {self.axes}")
            ids.append(self.axes.index(name))
        if len(set(ids)) != len(ids):
            raise AxisError(f"duplicate axis in {tuple(names)!r}")
        return tuple(ids)

    def marginal(self, names: Iterable[str] | str) -> "JointTable":
        keep = self._axis_ids(names)
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        p = self.probs.sum(axis=drop) if drop else self.probs
        kept_sorted = tuple(i for i in range(self.probs.ndim) if i in keep)
        return JointTable(tuple(self.axes[i] for i in kept_sorted), p)

    def entropy(self, names: Iterable[str] | str | None = None) -> float:
        if names is None:
            return entropy_bits(self.probs)
        return self.marginal(names).entropy()

    def conditional_entropy(self, target, given) -> float:
        t = self._axis_ids(target)
        g = self._axis_ids(given)
        if set(t) & set(g):
            raise AxisError("target and given variables overlap")
        joint = tuple(self.axes[i] for i in sorted(set(t) | set(g)))
        given_names = tuple(self.axes[i] for i in g)
        return self.entropy(joint) - self.entropy(given_names)

    def mutual_information(self, group_a, group_b) -> float:
        a = self._axis_ids(group_a)
        b = self._axis_ids(group_b)
        if set(a) & set(b):
            raise AxisError("mutual-information groups overlap")
        names_a = tuple(self.axes[i] for i in a)
        names_b = tuple(self.axes[i] for i in b)
        joint = tuple(self.axes[i] for i in sorted(set(a) | set(b)))
        return self.entropy(names_a) + self.entropy(names_b) - self.entropy(joint)


def _table_of(j) -> JointTable:
    # accepts a JointTable or anything carrying one (JointBlockDistribution)
    if isinstance(j, JointTable):
        return j
    table = getattr(j, "table", None)
    if isinstance(table, JointTable):
        return table
    raise AxisError(f"expected a joint table, got {type(j).__name__}")


def conditional_entropy(j, target, given) -> float:
    """H(target | given) = H(target, given) - H(given), in bits."""
    return _table_of(j).conditional_entropy(target, given)


def mutual_information(j, group_a, group_b) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), in bits; symmetric in A and B."""
    return _table_of(j).mutual_information(group_a, group_b)


def symbol_entropy_given_state(m) -> float:
    """H(X^{t+1} | R^t) of a validated machine at its stationary state."""
    pi = m.stationary().probs
    return float(-(pi[:, None] * plogp(m.emission_matrix())).sum()) + 0.0


def entropy_rate(m) -> float:
    """Per-symbol entropy of the process, conditioned on the causal state.

    The input presentation is minimized first so the conditioning state is
    the causal one; pass a CausalMachine to skip the (idempotent) minimize.
    """
    from .causal_structure import as_causal

    return symbol_entropy_given_state(as_causal(m).machine)


def block_entropy(m, length: int, block_budget: int | None = None) -> float:
    """Entropy of the stationary length-`length` word distribution, in bits."""
    if length == 0:
        return 0.0
    words = m.word_state_vectors(length, block_budget=block_budget)
    return entropy_bits(words.sum(axis=1))


@dataclass(frozen=True)
class ExcessEntropyResult:
    """Block-mutual-information estimate of the excess entropy."""

    value: float
    converged: bool
    stopped_at: int
    history: tuple[tuple[int, float], ...]
    tol: float

    def __float__(self):
        return self.value

    @property
    def converged_at(self) -> int | None:
        """First block length whose value the estimate never moved from."""
        if not self.converged:
            return None
        return max(1, self.stopped_at - 1)


def excess_entropy(
    m,
    L_max: int = 12,
    tol: float = 1e-9,
    block_budget: int | None = None,
) -> ExcessEntropyResult:
    """Past/future mutual information E, by block convergence.

    Computes E(L) = I(X^{-L+1..0}; X^{1..L}) = 2*H(L) - H(2L) for growing L
    and stops once successive values differ by less than `tol`. If L_max
    (or the block budget, which caps the 2L-word enumeration) is reached
    first, the last value is returned flagged non-converged and a
    NonConvergedWarning is issued.
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    history: list[tuple[int, float]] = []
    prev = None
    for L in range(1, L_max + 1):
        try:
            e_l = 2.0 * block_entropy(m, L, block_budget) - block_entropy(
                m, 2 * L, block_budget
            )
        except BlockTooLargeError:
            break
        history.append((L, e_l))
        if prev is not None and abs(e_l - prev) < tol:
            return ExcessEntropyResult(e_l, True, L, tuple(history), tol)
        if prev is None and e_l < tol:
            # i.i.d. case: E(1) already indistinguishable from zero
            return ExcessEntropyResult(e_l, True, L, tuple(history), tol)
        prev = e_l
    value = history[-1][1] if history else 0.0
    stopped = history[-1][0] if history else 0
    warnings.warn(
        f"excess entropy not converged to {tol} by L={stopped}",
        NonConvergedWarning,
        stacklevel=2,
    )
    return ExcessEntropyResult(value, False, stopped, tuple(history), tol)
