"""Shannon entropy calculus over probability arrays and joint tables.

A probability vector is a plain float array; `_as_prob_array` is the one
check of a table that comes from outside. All quantities are in bits
(base-2 logarithms) with the convention 0 * log2(0) = 0, so structurally
forbidden outcomes contribute nothing.
Process-level rates (entropy rate, excess entropy) are defined here as
well; they operate on validated machines from :mod:`pattherm.process_model`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BlockTooLargeError, DistributionError, NonConvergedWarning

PROB_TOL = 1e-12


def _as_prob_array(probs, tol: float = PROB_TOL) -> np.ndarray:
    """`probs` as a float array; DistributionError unless it is non-empty,
    finite, non-negative and sums to 1 within `tol`."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise DistributionError("empty probability table")
    total = p.sum()
    if not np.isfinite(total):  # a NaN or infinite entry reaches the sum
        raise DistributionError(f"probabilities must be finite, they sum to {total!r}")
    if p.min() < -tol:
        raise DistributionError(f"negative probability {p.min()!r}")
    if abs(total - 1.0) > max(tol, 1e-12 * p.size):
        raise DistributionError(f"probabilities sum to {total!r}, expected 1")
    return p


def plogp(p: np.ndarray) -> np.ndarray:
    """Elementwise p*log2(p) with 0*log2(0) = 0."""
    p = np.asarray(p, dtype=float)
    out = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    out *= p
    return out


def entropy_bits(p: np.ndarray) -> float:
    """-sum(p * log2 p) of an unchecked array, in bits.

    The one entropy sum in the package; callers that take outside input
    validate it first with `_as_prob_array`. The sum runs over the whole
    array, zeros included: `simulate` traces print n times per-block costs
    built from these sums, so another summation order would change their
    bytes.
    """
    return float(-plogp(p).sum()) + 0.0  # normalize -0.0


@dataclass(frozen=True)
class JointTable:
    """Joint probability table with named axes.

    The probability array has one dimension per axis name. `entropy`
    reads the joint entropy of any group of axes, summing out the rest.
    """

    axes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        _as_prob_array(self.probs)

    def entropy(self, names: Iterable[str] | str | None = None) -> float:
        """Joint entropy of the named axes (all of them by default), in bits."""
        if names is None:
            return entropy_bits(self.probs)
        if isinstance(names, str):
            names = (names,)
        keep = [self.axes.index(name) for name in names]  # ValueError on an unknown name
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate axis in {tuple(names)!r}")
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        return entropy_bits(self.probs.sum(axis=drop) if drop else self.probs)


def symbol_entropy_given_state(m) -> float:
    """H(X^{t+1} | R^t) of a validated machine at its stationary state."""
    pi = m.stationary()
    return float(-(pi[:, None] * plogp(m.emission_matrix())).sum()) + 0.0


def entropy_rate(m) -> float:
    """Per-symbol entropy of the process, conditioned on the causal state.

    The input presentation is minimized first so the conditioning state is
    the causal one; pass a CausalMachine to skip the (idempotent) minimize.
    """
    from .causal_structure import as_causal

    return symbol_entropy_given_state(as_causal(m).machine)


@dataclass(frozen=True)
class ExcessEntropyResult:
    """Block-mutual-information estimate of the excess entropy."""

    value: float
    converged: bool
    stopped_at: int
    history: tuple[tuple[int, float], ...]

    def __float__(self):
        return self.value

    @property
    def converged_at(self) -> int | None:
        """First block length whose value the estimate never moved from."""
        if not self.converged:
            return None
        return max(1, self.stopped_at - 1)


def excess_entropy(m, L_max: int = 12, tol: float = 1e-9) -> ExcessEntropyResult:
    """Past/future mutual information E, by block convergence.

    Computes E(L) = I(X^{-L+1..0}; X^{1..L}) = 2*H(L) - H(2L) for growing L
    and stops once successive values differ by less than `tol`. If L_max
    is reached first, or 2L words would pass the word budget
    (`check_budget`), the last value is returned flagged non-converged and
    a NonConvergedWarning is issued.

    Each block is split at its middle: P(uv) = sum_i P(u, state i after u)
    P(v | state i) holds for any edge-emitting presentation, so H(j) is the
    entropy of past[ceil(j/2)] @ future[floor(j/2)]. past[l] is the length-l
    word-state table (`extend_words`) and future[l] the state-word table
    (`prepend_symbols`). The largest array is that |A|^(2L)-word product,
    which `check_budget(2L)` bounds; its columns are not big-endian, which
    the entropy does not see.
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    past = [m.stationary()[None, :]]
    future = [np.ones((m.n_states, 1))]
    history: list[tuple[int, float]] = []
    prev = None
    for L in range(1, L_max + 1):
        try:
            m.check_budget(2 * L)
        except BlockTooLargeError:
            break
        past.append(m.extend_words(past[-1]))
        future.append(m.prepend_symbols(future[-1]))
        h_l, h_2l = (entropy_bits(past[(j + 1) // 2] @ future[j // 2]) for j in (L, 2 * L))
        e_l = 2.0 * h_l - h_2l
        history.append((L, e_l))
        if prev is not None and abs(e_l - prev) < tol:
            return ExcessEntropyResult(e_l, True, L, tuple(history))
        if prev is None and e_l < tol:
            # i.i.d. case: E(1) already indistinguishable from zero
            return ExcessEntropyResult(e_l, True, L, tuple(history))
        prev = e_l
    value = history[-1][1] if history else 0.0
    stopped = history[-1][0] if history else 0
    warnings.warn(
        f"excess entropy not converged to {tol} by L={stopped}",
        NonConvergedWarning,
        stacklevel=2,
    )
    return ExcessEntropyResult(value, False, stopped, tuple(history))
