"""Filling holes: reconstructing unknown cells from Ratio Rules.

Implements the paper's Sec. 4.4 / Fig. 3.  Given a row with ``h``
unknown entries ("holes", marked NaN here) and a rule set ``V``
(``M x k``), find the point on (or nearest to) the rank-``k``
"RR-hyperplane" consistent with the known entries:

1. ``V' = E_H V`` -- drop the hole rows of ``V``;
2. ``b' = E_H b`` -- the known, centered entries;
3. solve ``V' x_concept = b'`` for the ``k``-space solution;
4. ``b_hat = V x_concept`` -- back to ``M``-space;
5. keep the given entries, fill the holes from ``b_hat``.

The solve in step 3 has three regimes, dispatched on ``(M - h)`` vs
``k`` exactly as the paper describes:

- **exactly-specified** (``M - h == k``): square system, direct solve
  (Eq. 6); if ``V'`` happens to be singular we fall back to the
  minimum-norm pseudo-inverse solution instead of failing;
- **over-specified** (``M - h > k``): more equations than unknowns; the
  closest point is the least-squares solution via the Moore-Penrose
  pseudo-inverse of ``V'`` (Eq. 7-9);
- **under-specified** (``M - h < k``): infinitely many solutions; the
  paper keeps the one needing the fewest eigenvectors, i.e. drops the
  ``(k + h) - M`` weakest rules so the system becomes square, then
  solves as CASE 1.

The degenerate extremes fall out naturally: ``h == M`` (nothing known)
predicts the column means, and ``h == 0`` (nothing to fill) returns the
row unchanged.

The under-specified case admits an alternative the paper does not
discuss: the **minimum-norm** solution over *all* ``k`` rules
(``underdetermined="min-norm"``).  The paper's truncation can misfire
badly when the strongest rules barely load on the known attributes --
the tiny retained coefficients get divided into the knowns and the
concept explodes -- whereas the minimum-norm solution spreads the
explanation across whichever rules actually involve the known
attributes.  The paper's behaviour remains the default.

Exactness contract
------------------
For a fixed hole pattern the whole reconstruction is *linear* in the
centered known entries, so every entry point here routes through one
precomputed :class:`FillOperator` and one shared apply kernel
(:func:`apply_fill_operator`).  The kernel is an ``einsum`` whose
per-row float operations do not depend on how many rows are applied at
once, so a row filled alone, inside :func:`fill_matrix`, or through the
cached batch path in :mod:`repro.serve` produces **bit-identical**
results.  (BLAS GEMM/GEMV kernels do not have this property, which is
why the kernel deliberately avoids them.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "CASE_EXACT",
    "CASE_OVER",
    "CASE_UNDER",
    "CASE_ALL_HOLES",
    "CASE_NO_HOLES",
    "FillOperator",
    "HoleFillResult",
    "apply_fill_operator",
    "compute_fill_operator",
    "fill_holes",
    "fill_matrix",
    "hole_fill_operator",
]

CASE_EXACT = "exactly-specified"
CASE_OVER = "over-specified"
CASE_UNDER = "under-specified"
CASE_ALL_HOLES = "all-holes"
CASE_NO_HOLES = "no-holes"

#: Condition-number bound beyond which a square ``V'`` is treated as
#: singular and solved by pseudo-inverse instead.
_MAX_SQUARE_CONDITION = 1e10

#: Absolute norm below which ``V'`` is treated as carrying no rule
#: information at all.  Rule columns are unit vectors, so a ``V'``
#: whose entries are all ~1e-10 is round-off noise -- solving against
#: it would amplify that noise by ~1e10; the principled answer is
#: "the known entries tell us nothing: predict the means".
_MIN_INFORMATIVE_NORM = 1e-9


@dataclass(frozen=True)
class HoleFillResult:
    """Outcome of one hole-filling solve.

    Attributes
    ----------
    filled:
        Full length-``M`` row: given entries untouched, holes replaced
        by their reconstructions.
    concept:
        The rule-space solution ``x_concept`` (length = rules actually
        used; empty for the all-holes case).
    case:
        Which regime was dispatched: one of :data:`CASE_EXACT`,
        :data:`CASE_OVER`, :data:`CASE_UNDER`, :data:`CASE_ALL_HOLES`,
        :data:`CASE_NO_HOLES`.
    rules_used:
        How many of the ``k`` rules participated (< k only in the
        under-specified case).
    """

    filled: np.ndarray
    concept: np.ndarray
    case: str
    rules_used: int


def _classify(n_known: int, k: int) -> Tuple[str, int]:
    """Map (number of equations, number of rules) to (case, rules used)."""
    if n_known == k:
        return CASE_EXACT, k
    if n_known > k:
        return CASE_OVER, k
    return CASE_UNDER, n_known


def _is_well_conditioned(matrix: np.ndarray) -> bool:
    """Cheap condition check for small square systems."""
    try:
        condition = np.linalg.cond(matrix)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(condition) and condition < _MAX_SQUARE_CONDITION)


def apply_fill_operator(operator: np.ndarray, centered_rows: np.ndarray) -> np.ndarray:
    """Apply a linear fill map to one or many centered rows.

    ``operator`` is ``p x q`` and ``centered_rows`` is ``n x q``; the
    result is ``n x p``.  The contraction is an ``einsum`` rather than
    a BLAS matmul because each output row must be bitwise independent
    of the batch size -- this is what lets the serving layer promise
    batch fills bit-identical to row-by-row fills.
    """
    return np.einsum("pq,nq->np", operator, centered_rows)


@dataclass(frozen=True)
class FillOperator:
    """The precomputed linear reconstruction for one hole pattern.

    For a fixed hole pattern ``H`` the Sec.-4.4 solve collapses to two
    matrices applied to the centered known entries ``b'``:

    - ``operator`` (``h x (M - h)``): ``b_hat[H] - means[H] = operator @ b'``
      -- the hole predictions;
    - ``solver`` (``rules_used x (M - h)``): ``x_concept = solver @ b'``
      -- the rule-space solution (diagnostic; zero rows for the
      all-holes pattern).

    Instances are immutable and safe to share across threads, which is
    what makes them cacheable (see :class:`repro.serve.OperatorCache`).

    Attributes
    ----------
    hole_indices:
        Sorted hole positions the operator was built for.
    n_cols:
        ``M``, the full row width.
    operator, solver:
        The two linear maps described above.
    case:
        Dispatched regime (:data:`CASE_EXACT` / :data:`CASE_OVER` /
        :data:`CASE_UNDER` / :data:`CASE_ALL_HOLES`).
    rules_used:
        Rules participating in the solve (``< k`` only for the paper's
        truncating under-specified policy).
    underdetermined:
        The CASE-3 policy the operator was built under.
    """

    hole_indices: Tuple[int, ...]
    n_cols: int
    operator: np.ndarray
    solver: np.ndarray
    case: str
    rules_used: int
    underdetermined: str

    @property
    def n_holes(self) -> int:
        """Number of holes in the pattern."""
        return len(self.hole_indices)

    @property
    def n_known(self) -> int:
        """Number of known entries in the pattern."""
        return self.n_cols - len(self.hole_indices)

    @functools.cached_property
    def known_indices(self) -> np.ndarray:
        """Sorted positions of the known entries (computed once)."""
        mask = np.ones(self.n_cols, dtype=bool)
        mask[list(self.hole_indices)] = False
        known = np.nonzero(mask)[0]
        known.flags.writeable = False  # shared by every caller
        return known

    def predict(self, centered_known_rows: np.ndarray) -> np.ndarray:
        """Centered hole predictions for ``n x (M - h)`` centered knowns."""
        return apply_fill_operator(self.operator, centered_known_rows)

    def concepts(self, centered_known_rows: np.ndarray) -> np.ndarray:
        """Rule-space solutions for ``n x (M - h)`` centered knowns."""
        return apply_fill_operator(self.solver, centered_known_rows)


def compute_fill_operator(
    hole_indices: Sequence[int],
    rules_matrix: np.ndarray,
    n_cols: int,
    *,
    underdetermined: str = "truncate",
) -> FillOperator:
    """Build the :class:`FillOperator` for one hole pattern.

    This is the single factory behind :func:`fill_holes`,
    :func:`fill_matrix`, :func:`hole_fill_operator` and the
    :mod:`repro.serve` cache: every reconstruction in the library flows
    through an operator built here, so they all agree bit for bit.

    Parameters
    ----------
    hole_indices:
        Positions of the holes (non-empty; the zero-hole pattern needs
        no operator -- :func:`fill_holes` short-circuits it).
    rules_matrix:
        ``M x k`` rule matrix ``V``.
    n_cols:
        ``M`` (validated against ``rules_matrix``).
    underdetermined:
        CASE-3 policy, as in :func:`fill_holes`.
    """
    rules_matrix = np.asarray(rules_matrix, dtype=np.float64)
    if rules_matrix.ndim != 2 or rules_matrix.shape[0] != n_cols:
        raise ValueError(
            f"rules_matrix must be {n_cols} x k, got shape {rules_matrix.shape}"
        )
    if underdetermined not in ("truncate", "min-norm"):
        raise ValueError(
            f"underdetermined must be 'truncate' or 'min-norm', "
            f"got {underdetermined!r}"
        )
    holes = np.zeros(n_cols, dtype=bool)
    hole_list = [int(i) for i in hole_indices]
    if not hole_list:
        raise ValueError("hole_indices must be non-empty")
    holes[np.asarray(hole_list, dtype=int)] = True
    n_holes = int(holes.sum())
    if n_holes != len(hole_list):
        raise ValueError("hole_indices contains duplicates")
    pattern = tuple(np.nonzero(holes)[0].tolist())
    n_known = n_cols - n_holes
    k = rules_matrix.shape[1]
    if k < 1:
        raise ValueError("need at least one rule to fill holes")
    if n_known == 0:
        # Degenerate: prediction is the mean, i.e. a zero linear map.
        return FillOperator(
            pattern, n_cols, np.zeros((n_holes, 0)), np.zeros((0, 0)),
            CASE_ALL_HOLES, 0, underdetermined,
        )

    case, rules_used = _classify(n_known, k)
    if case == CASE_UNDER and underdetermined == "min-norm":
        rules_used = k  # keep every rule; the pseudo-inverse picks min-norm
    v_known = rules_matrix[~holes, :rules_used]
    v_holes = rules_matrix[holes, :rules_used]
    if float(np.linalg.norm(v_known)) < _MIN_INFORMATIVE_NORM:
        # No rule information in the knowns: zero operator (means only).
        return FillOperator(
            pattern, n_cols, np.zeros((n_holes, n_known)),
            np.zeros((rules_used, n_known)), case, rules_used, underdetermined,
        )
    needs_pinv = (
        case == CASE_OVER
        or (case == CASE_UNDER and underdetermined == "min-norm")
        or not _is_well_conditioned(v_known)
    )
    if needs_pinv:
        from repro.linalg.svd import pseudo_inverse

        solver = pseudo_inverse(v_known)
    else:
        solver = np.linalg.inv(v_known)
    return FillOperator(
        pattern, n_cols, v_holes @ solver, solver, case, rules_used,
        underdetermined,
    )


def fill_holes(
    row: np.ndarray,
    rules_matrix: np.ndarray,
    means: np.ndarray,
    *,
    underdetermined: str = "truncate",
) -> HoleFillResult:
    """Reconstruct the NaN entries of ``row`` from the Ratio Rules.

    Parameters
    ----------
    row:
        Length-``M`` vector with holes marked as ``numpy.nan``.
    rules_matrix:
        The ``M x k`` rule matrix ``V`` (one rule per column, strongest
        first -- the ordering matters for the under-specified case).
    means:
        Length-``M`` training column means (the centering offsets).
    underdetermined:
        Under-specified-case policy: ``"truncate"`` (the paper's CASE 3
        -- drop the weakest rules until the system is square) or
        ``"min-norm"`` (minimum-norm least-squares over all rules; see
        the module docstring).

    Returns
    -------
    HoleFillResult
        Filled row plus diagnostic metadata.
    """
    row = np.asarray(row, dtype=np.float64)
    rules_matrix = np.asarray(rules_matrix, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"row must be 1-d, got ndim={row.ndim}")
    n_cols = row.shape[0]
    if rules_matrix.ndim != 2 or rules_matrix.shape[0] != n_cols:
        raise ValueError(
            f"rules_matrix must be {n_cols} x k, got shape {rules_matrix.shape}"
        )
    if means.shape != (n_cols,):
        raise ValueError(f"means must have shape ({n_cols},), got {means.shape}")
    k = rules_matrix.shape[1]
    if k < 1:
        raise ValueError("need at least one rule to fill holes")

    if underdetermined not in ("truncate", "min-norm"):
        raise ValueError(
            f"underdetermined must be 'truncate' or 'min-norm', "
            f"got {underdetermined!r}"
        )

    holes = np.isnan(row)
    if np.any(np.isinf(row)):
        raise ValueError("row contains infinities; holes must be NaN")
    n_holes = int(holes.sum())
    n_known = n_cols - n_holes

    if n_holes == 0:
        # Documented no-op fast path: nothing to fill, so no operator is
        # built (and the serving layer's operator cache is never
        # touched).  The concept is still reported for diagnostics.
        concept = rules_matrix.T @ (row - means)
        return HoleFillResult(row.copy(), concept, CASE_NO_HOLES, k)
    if n_known == 0:
        # Nothing known: the best unconditional guess is the mean row.
        return HoleFillResult(means.copy(), np.empty(0), CASE_ALL_HOLES, 0)

    fill_op = compute_fill_operator(
        np.nonzero(holes)[0], rules_matrix, n_cols,
        underdetermined=underdetermined,
    )
    b_known = (row[~holes] - means[~holes])[None, :]
    concept = fill_op.concepts(b_known)[0]
    filled = row.copy()
    filled[holes] = fill_op.predict(b_known)[0] + means[holes]
    return HoleFillResult(filled, concept, fill_op.case, fill_op.rules_used)


def hole_fill_operator(
    hole_indices: Sequence[int],
    rules_matrix: np.ndarray,
    n_cols: int,
    *,
    underdetermined: str = "truncate",
) -> Tuple[np.ndarray, str, int]:
    """Precompute the linear map from known entries to hole predictions.

    For a *fixed* hole pattern ``H``, the reconstruction is linear in
    the known (centered) entries: ``b_hat[H] = W @ b'``, where ``W``
    depends only on ``H`` and ``V``.  Precomputing ``W`` turns the
    guessing-error evaluation (same pattern applied to every test row)
    from one solve per row into one matrix multiply per pattern.

    Parameters
    ----------
    hole_indices:
        Sorted positions of the holes.
    rules_matrix:
        ``M x k`` rule matrix ``V``.
    n_cols:
        ``M`` (validated against ``rules_matrix``).
    underdetermined:
        Under-specified-case policy, matching :func:`fill_holes`:
        ``"truncate"`` (the paper's CASE 3) or ``"min-norm"``
        (minimum-norm solution over all ``k`` rules).

    Returns
    -------
    (operator, case, rules_used):
        ``operator`` is ``h x (M - h)``: multiply by the centered known
        entries to get the centered hole predictions.

    See Also
    --------
    compute_fill_operator:
        The richer factory this wraps; returns the full
        :class:`FillOperator` record (the form the serving layer
        caches).
    """
    fill_op = compute_fill_operator(
        hole_indices, rules_matrix, n_cols, underdetermined=underdetermined
    )
    return fill_op.operator, fill_op.case, fill_op.rules_used


def fill_matrix(
    matrix: np.ndarray,
    rules_matrix: np.ndarray,
    means: np.ndarray,
    *,
    underdetermined: str = "truncate",
) -> np.ndarray:
    """Fill every NaN in an ``N x M`` matrix, row by row.

    Rows sharing a hole pattern are grouped so the per-pattern solve is
    amortized (one :func:`compute_fill_operator` per distinct pattern).
    ``underdetermined`` selects the CASE-3 policy exactly as in
    :func:`fill_holes`; batch and per-row fills share the same operator
    and apply kernel, so they agree **bit for bit** (see the module
    docstring's exactness contract).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got ndim={matrix.ndim}")
    if underdetermined not in ("truncate", "min-norm"):
        raise ValueError(
            f"underdetermined must be 'truncate' or 'min-norm', "
            f"got {underdetermined!r}"
        )
    means = np.asarray(means, dtype=np.float64)
    n_cols = matrix.shape[1]
    if means.shape != (n_cols,):
        raise ValueError(f"means must have shape ({n_cols},), got {means.shape}")
    filled = matrix.copy()
    hole_mask = np.isnan(matrix)
    if not hole_mask.any():
        return filled

    # Group rows by hole pattern.
    patterns = {}
    for i in range(matrix.shape[0]):
        pattern = tuple(np.nonzero(hole_mask[i])[0].tolist())
        if pattern:
            patterns.setdefault(pattern, []).append(i)

    for pattern, row_indices in patterns.items():
        rows = np.asarray(row_indices, dtype=int)
        holes = np.asarray(pattern, dtype=int)
        known = np.setdiff1d(np.arange(n_cols), holes)
        if known.size == 0:
            filled[np.ix_(rows, holes)] = means[holes]
            continue
        fill_op = compute_fill_operator(
            pattern, rules_matrix, n_cols, underdetermined=underdetermined
        )
        b_known = matrix[np.ix_(rows, known)] - means[known]
        filled[np.ix_(rows, holes)] = fill_op.predict(b_known) + means[holes]
    return filled
