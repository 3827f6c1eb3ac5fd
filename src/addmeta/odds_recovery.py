"""Combined odds ratio for the additive model from reported pairwise ORs.

Binary-phenotype studies usually publish two odds ratios (AB vs AA and
BB vs AB) with 95% confidence intervals and the genotype-group totals, but
not the underlying 2x2 tables.  This module recovers integer candidate
tables from each (OR, CI, margins) record through the closed-form quadratic
of Di Pietrantonj, selects the candidate pairing whose shared AB rows are
closest in Euclidean distance, merges the pair into a 3x2 table, and fits a
logistic regression of phenotype on risk-allele count (codes 1, 2, 3) to
produce the single additive-model odds ratio with a Wald interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

Z_95 = 1.96
MAX_NEWTON_ITERATIONS = 50

Label = Literal["AB_vs_AA", "BB_vs_AB"]
Branch = Literal["plus", "minus"]


class NegativeDiscriminantError(ValueError):
    """The quadratic has no real root: the record is internally inconsistent."""


class InfeasibleTableError(ValueError):
    """No recovered candidate fits inside the reported margins."""


class SeparationError(RuntimeError):
    """The logistic fit diverges (perfect separation across genotype codes)."""


class ConvergenceError(RuntimeError):
    """The logistic fit failed to converge within the iteration budget."""


@dataclass(frozen=True)
class ORRecord:
    """One reported comparison: odds ratio, 95% CI and the two group totals.

    ``m_top`` is the total of the group in the numerator rows of the 2x2
    table (AB for AB_vs_AA, BB for BB_vs_AB); ``m_bottom`` the reference
    group's total.
    """

    label: Label
    or_value: float
    ci_lo: float
    ci_hi: float
    m_top: int
    m_bottom: int

    def __post_init__(self):
        if self.label not in ("AB_vs_AA", "BB_vs_AB"):
            raise ValueError(f"label must be 'AB_vs_AA' or 'BB_vs_AB', got {self.label!r}")
        if self.or_value <= 0:
            raise ValueError(f"odds ratio must be > 0, got {self.or_value}")
        if not (0 < self.ci_lo < self.ci_hi):
            raise ValueError(f"need 0 < ci_lo < ci_hi, got ({self.ci_lo}, {self.ci_hi})")
        if not (self.ci_lo <= self.or_value <= self.ci_hi):
            raise ValueError(f"odds ratio {self.or_value} outside its CI ({self.ci_lo}, {self.ci_hi})")
        if self.m_top < 1 or self.m_bottom < 1:
            raise ValueError(f"margins must be >= 1, got ({self.m_top}, {self.m_bottom})")


@dataclass(frozen=True)
class CandidateTable:
    """One recovered 2x2 table, before and after margin-preserving rounding."""

    root_branch: Branch
    a: float
    b: float
    c: float
    d: float
    cells: tuple[int, int, int, int]  # rounded (a, b, c, d)

    @property
    def top_row(self) -> tuple[int, int]:
        return self.cells[0], self.cells[1]

    @property
    def bottom_row(self) -> tuple[int, int]:
        return self.cells[2], self.cells[3]


@dataclass(frozen=True)
class MergedTable:
    """3x2 table of (present, absent) counts for BB, AB and AA."""

    bb: tuple[int, int]
    ab: tuple[int, int]
    aa: tuple[int, int]
    ab_branch: Branch
    bb_branch: Branch
    ab_distance: float

    def __post_init__(self):
        if any(v < 0 for row in (self.bb, self.ab, self.aa) for v in row):
            raise ValueError(f"merged table has a negative cell: {self}")

    @property
    def pairing(self) -> str:
        return f"{self.ab_branch}+{self.bb_branch}"


@dataclass(frozen=True)
class CombinedOR:
    or_value: float
    ci_lo: float
    ci_hi: float
    beta: float
    se_beta: float
    iterations_used: int


def se_from_ci(ci_lo: float, ci_hi: float) -> float:
    """Standard error of log-OR backed out of a 95% interval."""
    if not (0 < ci_lo < ci_hi):
        raise ValueError(f"need 0 < ci_lo < ci_hi, got ({ci_lo}, {ci_hi})")
    return (math.log(ci_hi) - math.log(ci_lo)) / (2.0 * Z_95)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _complete(a: float, or_value: float, m1: int, m2: int) -> tuple[float, float, float, float]:
    denom = or_value * m1 + a * (1.0 - or_value)
    if denom == 0:
        raise InfeasibleTableError(f"degenerate completion at a={a}")
    b = m1 - a
    c = a * m2 / denom
    d = or_value * m2 * (m1 - a) / denom
    return a, b, c, d


def recover_tables(record: ORRecord) -> list[CandidateTable]:
    """Recover the feasible candidate 2x2 tables behind one OR record.

    Solves the quadratic in the top-left cell ``a`` whose coefficients come
    from the reported OR, the CI-implied SE of log-OR, and the margins; each
    real root is completed to a full table and rounded so the margins are
    preserved exactly.  Roots landing outside the margins (any cell below
    -0.5 or more than half a count above its margin) are dropped.
    """
    or_value = record.or_value
    m1, m2 = record.m_top, record.m_bottom
    se2 = se_from_ci(record.ci_lo, record.ci_hi) ** 2
    alpha = (1.0 - or_value) ** 2 + or_value * m2 * se2
    lam = or_value * m1 * (2.0 * (1.0 - or_value) - m2 * se2)
    gamma = or_value * m1 * (or_value * m1 + m2)
    disc = lam * lam - 4.0 * alpha * gamma
    if disc < 0:
        if disc > -1e-9 * max(lam * lam, 1.0):
            disc = 0.0  # grazing root, lost to rounding
        else:
            raise NegativeDiscriminantError(f"no real solution for {record}")
    sqrt_disc = math.sqrt(disc)
    candidates = []
    for branch, signed in (("plus", sqrt_disc), ("minus", -sqrt_disc)):
        a = -(lam + signed) / (2.0 * alpha)
        cells = _complete(a, or_value, m1, m2)
        a_, b_, c_, d_ = cells
        feasible = (
            -0.5 < a_ < m1 + 0.5
            and -0.5 < b_ < m1 + 0.5
            and -0.5 < c_ < m2 + 0.5
            and -0.5 < d_ < m2 + 0.5
        )
        if not feasible:
            continue
        a_int = min(max(_round_half_away(a_), 0), m1)
        c_int = min(max(_round_half_away(c_), 0), m2)
        candidates.append(
            CandidateTable(
                root_branch=branch,
                a=a_,
                b=b_,
                c=c_,
                d=d_,
                cells=(a_int, m1 - a_int, c_int, m2 - c_int),
            )
        )
    if not candidates:
        raise InfeasibleTableError(f"both recovered tables fall outside the margins for {record}")
    return candidates


def _row_distance(row_a: Sequence[int], row_b: Sequence[int]) -> float:
    return math.hypot(row_a[0] - row_b[0], row_a[1] - row_b[1])


def select_pairing(
    ab_aa_candidates: Sequence[CandidateTable],
    bb_ab_candidates: Sequence[CandidateTable],
    ab_margin_top: int,
    ab_margin_bottom: int,
) -> MergedTable:
    """Pick the candidate pair with the closest AB rows and merge to 3x2.

    The AB genotype appears in both tables (top row of AB_vs_AA, bottom row
    of BB_vs_AB); the winning pair is the one minimizing the Euclidean
    distance between those two rows, ties broken by enumeration order
    (plus before minus, AB_vs_AA candidate varying slowest).  The merged AB
    row is the column-wise average of the two rows, rounded half away from
    zero with the absent cell adjusted to preserve the AB margin.

    ``ab_margin_top`` / ``ab_margin_bottom`` are the AB totals as reported in
    the AB_vs_AA and BB_vs_AB records respectively (normally equal).
    """
    if not ab_aa_candidates or not bb_ab_candidates:
        raise ValueError("need at least one candidate per record")
    best = None
    for ab_cand in ab_aa_candidates:
        for bb_cand in bb_ab_candidates:
            dist = _row_distance(ab_cand.top_row, bb_cand.bottom_row)
            if best is None or dist < best[0]:
                best = (dist, ab_cand, bb_cand)
    dist, ab_cand, bb_cand = best
    margin = _round_half_away((ab_margin_top + ab_margin_bottom) / 2.0)
    present = _round_half_away((ab_cand.top_row[0] + bb_cand.bottom_row[0]) / 2.0)
    present = min(max(present, 0), margin)
    return MergedTable(
        bb=bb_cand.top_row,
        ab=(present, margin - present),
        aa=ab_cand.bottom_row,
        ab_branch=ab_cand.root_branch,
        bb_branch=bb_cand.root_branch,
        ab_distance=dist,
    )


def _logistic_fit(y_counts: np.ndarray, totals: np.ndarray, x: np.ndarray):
    """Newton-Raphson MLE of logit(p) = b0 + b1*x on grouped counts."""
    design = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    trail = []
    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        score = design.T @ (y_counts - totals * p)
        weights = totals * p * (1.0 - p)
        info = design.T @ (weights[:, None] * design)
        if not np.all(np.isfinite(info)):
            raise SeparationError(f"information matrix not finite after {iteration} iterations")
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(f"singular information matrix at iteration {iteration}") from exc
        beta = beta + step
        trail.append((iteration, float(beta[0]), float(beta[1]), float(np.max(np.abs(score)))))
        # a log-OR this size only arises when the likelihood has no maximum
        if abs(beta[1]) > 20.0:
            raise SeparationError(f"slope diverging (b1={beta[1]:.3g}) after {iteration} iterations")
        if np.max(np.abs(score)) < 1e-10 or np.max(np.abs(step)) < 1e-10:
            eta = design @ beta
            p = 1.0 / (1.0 + np.exp(-eta))
            weights = totals * p * (1.0 - p)
            info = design.T @ (weights[:, None] * design)
            covariance = np.linalg.inv(info)
            return beta, covariance, iteration
    raise ConvergenceError(f"no convergence in {MAX_NEWTON_ITERATIONS} iterations; trail={trail}")


def combined_or(merged: MergedTable) -> CombinedOR:
    """Additive-model odds ratio from the merged 3x2 table.

    Fits logit(P(present)) = b0 + b1*code by Newton-Raphson on the grouped
    counts (identical likelihood to the expanded indicator vectors) and
    exponentiates the slope; the CI is Wald with the SE from the inverse
    observed information.
    """
    y = np.array([merged.aa[0], merged.ab[0], merged.bb[0]], dtype=float)
    totals = np.array([sum(merged.aa), sum(merged.ab), sum(merged.bb)], dtype=float)
    x = np.array([1.0, 2.0, 3.0])
    keep = totals > 0
    if keep.sum() < 2:
        raise ValueError("need counts in at least two genotype groups")
    total_present = y.sum()
    if total_present == 0 or total_present == totals.sum():
        raise ValueError("phenotype vector is constant; no odds ratio is identifiable")
    beta, covariance, iterations = _logistic_fit(y[keep], totals[keep], x[keep])
    b1 = float(beta[1])
    se = math.sqrt(covariance[1, 1])
    return CombinedOR(
        or_value=math.exp(b1),
        ci_lo=math.exp(b1 - Z_95 * se),
        ci_hi=math.exp(b1 + Z_95 * se),
        beta=b1,
        se_beta=se,
        iterations_used=iterations,
    )


def combine_reported_ors(ab_record: ORRecord, bb_record: ORRecord) -> tuple[MergedTable, CombinedOR]:
    """Full pipeline for one study's pair of reported ORs."""
    if ab_record.label != "AB_vs_AA" or bb_record.label != "BB_vs_AB":
        raise ValueError("expected one AB_vs_AA record and one BB_vs_AB record, in that order")
    merged = select_pairing(
        recover_tables(ab_record),
        recover_tables(bb_record),
        ab_margin_top=ab_record.m_top,
        ab_margin_bottom=bb_record.m_bottom,
    )
    return merged, combined_or(merged)
