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

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Literal, Sequence

from ._defaults import require_integer
from .pooling import Z_95

MAX_NEWTON_ITERATIONS = 50
MIN_STEP_SCALE = 2.0**-30  # the smallest fraction of a Newton step tried
MAX_LOGIT_STEP = 30.0  # the most one step may move a group's fitted logit
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# totals below N at codes 1-3 keep |s0| <= 3N, |s1| <= 6N, i00 <= 3N/4, i01 <= 3N/2, i11 <= 7N/2 and
# det <= 3N^2/8, so i11*s0 - i01*s1, i00*s1 - i01*s0 and det stay below 2**5 * N**2: finite for N < 2**509
_MAX_TOTAL_EXPONENT = 509

Label = Literal["AB_vs_AA", "BB_vs_AB"]
Branch = Literal["plus", "minus"]


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
        if not (0 < self.ci_lo < self.ci_hi):
            raise ValueError(f"need 0 < ci_lo < ci_hi, got ({self.ci_lo}, {self.ci_hi})")
        if not (self.ci_lo <= self.or_value <= self.ci_hi):
            raise ValueError(f"odds ratio {self.or_value} outside its CI ({self.ci_lo}, {self.ci_hi})")
        for name in ("m_top", "m_bottom"):
            require_integer(name, getattr(self, name), 1)
            if getattr(self, name) > sys.float_info.max:  # recover_tables computes in floats
                raise ValueError(f"{name} must be at most the largest float, {sys.float_info.max:.6g}")


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
    pairing: str  # root branches of the AB_vs_AA and BB_vs_AB candidates, as "plus+minus"
    ab_distance: float


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
    return (math.log(ci_hi) - math.log(ci_lo)) / (2.0 * Z_95)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _complete(a: float, or_value: float, m1: int, m2: int) -> tuple[float, float, float, float]:
    denom = or_value * m1 + a * (1.0 - or_value)
    if denom == 0:
        raise ValueError(f"degenerate completion at a={a}")
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
    -0.5 or more than half a count above its margin) are dropped.  A
    discriminant below zero by less than 1e-9 of lam^2 is taken as a double
    root lost to rounding when that root lies inside the margins; otherwise
    the record has no real solution.  Coefficients that overflow (an OR of
    about 1e154 or more) make the record infeasible.
    """
    or_value = record.or_value
    m1, m2 = record.m_top, record.m_bottom
    se2 = se_from_ci(record.ci_lo, record.ci_hi) ** 2
    try:
        alpha = (1.0 - or_value) ** 2 + or_value * m2 * se2
    except OverflowError:  # float ** raises where * gives inf
        alpha = math.inf
    lam = or_value * m1 * (2.0 * (1.0 - or_value) - m2 * se2)
    gamma = or_value * m1 * (or_value * m1 + m2)
    if not all(map(math.isfinite, (alpha, lam, gamma))):
        raise ValueError(f"{record.label} record: the quadratic's coefficients leave the "
                         f"floating-point range for {record}")
    disc = lam * lam - 4.0 * alpha * gamma
    if disc <= -1e-9 * max(lam * lam, 1.0):
        raise ValueError(f"{record.label} record: no real solution for {record}")
    grazing = disc < 0  # a double root lost to rounding, if it lies inside the margins
    sqrt_disc = math.sqrt(max(disc, 0.0))
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
        if grazing:
            raise ValueError(f"{record.label} record: no real solution for {record}")
        raise ValueError(f"{record.label} record: both recovered tables fall outside the margins "
                         f"for {record}")
    return candidates


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
    # min keeps the first of equal distances, so ties go by enumeration order
    ab_cand, bb_cand = min(itertools.product(ab_aa_candidates, bb_ab_candidates),
                           key=lambda pair: math.dist(pair[0].top_row, pair[1].bottom_row))
    dist = math.dist(ab_cand.top_row, bb_cand.bottom_row)
    margin = _round_half_away((ab_margin_top + ab_margin_bottom) / 2.0)
    present = _round_half_away((ab_cand.top_row[0] + bb_cand.bottom_row[0]) / 2.0)
    return MergedTable(
        bb=bb_cand.top_row,
        ab=(present, margin - present),
        aa=ab_cand.bottom_row,
        pairing=f"{ab_cand.root_branch}+{bb_cand.root_branch}",
        ab_distance=dist,
    )


def _logistic(eta: float) -> float:
    """1 / (1 + e^-eta), in the form whose exponential cannot overflow."""
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    e = math.exp(eta)
    return e / (1.0 + e)


def _score_and_information(groups, b0: float, b1: float, iteration: int):
    """Score (s0, s1), information (i00, i01, i11) and its determinant at (b0, b1)."""
    s0 = s1 = i00 = i01 = i11 = 0.0
    weights = []
    for present, total, x in groups:
        eta = b0 + x * b1
        p, q = _logistic(eta), _logistic(-eta)
        # the residual from the smaller tail: total*p of about 1e9 would leave it
        # the rounding error of the larger count, far above the stopping rule
        residual = present - total * p if p <= 0.5 else total * q - (total - present)
        w = total * p * q
        s0 += residual
        s1 += x * residual
        i00 += w
        i01 += x * w
        i11 += x * (x * w)
        weights.append((w, x))
    # Cauchy-Binet: i00*i11 - i01^2 as a sum of nonnegative terms, which cannot
    # cancel when one group outweighs the others by many orders of magnitude
    det = sum(wi * wj * (xi - xj) ** 2 for (wi, xi), (wj, xj) in itertools.combinations(weights, 2))
    if det == 0:
        raise ValueError(f"singular information matrix at iteration {iteration}")
    return s0, s1, i00, i01, i11, det


def _log_likelihood(groups, b0: float, b1: float) -> float:
    """Binomial log-likelihood of the grouped counts at (b0, b1)."""
    loglik = 0.0
    for present, total, x in groups:
        eta = b0 + x * b1
        # with t = log(1 + e^-|eta|), which cannot overflow, -log p and -log q are
        # t and t + eta when eta >= 0, and t - eta and t otherwise
        t = math.log1p(math.exp(-abs(eta)))
        if eta >= 0:
            loglik -= present * t + (total - present) * (t + eta)
        else:
            loglik -= present * (t - eta) + (total - present) * t
    return loglik


def _separated(groups) -> bool:
    """Whether the codes of the groups with present and with absent counts do not overlap.

    Then, and only then, some threshold on the code has every present count on one side and
    every absent count on the other (a group at the threshold may have both): the data are
    quasi-separated and the likelihood has no finite maximum.  So are a single group, and
    groups with no present or no absent count.
    """
    present_codes = [x for present, _, x in groups if present > 0]
    absent_codes = [x for present, total, x in groups if present < total]
    return (max(absent_codes, default=-math.inf) <= min(present_codes, default=math.inf)
            or max(present_codes, default=-math.inf) <= min(absent_codes, default=math.inf))


def _logistic_fit(groups) -> tuple[float, float, int]:
    """Newton-Raphson MLE of logit(p) = b0 + b1*x on grouped counts.

    ``groups`` holds one (present, total, x) triple per genotype group with a nonzero total,
    with present and absent counts that are not separated by the code, so the MLE is finite.
    Counts past 2**_MAX_TOTAL_EXPONENT are divided by a power of two, which moves neither
    the MLE nor a step.  A step that lowers the log-likelihood by more than 1e-12 of its
    magnitude, far above its rounding, is halved until it does not, and so is one that moves
    a group's fitted logit by more than MAX_LOGIT_STEP, which can land where two groups'
    weights underflow and the next step means nothing.  Returns b1, its variance (inverse
    observed information at the fit) and the number of Newton steps.
    """
    shift = max(0, math.frexp(max(total for _, total, _ in groups))[1] - _MAX_TOTAL_EXPONENT)
    groups = [(math.ldexp(present, -shift), math.ldexp(total, -shift), x) for present, total, x in groups]
    b0 = b1 = 0.0
    loglik = _log_likelihood(groups, b0, b1)
    for iteration in range(1, MAX_NEWTON_ITERATIONS + 1):
        s0, s1, i00, i01, i11, det = _score_and_information(groups, b0, b1, iteration)
        step0 = (i11 * s0 - i01 * s1) / det
        step1 = (i00 * s1 - i01 * s0) / det
        reach = max(abs(step0 + x * step1) for _, _, x in groups)  # the full step's largest logit move
        scale = 1.0
        while True:
            trial = _log_likelihood(groups, b0 + scale * step0, b1 + scale * step1)
            if ((trial >= loglik - 1e-12 * abs(loglik) and scale * reach <= MAX_LOGIT_STEP)
                    or scale <= MIN_STEP_SCALE):
                break
            scale /= 2.0
        b0 += scale * step0
        b1 += scale * step1
        loglik = trial
        if (abs(s0) < 1e-10 and abs(s1) < 1e-10) or (abs(step0) < 1e-10 and abs(step1) < 1e-10):
            _, _, i00, _, _, det = _score_and_information(groups, b0, b1, iteration)
            return b1, math.ldexp(i00 / det, -shift), iteration
    raise ValueError(f"no convergence in {MAX_NEWTON_ITERATIONS} iterations: last b0={b0:.6g}, "
                     f"b1={b1:.6g}, max |score|={math.ldexp(max(abs(s0), abs(s1)), shift):.3g}")


def combined_or(merged: MergedTable) -> CombinedOR:
    """Additive-model odds ratio from the merged 3x2 table.

    Fits logit(P(present)) = b0 + b1*code by Newton-Raphson on the grouped
    counts (identical likelihood to the expanded indicator vectors) and
    exponentiates the slope; the CI is Wald with the SE from the inverse
    observed information.
    """
    rows = ((1.0, merged.aa), (2.0, merged.ab), (3.0, merged.bb))
    groups = [(float(present), float(present + absent), x)
              for x, (present, absent) in rows if present + absent > 0]
    if _separated(groups):
        raise ValueError("no finite Wald interval: the genotype code separates the present from "
                         "the absent counts, so the slope has no finite maximum-likelihood estimate")
    b1, variance, iterations = _logistic_fit(groups)
    # fitted probabilities rounded to 0 or 1 leave the slope's likelihood flat
    if not abs(b1) + Z_95 * math.sqrt(variance) < _LOG_FLOAT_MAX:
        raise ValueError(f"no finite Wald interval (variance of b1 {variance:.3g}) after {iterations} "
                         "iterations")
    se = math.sqrt(variance)
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
