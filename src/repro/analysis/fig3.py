"""Figure 3 drivers: preferential-attachment strength over time."""

from __future__ import annotations

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.experiments import ExperimentResult, finite, register, series_from
from repro.pa.alpha import alpha_series, checkpoints_to_series
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker
from repro.pa.mixture import estimate_mixture

__all__ = []


def _checkpoint_interval(ctx: AnalysisContext) -> int:
    # ~20 checkpoints over the trace, mirroring the paper's every-5000-edges
    # cadence at Renren scale.
    edges = ctx.stream.num_edges
    interval = max(1000, edges // 20)
    if edges < interval:
        raise ValueError(
            f"Figure 3 needs at least {interval} edges for one pe(d) checkpoint; "
            f"the trace has {edges}"
        )
    return interval


@register("F3ab")
def fig3ab(ctx: AnalysisContext) -> ExperimentResult:
    """pe(d) ∝ d^α is a tight fit under both destination rules (mid-trace)."""
    result = ExperimentResult(
        experiment="F3ab",
        title="pe(d) power-law fit quality at mid-growth",
        paper={
            "alpha[higher_degree]": "0.78 at 57M edges (full scale)",
            "alpha[random]": "0.6 at 57M edges",
            "mse[higher_degree]": "1.75e-10 (tiny; tight fit)",
        },
    )
    interval = _checkpoint_interval(ctx)
    for rule in (DestinationRule.HIGHER_DEGREE, DestinationRule.RANDOM):
        tracker = EdgeProbabilityTracker(rule=rule, mode="cumulative", seed=ctx.seed)
        checkpoints = tracker.process(ctx.stream, checkpoint_every=interval)
        mid = checkpoints[len(checkpoints) // 2]
        result.series[f"pe[{rule.value}]"] = series_from(mid.degrees, mid.pe)
        result.findings[f"alpha[{rule.value}]"] = mid.alpha
        result.findings[f"mse[{rule.value}]"] = mid.mse
    result.findings = finite(result.findings)
    return result


@register("F3c")
def fig3c(ctx: AnalysisContext) -> ExperimentResult:
    """α(t) decays as the network grows; the two rules differ by ~0.2."""
    interval = _checkpoint_interval(ctx)
    # One higher-degree window pass serves both α(t) and the mixture fit.
    tracker = EdgeProbabilityTracker(rule=DestinationRule.HIGHER_DEGREE, seed=ctx.seed)
    hi_checkpoints = tracker.process(ctx.stream, checkpoint_every=interval)
    hi = checkpoints_to_series(DestinationRule.HIGHER_DEGREE, hi_checkpoints)
    rd = alpha_series(ctx.stream, DestinationRule.RANDOM, checkpoint_every=interval, seed=ctx.seed)
    finite_mask = np.isfinite(hi.alphas) & np.isfinite(rd.alphas)
    gap = (
        float(np.mean(hi.alphas[finite_mask] - rd.alphas[finite_mask]))
        if finite_mask.any()
        else float("nan")
    )
    peak_hi = float(np.nanmax(hi.alphas))
    result = ExperimentResult(
        experiment="F3c",
        title="Evolution of the PA exponent alpha(t)",
        series={
            "alpha[higher_degree]": series_from(hi.edge_counts, hi.alphas),
            "alpha[random]": series_from(rd.edge_counts, rd.alphas),
        },
        findings=finite(
            {
                "alpha_peak[higher_degree]": peak_hi,
                "alpha_final[higher_degree]": float(hi.alphas[-1]),
                "alpha_final[random]": float(rd.alphas[-1]),
                "alpha_decay[higher_degree]": peak_hi - float(hi.alphas[-1]),
                "mean_rule_gap": gap,
            }
        ),
        paper={
            "alpha_peak[higher_degree]": "~1.25 when Renren first launched",
            "alpha_final[higher_degree]": "~0.65 at 199M edges",
            "mean_rule_gap": "the two rules always differ by ~0.2",
        },
    )
    try:
        coeffs = hi.polynomial_fit(degree=5)
        result.notes.append(
            "alpha(higher degree) ~ poly5(normalized edges): "
            + ", ".join(f"{c:.3g}" for c in coeffs)
        )
    except ValueError:
        pass
    # The §3.3 hypothesis quantified: estimated PA share of the mixture.
    weights = np.array([estimate_mixture(cp).pa_weight for cp in hi_checkpoints])
    finite_w = weights[np.isfinite(weights)]
    if finite_w.size >= 2:
        result.findings["pa_mixture_weight_first"] = float(finite_w[0])
        result.findings["pa_mixture_weight_last"] = float(finite_w[-1])
        result.paper["pa_mixture_weight_last"] = (
            "§3.3 hypothesis: the PA component's share shrinks over time"
        )
    if ctx.config.merge is not None:
        result.notes.append(
            "paper observes a one-day ripple in alpha at the merge (8.26M edges)"
        )
    return result
