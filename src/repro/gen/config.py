"""Configuration dataclasses and presets for the trace generator.

Scale note: the paper's Renren stream has 19.4M nodes over 771 days; a pure
Python reproduction runs scale-compressed defaults (tens of thousands of
nodes over ~160-240 simulated days).  Every knob is exposed so larger runs
only need a different config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "GeneratorConfig", "MergeConfig", "SeasonalDip", "pa_weight", "presets",
    "secondary_config", "spotlight_weight",
]


@dataclass(frozen=True)
class SeasonalDip:
    """A holiday period that suppresses sign-ups and activity.

    The paper's growth curve shows dips for Lunar New Year (~2 weeks) and
    summer vacation (~2 months).  ``factor`` multiplies both the node
    arrival rate and the probability that scheduled activity fires.
    """

    start_day: float
    length_days: float
    factor: float = 0.35

    def active(self, day: float) -> bool:
        """Whether ``day`` falls inside this dip."""
        return self.start_day <= day < self.start_day + self.length_days


@dataclass(frozen=True)
class MergeConfig:
    """Parameters of the one-day network merge event (§5).

    A second network ("5Q") grows independently from ``secondary_start_day``
    and is imported in a single day at ``merge_day``.  ``duplicate_fraction``
    of the *smaller* pre-merge population are duplicate account pairs; each
    pair keeps its primary-network account with probability
    ``keep_primary_probability`` and the discarded account goes permanently
    inactive on the merge day (the paper estimates 11% of Xiaonei and 28% of
    5Q accounts were discarded duplicates).
    """

    merge_day: float
    secondary_start_day: float
    secondary_target_nodes: int
    secondary_mean_degree: float = 9.0
    duplicate_fraction: float = 0.40
    keep_primary_probability: float = 0.75
    # Post-merge behaviour of pre-merge users.  Destination homophily is
    # expressed as acceptance biases (internal : new : external); locality
    # is dropped to ``post_merge_local_probability`` for pre-merge
    # initiators, modelling the merged site surfacing cross-network
    # contacts.
    burst_edges_mean: float = 3.0
    burst_decay_days: float = 25.0
    internal_bias: float = 1.8
    external_bias: float = 1.0
    new_bias: float = 1.0
    post_merge_local_probability: float = 0.1
    primary_activity_multiplier: float = 2.5
    # Mean number of days a surviving pre-merge user keeps creating edges
    # after the merge (exponential tail -> slow decline of active users).
    survivor_mean_active_days: float = 120.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Full parameter set for :class:`~repro.gen.fast.FastGenerator`.

    Arrival process
        ``target_nodes`` users arrive over ``days`` days following
        ``rate(d) ∝ exp(growth_rate * d)``, modulated by ``seasonal_dips``.

    Activity model
        Each user draws a total edge budget from a Pareto tail
        (``budget_shape``, mean ≈ ``mean_budget``), spends an initial burst
        of ~``burst_mean`` edges on its arrival day, then schedules the rest
        with power-law inter-arrival gaps of exponent ``gap_exponent``
        (paper: 1.8-2.5) and minimum gap ``gap_min_days``.

    Attachment mixture
        A scheduled initiator picks its destination by triadic closure with
        probability ``triadic_probability``; otherwise globally, by
        preferential attachment with probability ``pa_weight(E)`` (decaying
        from ``pa_start`` toward ``pa_end`` with a half-life of
        ``pa_halflife_edges`` edges) or uniformly at random.  Destinations
        are drawn from the initiator's home community with probability
        ``local_probability``.

    Communities
        Arriving users join a home community by a Chinese-restaurant
        process: a fresh community with probability ``community_new_prob``,
        otherwise an existing one proportional to its size (this yields the
        paper's power-law community sizes and ever-growing top communities).
    """

    days: float = 160.0
    target_nodes: int = 8000
    growth_rate: float = 0.035
    seed_nodes: int = 16
    seasonal_dips: tuple[SeasonalDip, ...] = ()

    mean_budget: float = 10.0
    budget_shape: float = 1.9
    budget_cap: int = 500
    burst_mean: float = 3.0
    gap_exponent: float = 2.5
    gap_min_days: float = 0.25
    # Fraction of the post-burst budget spread uniformly over the node's
    # remaining trace lifetime (background sociality).  This sustains edge
    # creation between mature users, driving Figure 2(c)'s declining share
    # of new-node-driven edges.
    long_term_fraction: float = 0.15

    triadic_probability: float = 0.35
    # Home-community locality of destination choice.  It decays linearly by
    # ``local_decay`` over the trace ("distinctions between communities fade"
    # as the network matures — the paper's Fig 5b reading), which lets the
    # top detected communities absorb their neighbours over time.
    local_probability: float = 0.9
    local_decay: float = 0.25
    pa_start: float = 1.0
    pa_end: float = 0.0
    pa_halflife_edges: int = 4000
    # "Supernode spotlight": probability that a PA-chosen destination is the
    # best of ``spotlight_samples`` degree-proportional draws, modelling the
    # early-network visibility of supernodes (paper §3.2's intuition).  It
    # decays on the same edge-count scale as the PA weight, producing the
    # early super-linear attachment (alpha > 1) of Figure 3(c).
    spotlight_start: float = 1.0
    spotlight_samples: int = 5

    # "Loners": casual users with no home community and tiny edge budgets
    # who mostly befriend other casual users (invite chains).  They form
    # the sparse periphery that Louvain leaves in sub-threshold (< 10 node)
    # communities — the paper's "non-community users" of §4.4 / Figure 7.
    loner_fraction: float = 0.08
    loner_budget_mean: float = 2.5
    loner_peer_probability: float = 0.9
    # Mean gap between a loner's edge creations (casual users visit the
    # site rarely — the long inter-arrival tail of the paper's Fig 7a).
    loner_gap_mean_days: float = 18.0

    community_new_prob: float = 0.06
    # Sublinear size-attraction exponent of the community-joining process;
    # 1.0 is a pure Chinese-restaurant process (one giant community), lower
    # values flatten the size head (see FastGenerator's community process).
    community_size_exponent: float = 0.85
    friend_cap: int = 500

    merge: MergeConfig | None = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if self.target_nodes < self.seed_nodes:
            raise ValueError("target_nodes must be >= seed_nodes")
        if not 0 <= self.pa_end <= self.pa_start <= 1:
            raise ValueError("require 0 <= pa_end <= pa_start <= 1")
        if self.gap_exponent <= 1:
            raise ValueError("gap_exponent must exceed 1 for finite gaps")
        if self.merge is not None:
            if not 0 < self.merge.secondary_start_day < self.merge.merge_day < self.days:
                raise ValueError("merge days must satisfy 0 < start < merge_day < days")

    def with_merge(self, merge: MergeConfig) -> "GeneratorConfig":
        """A copy of this config with ``merge`` attached."""
        return replace(self, merge=merge)


def pa_weight(num_edges: int, config: GeneratorConfig) -> float:
    """Probability that a (non-triadic) destination is chosen by PA.

    Decays from ``pa_start`` toward ``pa_end`` with the number of edges in
    the network, halving the remaining excess every ``pa_halflife_edges``:

    ``w(E) = pa_end + (pa_start - pa_end) * 2 ** (-E / halflife)``

    A true half-life, not a hyperbola: PA must die out over the growth the
    α(t) measurement sees.  A ``1 / (1 + E / halflife)`` tail keeps a PA
    share of ``halflife / E`` forever, which holds α nearly flat.
    """
    span = config.pa_start - config.pa_end
    return config.pa_end + span * 0.5 ** (num_edges / config.pa_halflife_edges)


def spotlight_weight(num_edges: int, config: GeneratorConfig) -> float:
    """Probability that a PA draw is amplified to best-of-k (supernode visibility).

    Halves every ``pa_halflife_edges`` like :func:`pa_weight`, so early
    attachment is super-linear (alpha > 1) and mature attachment is at most
    linear.
    """
    return config.spotlight_start * 0.5 ** (num_edges / config.pa_halflife_edges)


def secondary_config(config: GeneratorConfig) -> GeneratorConfig:
    """The derived config the pre-merge secondary ("5Q") network grows under."""
    merge = config.merge
    assert merge is not None
    sec_days = merge.merge_day - merge.secondary_start_day
    return GeneratorConfig(
        days=sec_days,
        target_nodes=merge.secondary_target_nodes,
        growth_rate=config.growth_rate,
        seed_nodes=min(config.seed_nodes, merge.secondary_target_nodes),
        mean_budget=max(1.0, merge.secondary_mean_degree / 2.0),
        budget_shape=config.budget_shape,
        burst_mean=config.burst_mean,
        gap_exponent=config.gap_exponent,
        gap_min_days=config.gap_min_days,
        triadic_probability=config.triadic_probability,
        local_probability=config.local_probability,
        pa_start=config.pa_start,
        pa_end=config.pa_end,
        pa_halflife_edges=max(1, config.pa_halflife_edges // 4),
        community_new_prob=config.community_new_prob * 3,
        community_size_exponent=config.community_size_exponent,
        friend_cap=config.friend_cap,
    )


def expected_premerge_nodes(
    target_nodes: int, growth_rate: float, merge_day: float, days: float
) -> int:
    """Expected primary-network size at ``merge_day`` under the exponential envelope.

    Used by presets to size the secondary (5Q) network proportionally to the
    primary's pre-merge population, as in the paper (624K vs 670K users).
    """
    import math

    num = math.exp(growth_rate * merge_day) - 1.0
    den = math.exp(growth_rate * days) - 1.0
    return max(1, int(round(target_nodes * num / den)))


class presets:
    """Ready-made configurations at different scales.

    All presets keep the paper's timeline proportions: the merge happens at
    half the trace, the secondary network starts a quarter in, the two
    pre-merge populations are comparable in size (5Q ≈ 1.07× the primary's
    pre-merge population, as in the paper), and the holiday dips land early
    in the trace and after the merge.
    """

    @staticmethod
    def tiny(days: float = 60.0, target_nodes: int = 700) -> GeneratorConfig:
        """Smallest sensible trace; used by fast unit tests."""
        return GeneratorConfig(
            days=days,
            target_nodes=target_nodes,
            growth_rate=0.06,
            mean_budget=9.0,
            pa_halflife_edges=1200,
            loner_gap_mean_days=days / 8.0,
        )

    @staticmethod
    def tiny_merge(days: float = 80.0, target_nodes: int = 1200) -> GeneratorConfig:
        """Tiny trace with a merge event at half time."""
        base = presets.tiny(days=days, target_nodes=target_nodes)
        premerge = expected_premerge_nodes(target_nodes, base.growth_rate, days / 2, days)
        merge = MergeConfig(
            merge_day=days / 2,
            secondary_start_day=days / 4,
            secondary_target_nodes=max(40, int(1.07 * premerge)),
            secondary_mean_degree=4.0,
            burst_decay_days=8.0,
            survivor_mean_active_days=days / 2,
        )
        return base.with_merge(merge)

    @staticmethod
    def small(
        days: float = 160.0,
        target_nodes: int = 8000,
        growth_rate: float = 0.03,
    ) -> GeneratorConfig:
        """Default example scale (~8K nodes, ~70K edges) with merge + dips.

        ``growth_rate = 0.03`` puts roughly 10% of users before the merge,
        a compromise between the paper's proportions (~7% pre-merge) and
        having enough pre-merge users for §5 statistics at small scale.
        """
        premerge = expected_premerge_nodes(target_nodes, growth_rate, days * 0.5, days)
        merge = MergeConfig(
            merge_day=days * 0.5,
            secondary_start_day=days * 0.25,
            secondary_target_nodes=int(1.07 * premerge),
            secondary_mean_degree=5.0,
            burst_decay_days=12.0,
            survivor_mean_active_days=days * 0.6,
        )
        dips = (
            SeasonalDip(start_day=days * 0.12, length_days=days * 0.03),
            SeasonalDip(start_day=days * 0.30, length_days=days * 0.08),
            SeasonalDip(start_day=days * 0.62, length_days=days * 0.03),
            SeasonalDip(start_day=days * 0.82, length_days=days * 0.08),
        )
        return GeneratorConfig(
            days=days,
            target_nodes=target_nodes,
            growth_rate=growth_rate,
            seasonal_dips=dips,
            merge=merge,
            # ~1/5 of the trace's edges (~8 per user), like tiny's 1200: PA dies out over
            # the growth that Figure 3(c)'s α(t) checkpoints cover.
            pa_halflife_edges=3 * target_nodes // 2,
        )

    @staticmethod
    def medium(days: float = 200.0, target_nodes: int = 14000) -> GeneratorConfig:
        """Weekly-benchmark scale between :meth:`small` and :meth:`paper_scale_small`.

        Same merge/dip proportions as :meth:`small`; the growth rate keeps
        the pre-merge population share comparable at the larger node count.
        """
        return presets.small(days=days, target_nodes=target_nodes, growth_rate=0.026)

    @staticmethod
    def paper_scale_small(days: float = 240.0, target_nodes: int = 20000) -> GeneratorConfig:
        """Bench scale (~20K nodes); same proportions as :meth:`small`."""
        return presets.small(days=days, target_nodes=target_nodes, growth_rate=0.022)

    @staticmethod
    def huge(days: float = 365.0, target_nodes: int = 1_050_000) -> GeneratorConfig:
        """Million-node scale (~1M nodes, >10M edges).

        No merge — the point is raw single-network scale for the streaming
        generator and the columnar store; the seasonal dips keep the arrival
        process realistic.  Intended for ``repro generate --out t.store``,
        which streams the trace to disk in minutes without materializing
        it (see ``benchmarks/test_scale.py``).
        """
        dips = (
            SeasonalDip(start_day=days * 0.12, length_days=days * 0.03),
            SeasonalDip(start_day=days * 0.30, length_days=days * 0.08),
            SeasonalDip(start_day=days * 0.62, length_days=days * 0.03),
            SeasonalDip(start_day=days * 0.82, length_days=days * 0.08),
        )
        return GeneratorConfig(
            days=days,
            target_nodes=target_nodes,
            growth_rate=0.018,
            # ~76% of drawn budget converts to edges at this scale (caps,
            # rejections); 13.5 keeps the realized count above 10M edges.
            mean_budget=13.5,
            seasonal_dips=dips,
            pa_halflife_edges=600_000,
        )

    @staticmethod
    def merge_study(days: float = 160.0, target_nodes: int = 10000) -> GeneratorConfig:
        """Slower growth so each pre-merge population is ~15% of the trace.

        Intended for the §5 experiments (Figures 8-9), which need sizeable
        Xiaonei and 5Q populations to produce smooth activity curves.
        """
        return presets.small(days=days, target_nodes=target_nodes, growth_rate=0.018)
