"""Community detection, tracking, and dynamics (paper §4, Figures 4-7).

Pipeline:

1. :func:`~repro.community.louvain.louvain` — modularity-optimizing
   detection with the paper's δ stopping threshold, supporting incremental
   (seeded) runs across snapshots;
2. :class:`~repro.community.tracking.CommunityTracker` — Jaccard-similarity
   tracking that yields lineages and birth/death/merge/split events;
3. :mod:`~repro.community.stats` / :mod:`~repro.community.merge_split` /
   :mod:`~repro.community.impact` — the statistics the paper reports on top
   of the tracked communities;
4. :mod:`~repro.community.features` — structural features feeding the
   merge-prediction classifier (Figure 6b).
"""

from repro.community.louvain import LouvainResult, louvain
from repro.community.stats import (
    community_lifetimes,
    community_size_distribution,
    top_k_coverage,
)
from repro.community.tracking import (
    CommunityEvent,
    CommunityLineage,
    CommunityTracker,
    TrackedSnapshot,
    jaccard,
)

__all__ = [
    "louvain",
    "LouvainResult",
    "CommunityEvent",
    "CommunityLineage",
    "CommunityTracker",
    "TrackedSnapshot",
    "jaccard",
    "community_size_distribution",
    "community_lifetimes",
    "top_k_coverage",
]
