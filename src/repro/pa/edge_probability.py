"""The edge probability pe(d) of [Leskovec et al., KDD 2008], eq. (1).

``pe(d)`` is the probability that a new edge picks a destination of degree
``d``, normalized by how many degree-``d`` nodes existed before each step:

    pe(d) = Σt [dest degree = d]  /  Σt |{v : deg(v) = d}|

Renren edges are undirected, so the destination is chosen per rule (§3.2):

* ``higher_degree`` — the higher-degree endpoint (biased toward PA; upper
  bound for α);
* ``random`` — a uniformly random endpoint (lower bound).

The tracker replays the stream once, maintains per-degree node counts, and
produces a checkpoint every ``checkpoint_every`` edges (the paper uses
5000).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream
from repro.util.rng import make_rng
from repro.util.stats import linear_fit_loglog, mean_squared_error

__all__ = ["DestinationRule", "PeCheckpoint", "EdgeProbabilityTracker"]


class DestinationRule(str, enum.Enum):
    """How to pick the "destination" endpoint of an undirected edge."""

    HIGHER_DEGREE = "higher_degree"
    RANDOM = "random"


@dataclass(frozen=True)
class PeCheckpoint:
    """pe(d) measured at one point of the growth, plus its power-law fit.

    ``degrees``/``pe`` are the measured points (d >= 1, pe > 0);
    ``support`` gives each point's denominator mass (node-steps at that
    degree); ``alpha``/``coefficient`` satisfy ``pe(d) ≈ coefficient *
    d**alpha``; ``mse`` is the linear-space mean squared error of that
    fit; ``node_count`` is the number of nodes when the checkpoint closed.
    """

    edge_count: int
    time: float
    degrees: np.ndarray
    pe: np.ndarray
    support: np.ndarray
    alpha: float
    coefficient: float
    mse: float
    node_count: int


class EdgeProbabilityTracker:
    """Single-pass pe(d) measurement over an event stream.

    ``mode='window'`` resets the numerator/denominator at each checkpoint,
    so each checkpoint reflects the attachment behaviour *since the last
    one* (this is what exposes the decay of α over time); ``'cumulative'``
    keeps the paper's eq. (1) sums from the beginning.
    """

    def __init__(
        self,
        rule: DestinationRule = DestinationRule.HIGHER_DEGREE,
        mode: str = "window",
        max_degree: int = 4096,
        min_support: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if mode not in ("window", "cumulative"):
            raise ValueError(f"mode must be 'window' or 'cumulative', got {mode!r}")
        self.rule = DestinationRule(rule)
        self.mode = mode
        self.max_degree = max_degree
        # Degrees observed in fewer than ``min_support`` node-steps are
        # excluded from the fit: with little support a single hit makes
        # pe(d) ~ 1 and wrecks the linear-space MSE.
        self.min_support = min_support
        self._rng = make_rng(seed)

    def process(
        self,
        stream: EventStream,
        checkpoint_every: int = 5000,
        min_edges: int = 0,
    ) -> list[PeCheckpoint]:
        """Replay ``stream`` and return a checkpoint every ``checkpoint_every`` edges.

        ``min_edges`` suppresses checkpoints before the network reaches a
        reasonable size (the paper starts at 600K edges).
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        size = self.max_degree + 1
        degree = dict.fromkeys(stream.nodes.node.tolist(), 0)
        degree_count = np.zeros(size, dtype=np.int64)
        numerator = np.zeros(size, dtype=np.float64)
        denominator = np.zeros(size, dtype=np.float64)
        # Nodes exist from their arrival; replay interleaves arrivals and
        # edges chronologically so degree-0 counts are correct.
        checkpoints: list[PeCheckpoint] = []
        edges_seen = 0
        edges = stream.edges
        born_by_edge = np.searchsorted(stream.nodes.time, edges.time, side="right").tolist()
        arrived = 0
        for t, u, v, n_born in zip(
            edges.time.tolist(), edges.u.tolist(), edges.v.tolist(), born_by_edge, strict=True
        ):
            if n_born > arrived:
                degree_count[0] += n_born - arrived
                arrived = n_born
            dest_degree = self._destination_degree(degree[u], degree[v])
            d = min(dest_degree, self.max_degree)
            numerator[d] += 1
            denominator += degree_count
            self._bump(degree, degree_count, u)
            self._bump(degree, degree_count, v)
            edges_seen += 1
            if edges_seen % checkpoint_every == 0 and edges_seen >= min_edges:
                node_count = int(degree_count.sum())
                checkpoints.append(
                    self._checkpoint(edges_seen, t, numerator, denominator, node_count)
                )
                if self.mode == "window":
                    numerator[:] = 0
                    denominator[:] = 0
        return checkpoints

    # -- internals ------------------------------------------------------

    def _destination_degree(self, du: int, dv: int) -> int:
        if self.rule is DestinationRule.HIGHER_DEGREE:
            return max(du, dv)
        return du if self._rng.random() < 0.5 else dv

    def _bump(self, degree: dict[int, int], degree_count: np.ndarray, node: int) -> None:
        d = degree[node]
        capped = min(d, self.max_degree)
        degree_count[capped] -= 1
        degree[node] = d + 1
        degree_count[min(d + 1, self.max_degree)] += 1

    def _checkpoint(
        self,
        edge_count: int,
        time: float,
        numerator: np.ndarray,
        denominator: np.ndarray,
        node_count: int,
    ) -> PeCheckpoint:
        valid = (numerator > 0) & (denominator >= self.min_support)
        valid[0] = False  # degree 0 cannot enter a log-log fit
        degrees = np.nonzero(valid)[0].astype(float)
        pe = numerator[valid] / denominator[valid]
        support = denominator[valid].astype(float)
        if degrees.size >= 2:
            alpha, coeff = linear_fit_loglog(degrees, pe)
            mse = mean_squared_error(pe, coeff * degrees**alpha)
        else:
            alpha, coeff, mse = float("nan"), float("nan"), float("nan")
        return PeCheckpoint(
            edge_count=edge_count,
            time=time,
            degrees=degrees,
            pe=pe,
            support=support,
            alpha=alpha,
            coefficient=coeff,
            mse=mse,
            node_count=node_count,
        )
