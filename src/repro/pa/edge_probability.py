"""The edge probability pe(d) of [Leskovec et al., KDD 2008], eq. (1).

``pe(d)`` is the probability that a new edge picks a destination of degree
``d``, normalized by how many degree-``d`` nodes existed before each step:

    pe(d) = Σt [dest degree = d]  /  Σt |{v : deg(v) = d}|

Renren edges are undirected, so the destination is chosen per rule (§3.2):

* ``higher_degree`` — the higher-degree endpoint (biased toward PA; upper
  bound for α);
* ``random`` — a uniformly random endpoint (lower bound).

Step ``k`` is the arrival of edge ``k``; the nodes that exist at that step
are those arrived by the edge's time.  Both sums have a closed form over
the stream's columns, so nothing is replayed edge by edge:

* a node's degree just before edge ``k`` is the rank of that occurrence
  among the node's occurrences in the interleaved ``(u0, v0, u1, v1, …)``
  endpoint column, so one stable argsort gives every numerator term;
* a node holds degree 0 over steps ``[arrival step, s₁]`` and degree
  ``j ≥ 1`` over ``[s_j + 1, s_{j+1}]``, where ``s_j`` is the step of its
  ``j``-th edge; its last interval runs to the final edge.  The
  denominator over steps ``[a, b)`` is one weighted ``bincount`` of each
  interval's overlap with ``[a, b)``.  Degree 0 never enters the fit, so
  only the ``2E`` intervals of degree ``j ≥ 1`` are counted.

A stream with ``N`` nodes and ``E`` edges costs one sort of its ``N`` ids
and ``2E`` endpoints, then O(E) per checkpoint (the paper checkpoints every
5000 edges): O(checkpoints × (E + N)) in all.  Every sum is an integer,
held exactly in float64.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream
from repro.obs import get_recorder
from repro.util.arrays import IntArray
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
    """pe(d) measurement over an event stream, checkpointed by edge count.

    ``mode='window'`` sums each checkpoint over the edges since the last
    emitted one, so each checkpoint reflects the attachment behaviour of
    its window (this is what exposes the decay of α over time);
    ``'cumulative'`` keeps the paper's eq. (1) sums from the first edge.
    With ``min_edges`` the first emitted window starts at edge 0.

    Degrees above ``max_degree`` share its bucket.  The ``random`` rule
    draws one double per edge from the tracker's generator, in edge order,
    on every :meth:`process` call.
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
        """Measure ``stream`` and return a checkpoint every ``checkpoint_every`` edges.

        ``min_edges`` suppresses checkpoints before the network reaches a
        reasonable size (the paper starts at 600K edges).  An edge endpoint
        missing from the stream's nodes raises :class:`KeyError`; a
        self-loop, or an endpoint that arrives after its edge, raises
        :class:`ValueError`.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        num_edges = stream.num_edges
        steps = [
            t for t in range(checkpoint_every, num_edges + 1, checkpoint_every) if t >= min_edges
        ]
        with get_recorder().span(
            "pa.edge_probability",
            rule=self.rule.value,
            mode=self.mode,
            edges=num_edges,
            checkpoints=len(steps),
        ):
            nodes, edges = stream.nodes, stream.edges
            size = self.max_degree + 1
            degree, lo, hi, bucket = _degree_intervals(stream, self.max_degree)
            du, dv = degree[0::2], degree[1::2]
            if self.rule is DestinationRule.HIGHER_DEGREE:
                dest = np.maximum(du, dv)
            else:
                dest = np.where(self._rng.random(num_edges) < 0.5, du, dv)
            del degree, du, dv  # only the intervals outlive this point
            np.minimum(dest, self.max_degree, out=dest)

            checkpoints: list[PeCheckpoint] = []
            start = 0
            for step in steps:
                numerator = np.bincount(dest[start:step], minlength=size).astype(np.float64)
                overlap = np.minimum(hi, step)
                overlap -= np.maximum(lo, start)
                np.maximum(overlap, 0, out=overlap)
                denominator = np.bincount(bucket, weights=overlap, minlength=size)
                time = edges.time[step - 1]
                node_count = int(np.searchsorted(nodes.time, time, side="right"))
                checkpoints.append(
                    self._checkpoint(step, float(time), numerator, denominator, node_count)
                )
                if self.mode == "window":
                    start = step
            return checkpoints

    # -- internals ------------------------------------------------------

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


def _degree_intervals(
    stream: EventStream, max_degree: int
) -> tuple[IntArray, IntArray, IntArray, IntArray]:
    """Degrees before each edge, and the node-step intervals that follow each edge.

    Returns ``degree`` over the interleaved endpoint column, then, per
    endpoint occurrence, the steps ``[lo, hi)`` over which that node holds
    its next degree (up to and including its next edge) and that degree's
    ``bucket``.  Degree 0 is never fitted, so its node-steps are omitted.
    """
    nodes, edges = stream.nodes, stream.edges
    endpoints = _node_rows(nodes.node, np.column_stack((edges.u, edges.v)).ravel())
    loops = np.flatnonzero(edges.u == edges.v)
    if loops.size:
        k = loops[0]
        raise ValueError(f"self-loop edge at time {edges.time[k]}: node {edges.u[k]}")
    # Occurrences grouped by node row, in edge order within a row; the rank
    # of an occurrence is the node's degree just before that edge.
    order = np.argsort(endpoints, kind="stable")
    rows, step_of = endpoints[order], order // 2
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    late = np.flatnonzero(nodes.time[rows[first]] > edges.time[step_of[first]])
    if late.size:
        i = late[np.argmin(step_of[first][late])]
        row, k = rows[first][i], step_of[first][i]
        raise ValueError(
            f"edge ({edges.u[k]}, {edges.v[k]}) at time {edges.time[k]} "
            f"predates node {nodes.node[row]} (born {nodes.time[row]})"
        )
    rank = np.arange(len(rows))
    rank -= np.maximum.accumulate(np.where(first, rank, 0))
    degree = np.empty_like(rank)
    degree[order] = rank
    lo = step_of + 1
    hi = np.full(len(rows), len(edges))
    same_node = ~first[1:]
    hi[:-1][same_node] = lo[1:][same_node]
    rank += 1
    return degree, lo, hi, np.minimum(rank, max_degree, out=rank)


def _node_rows(ids: IntArray, endpoints: IntArray) -> IntArray:
    """The row of each endpoint in ``ids``; :class:`KeyError` on the first unknown id."""
    unknown = np.flatnonzero(~np.isin(endpoints, ids))
    if unknown.size:
        raise KeyError(int(endpoints[unknown[0]]))
    by_id = np.argsort(ids, kind="stable")
    return by_id[np.searchsorted(ids, endpoints, sorter=by_id)]
