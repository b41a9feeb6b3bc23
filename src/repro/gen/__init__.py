"""Synthetic OSN growth traces (the proprietary-data substitution).

The paper's analyses consume a timestamped stream of node and edge creation
events from Renren, which is proprietary.  This subpackage generates
statistically analogous streams at laptop scale.  The generator reproduces
the *mechanisms* the paper measures rather than fitting its exact numbers:

* exponential node arrival with seasonal (holiday) dips — §2, Fig 1(a,b);
* per-node activity clocks with an early-life burst, power-law
  inter-arrival gaps and a rate that declines with age — §3.1, Fig 2(a,b);
* a destination-choice mixture of preferential attachment, uniform random
  attachment and triadic closure, with the PA weight decaying as the network
  grows — §3.2/§3.3, Fig 3;
* planted community affinities that concentrate edges inside evolving
  communities — §4;
* an optional one-day merge with a second, independently grown network,
  duplicate accounts, and origin-biased post-merge edge creation — §5.

One engine, :class:`FastGenerator`, produces every trace:
:func:`generate_trace` returns it in memory, :func:`generate_store` streams
it into a columnar store without materializing it.
"""

from repro.gen.baselines import (
    barabasi_albert_stream,
    forest_fire_stream,
    uniform_attachment_stream,
)
from repro.gen.config import GeneratorConfig, MergeConfig, SeasonalDip, presets
from repro.gen.fast import FastGenerator, generate_store, generate_trace

__all__ = [
    "GeneratorConfig",
    "MergeConfig",
    "SeasonalDip",
    "presets",
    "FastGenerator",
    "generate_store",
    "generate_trace",
    "barabasi_albert_stream",
    "forest_fire_stream",
    "uniform_attachment_stream",
]
