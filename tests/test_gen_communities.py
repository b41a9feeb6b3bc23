"""Tests for the home-community process (repro.gen.fast.HomeCommunities)."""

import numpy as np
import pytest

from repro.gen.fast import HomeCommunities
from repro.util.rng import make_rng


def fill(crp, total, batch=50):
    """Assign ``total`` newcomers in batches, as the generator's windows do."""
    out = [crp.assign(min(batch, total - done)) for done in range(0, total, batch)]
    return np.concatenate(out)


class TestCommunityProcess:
    def test_first_node_founds_community(self):
        crp = HomeCommunities(0.01, 0.65, make_rng(0))
        (community,) = crp.assign(1)
        assert crp.num_communities == 1
        assert crp.sizes[community] == 1

    def test_all_nodes_assigned(self):
        crp = HomeCommunities(0.1, 0.65, make_rng(1))
        assigned = fill(crp, 500)
        assert len(assigned) == 500
        assert crp.sizes.sum() == 500

    def test_new_prob_one_gives_singletons(self):
        crp = HomeCommunities(1.0, 0.65, make_rng(2))
        fill(crp, 50, batch=10)
        assert crp.num_communities == 50

    def test_deterministic(self):
        def run(seed):
            return fill(HomeCommunities(0.1, 0.65, make_rng(seed)), 200).tolist()

        assert run(7) == run(7)

    def test_sublinear_exponent_flattens_head(self):
        def head_share(exponent):
            crp = HomeCommunities(0.05, exponent, make_rng(11))
            fill(crp, 3000)
            return crp.sizes.max() / 3000

        assert head_share(0.6) < head_share(1.0)

    def test_rich_get_richer(self):
        crp = HomeCommunities(0.05, 0.65, make_rng(4))
        fill(crp, 2000)
        sizes = crp.sizes[: crp.num_communities]
        assert sizes.max() > 5 * np.median(sizes)

    def test_rejects_bad_new_prob(self):
        with pytest.raises(ValueError):
            HomeCommunities(0.0, 0.65, make_rng(0))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            HomeCommunities(0.1, 1.5, make_rng(0))

    def test_reserved_ids_are_never_joined(self):
        # The merge imports the secondary network's communities under
        # reserved ids; newcomers only ever join communities they founded.
        crp = HomeCommunities(0.2, 0.65, make_rng(5))
        fill(crp, 100)
        first = crp.reserve(30)
        later = fill(crp, 500)
        assert not ((later >= first) & (later < first + 30)).any()
        assert crp.num_communities > first + 30
