import math

import numpy as np
import pytest

from graphgame import (
    GraphGameError,
    build_strategy,
    classical_value,
    exact_quantum_value,
    independence_number,
    validate_game,
)
from graphgame.games import network_game, star_game

from _oracles import brute_force_classical_value, random_network, sign_slots, statevector_quantum_value

NETWORKS = [random_network(np.random.default_rng(seed)) for seed in range(200)]


def pairs(game):
    return sum(len(who) == 2 for who in game.owners.values())


class TestNetworkGame:
    def test_random_networks_are_well_formed(self):
        assert {g.n for g in NETWORKS} == {3, 4, 5, 6}
        for g in NETWORKS:
            assert validate_game(g) == []
            assert independence_number(g) >= g.m
            # Every link is a pair, and every linked high-block player has its slack.
            assert pairs(g) == sum(v.startswith("e") for v in g.graph.vertices) >= g.n - 1
            slacks = {f"u{j}" for j in range(g.m + 1, g.n + 1) if g.owned(j, 0)}
            assert {v for v in g.graph.vertices if not v.startswith("e")} == slacks

    def test_classical_value_matches_brute_force(self):
        # The brute force scores every sign pattern through the reference
        # referee, so it runs on the small networks of the first 80.
        small = [g for g in NETWORKS[:80] if len(sign_slots(g)) <= 16]
        assert len(small) >= 20
        for g in small:
            assert classical_value(g)[0] == pytest.approx(brute_force_classical_value(g), abs=1e-12)

    def test_template_value_matches_statevector(self):
        # The statevector scores every outcome tuple through the reference
        # referee, so it runs on the networks of the first 40 with few pairs.
        rng = np.random.default_rng(7)
        small = [g for g in NETWORKS[:40] if pairs(g) <= 4]
        assert len(small) >= 12
        for g in small:
            strategy, _ = build_strategy(g)
            strategy = strategy.with_angles({k: float(rng.uniform(0.0, 2.0 * math.pi)) for k in strategy.angles})
            assert exact_quantum_value(g, strategy) == pytest.approx(statevector_quantum_value(g, strategy), abs=1e-12)

    @pytest.mark.parametrize(
        "n, links, m",
        [
            (3, [(1, 2, "e1")], 2),  # a link inside the low block
            (3, [(1, 3, "e1"), (2, 2, "e2")], 1),  # a player linked to itself
            (3, [(1, 4, "e1")], 1),  # an end above n
            (3, [(0, 2, "e1")], 1),  # an end below 1
            (3, [(1, 2, "e1"), (1, 3, "e1")], 1),  # a vertex used by two links
            (3, [(1, 2, "u2")], 1),  # a link named like the slack of player 2
        ],
    )
    def test_rejections(self, n, links, m):
        with pytest.raises(GraphGameError):
            network_game(n, links, m)

    def test_slack_name_of_an_unlinked_player_is_free(self):
        g = network_game(3, [(1, 2, "u3")], 1)
        assert g.graph.vertices == ("u2", "u3")
        assert validate_game(g) == []

    def test_prior_is_left_to_validate_game(self):
        g = star_game(3, 1.7)
        assert [v.code for v in validate_game(g)] == ["bad-distribution"]


class TestStarGame:
    """The star against its ownership table, written out by hand; the
    shipped fixtures hold star3, star4 and chain4 byte for byte."""

    @pytest.mark.parametrize("n1", range(2, 8))
    def test_star(self, n1):
        owned = {(1, x): {f"w{j}" for j in range(2, n1 + 1)} for x in (0, 1)}
        owned.update({(j, x): {f"w{j}", f"u{j}"} for j in range(2, n1 + 1) for x in (0, 1)})
        g = star_game(n1, 0.3)
        assert (g.n, g.m, g.distribution.p) == (n1, 1, 0.3)
        assert g.assignments.owned == owned
        assert g.graph.vertices == tuple(sorted(set().union(*owned.values())))

    def test_star_needs_a_leaf(self):
        with pytest.raises(ValueError):
            star_game(1)
