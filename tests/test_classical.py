import dataclasses
import math

import numpy as np
import pytest

from graphgame import (
    AssignmentMap,
    ClosedFormParams,
    ConsistencyPayoff,
    Graph,
    GraphGameError,
    GraphicGame,
    IIDDistribution,
    JointDistribution,
    StrategySpaceError,
    check_injective,
    classical_value,
    closed_form_shared_classical,
    closed_form_star_classical,
    gyni_classical_bound,
    strategy_value,
    target_classical_value,
    target_value_from_tables,
)
from graphgame import classical, games
from graphgame.classical import (
    DEFAULT_STRATEGY_BUDGET,
    _quotient,
    _responder,
    _space_size,
    _strategy,
)

from _oracles import (
    brute_force_classical_value,
    brute_force_scores,
    exhaustive_target_value,
    random_game,
    random_target_tables,
    sign_slots,
)

_STAR_GRID = ((2, (0.2, 0.5, 0.8)), (3, (0.2, 0.5, 0.8)), (7, (0.3, 0.8)))
_SHARED_GRID = ((3, (0.2, 0.5, 0.8)), (4, (0.2, 0.5, 0.8)))

# log2 of StrategySpaceError.space_size at budget=0, as the grouped
# enumeration counted it before the search read the check table directly.
_SPACE_BITS = {
    "fixture chsh": 6,
    "fixture star3": 8,
    "fixture star4": 12,
    "fixture cube3": 24,
    "fixture chain4": 12,
    "fixture shared3": 6,
    "fixture trivial": 0,
    "fixture disconnected": 4,
    **{f"star{n1}": 4 * (n1 - 1) for n1 in range(2, 8)},
    "chain4": 12,
    **{f"shared{l}": 2 * l for l in (3, 4, 5)},
}


def _tie_cases():
    # Dyadic priors keep every sum exact, so ties are exact.  The search
    # eliminates the star hub (axis 0), a chain4 middle station (axis 1) and
    # chsh's last player; several of these have their first maximiser at a
    # nonzero index.  The last eight games peel a check and keep fewer class
    # bits than raw vertex bits, so their witnesses go through the class
    # representatives and the restore.
    return (
        [
            games.chsh_game(),
            games.star_game(3),
            games.star_game(3, p=0.25),
            games.chain_game(),
            games.chain_game(0.75),
            games.trivial_game(),
        ]
        + _small_random_games(seed=2, count=6)
        + _small_random_games(seed=2, count=8, shrunk=True)
    )


def _small_random_games(seed: int, count: int, max_slots: int = 14, shrunk: bool = False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = random_game(rng)
        if len(sign_slots(g)) <= max_slots and (not shrunk or _shrinks(g)):
            out.append(g)
    return out


def _shrinks(game) -> bool:
    """True when the search peels a check and walks fewer classes than raw patterns."""
    quotient = _quotient(game)
    return bool(quotient.peeled) and math.prod(quotient.classes) < 1 << len(sign_slots(game))


def _last_row_game():
    # Only input strings 10 and 11 occur.  Player 2 must sign v with +1
    # (its product condition), so at 11 player 1 must sign v with -1 and at
    # 10 with +1: the heavier 11 wins, 0.75, and only with player 1's last
    # class.  Player 2 has more class bits, so it responds and player 1's
    # classes are the rows of the grid.
    return GraphicGame(
        graph=Graph(["v"]),
        n=2,
        m=1,
        assignments=AssignmentMap({(1, 0): ["v"], (1, 1): ["v"], (2, 0): ["v"], (2, 1): ["v"]}),
        distribution=JointDistribution({"10": 0.25, "11": 0.75}),
        payoff=ConsistencyPayoff(),
    )


def _witness_row(game, witness) -> tuple[int, int]:
    """The grid row that holds ``witness``, and the number of rows.

    Rows are the class codes of the first player that does not respond.
    """
    quotient = _quotient(game)
    a = 1 if _responder(quotient) == 0 else 0
    return int(np.unravel_index(witness.index, quotient.classes)[a]), quotient.classes[a]


class TestClassicalValue:
    def test_chsh(self):
        value, witness = classical_value(games.chsh_game())
        assert value == pytest.approx(0.75, abs=1e-12)
        assert strategy_value(games.chsh_game(), witness) == pytest.approx(value, abs=1e-15)

    def test_star3(self):
        value, _ = classical_value(games.star_game(3))
        assert value == pytest.approx(0.625, abs=1e-12)

    def test_shared_skewed(self):
        value, _ = classical_value(games.shared_game(3, p=0.7))
        assert value == pytest.approx(0.847, abs=1e-12)

    def test_trivial_game_wins_everything(self):
        value, _ = classical_value(games.trivial_game())
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_witness_attains_value(self):
        for build in (games.chsh_game, games.chain_game, lambda: games.star_game(4, p=0.3)):
            g = build()
            value, witness = classical_value(g)
            assert strategy_value(g, witness) == pytest.approx(value, abs=1e-14)

    def test_budget_error_reports_space(self):
        with pytest.raises(StrategySpaceError) as err:
            classical_value(games.star_game(4), budget=16)
        assert err.value.space_size > 16
        assert err.value.budget == 16

    def test_space_sizes_hold(self):
        named = (
            [(f"fixture {name}", build()) for name, build in games.FIXTURES.items()]
            + [(f"star{n1}", games.star_game(n1, p=0.3)) for n1 in range(2, 8)]
            + [("chain4", games.chain_game()), *((f"shared{l}", games.shared_game(l)) for l in (3, 4, 5))]
        )
        named = [(name, g) for name, g in named if isinstance(g.payoff, ConsistencyPayoff)]
        assert {name for name, _ in named} == set(_SPACE_BITS)
        for name, g in named:
            with pytest.raises(StrategySpaceError) as err:
                classical_value(g, budget=0)
            assert err.value.space_size == 1 << _SPACE_BITS[name], name

    def test_ties_break_to_lowest_index(self):
        # The witness must be the first point of the class enumeration that
        # scores the maximum, whichever player the search eliminates.
        for g in _tie_cases():
            scores = brute_force_scores(g)
            slots = sign_slots(g)
            quotient = _quotient(g)
            value, witness = classical_value(g)
            assert value == scores.max()
            assert witness.signs == _strategy(quotient, witness.index).signs

            def score(k):
                signs = _strategy(quotient, k).signs
                code = 0
                for slot in slots:
                    code = 2 * code + (signs[slot] == -1)
                return scores[code]

            first = next(k for k in range(math.prod(quotient.classes)) if score(k) == value)
            assert witness.index == first

    def test_blocks_keep_value_and_witness(self, monkeypatch):
        # One-row blocks must find what the whole grid finds, also when the
        # only optimum lies in the last row.
        last = _last_row_game()
        cases = _tie_cases() + [games.cube_game(3, p=0.3), last]
        reference = [classical_value(g) for g in cases]
        value, witness = reference[-1]
        scores = brute_force_scores(last)
        bit = len(sign_slots(last)) - 1 - sign_slots(last).index((1, 1, "v"))
        assert value == scores.max() == 0.75
        assert all(code >> bit & 1 for code in np.flatnonzero(scores == value))
        row, rows = _witness_row(last, witness)
        assert rows > 1 and row == rows - 1
        monkeypatch.setattr(classical, "_BLOCK_ENTRIES", 1)
        for g, (value, witness) in zip(cases, reference):
            got, blocked = classical_value(g)
            assert (got, blocked.index, blocked.signs) == (value, witness.index, witness.signs)

    def test_matches_brute_force_closed_forms_and_referee(self):
        # Every value is its witness's value through the referee, bit for
        # bit; it is the brute-force optimum wherever that is in reach, and
        # the closed form on the star and shared grids.  The class space
        # never exceeds the budgeted one, and is smaller on enough games for
        # the comparisons to test the quotient at all.
        rng = np.random.default_rng(2)
        grids = [
            (games.star_game(n1, p=p), closed_form_star_classical(ClosedFormParams(p=p, n1=n1)))
            for n1, priors in _STAR_GRID
            for p in priors
        ] + [
            (games.shared_game(l, p=p), closed_form_shared_classical(ClosedFormParams(p=p, l=l)))
            for l, priors in _SHARED_GRID
            for p in priors
        ]
        cases = (
            [(build(), None) for build in games.FIXTURES.values()]
            + grids
            + [(random_game(rng, max_vertices=5), None) for _ in range(300)]
        )
        fewer = 0
        for g, closed in cases:
            if not isinstance(g.payoff, ConsistencyPayoff):
                continue
            value, witness = classical_value(g)
            assert strategy_value(g, witness) == value
            if closed is not None:
                assert value == pytest.approx(closed, abs=1e-12)
            if len(sign_slots(g)) <= 16:
                assert value == pytest.approx(brute_force_scores(g).max(), abs=1e-12)
            class_bits = sum(_quotient(g).bits.values())
            space_bits = _space_size(g).bit_length() - 1
            assert class_bits <= space_bits
            fewer += class_bits < space_bits
        assert fewer >= 10

    def test_matches_ungrouped_brute_force(self):
        rng = np.random.default_rng(44)
        cases = [games.chsh_game(), games.star_game(3), games.shared_game(3)] + [
            dataclasses.replace(g, distribution=IIDDistribution(float(rng.choice((0.5, 0.3, 0.85)))))
            for g in _small_random_games(seed=43, count=40)
        ]
        for g in cases:
            value, witness = classical_value(g)
            assert value == pytest.approx(brute_force_classical_value(g), abs=1e-12)
            assert strategy_value(g, witness) == pytest.approx(value, abs=1e-12)

    def test_responder_saves_the_most(self):
        # The hub on stars, the first middle station on chain4.
        for g, axis in ((games.star_game(5), 0), (games.chain_game(), 1)):
            assert _responder(_quotient(g)) == axis

    def test_needs_two_players(self):
        solo = GraphicGame(
            graph=Graph(["v"]),
            n=1,
            m=0,
            assignments=AssignmentMap({(1, 0): ["v"]}),
            distribution=IIDDistribution(0.5),
            payoff=ConsistencyPayoff(),
        )
        with pytest.raises(GraphGameError):
            classical_value(solo)

    def test_relabelling_invariance(self):
        base = games.star_game(3)
        value, _ = classical_value(base)
        renamed = GraphicGame(
            graph=Graph(["x2", "x3", "y2", "y3"]),
            n=3,
            m=1,
            assignments=AssignmentMap(
                {
                    (1, 0): ["x2", "x3"],
                    (1, 1): ["x2", "x3"],
                    (2, 0): ["x2", "y2"],
                    (2, 1): ["x2", "y2"],
                    (3, 0): ["x3", "y3"],
                    (3, 1): ["x3", "y3"],
                }
            ),
            distribution=IIDDistribution(0.5),
            payoff=ConsistencyPayoff(),
        )
        renamed_value, _ = classical_value(renamed)
        assert renamed_value == pytest.approx(value, abs=1e-14)

    def test_value_bounds_and_witness_on_random_games(self):
        # The enumerating solver and the referee are independent paths; the
        # witness must score exactly the reported optimum through the latter.
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_game(rng)
            value, witness = classical_value(g)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert strategy_value(g, witness) == pytest.approx(value, abs=1e-12)

    def test_player_permutation_invariance(self):
        # Swap the two leaves of the star; ownership is isomorphic.
        base = games.star_game(3)
        swapped = GraphicGame(
            graph=base.graph,
            n=3,
            m=1,
            assignments=AssignmentMap(
                {
                    (1, 0): ["w2", "w3"],
                    (1, 1): ["w2", "w3"],
                    (2, 0): ["w3", "u3"],
                    (2, 1): ["w3", "u3"],
                    (3, 0): ["w2", "u2"],
                    (3, 1): ["w2", "u2"],
                }
            ),
            distribution=base.distribution,
            payoff=ConsistencyPayoff(),
        )
        assert classical_value(swapped)[0] == pytest.approx(classical_value(base)[0], abs=1e-14)


class TestClosedForms:
    def test_star_examples(self):
        assert closed_form_star_classical(ClosedFormParams(p=0.5, n1=2)) == pytest.approx(0.75, abs=1e-15)
        assert closed_form_star_classical(ClosedFormParams(p=0.5, n1=3)) == pytest.approx(0.625, abs=1e-15)
        assert closed_form_star_classical(ClosedFormParams(p=1.0, n1=5)) == pytest.approx(1.0, abs=1e-15)

    def test_shared_examples(self):
        assert closed_form_shared_classical(ClosedFormParams(p=0.5, l=3)) == pytest.approx(0.625, abs=1e-15)
        assert closed_form_shared_classical(ClosedFormParams(p=0.3, l=3)) == pytest.approx(0.643, abs=1e-12)
        assert closed_form_shared_classical(ClosedFormParams(p=0.7, l=3)) == pytest.approx(0.847, abs=1e-12)

    def test_branches_agree_at_half(self):
        for l in (3, 4, 5):
            lo = closed_form_shared_classical(ClosedFormParams(p=0.5 - 1e-13, l=l))
            hi = closed_form_shared_classical(ClosedFormParams(p=0.5 + 1e-13, l=l))
            assert lo == pytest.approx(hi, abs=1e-12)

    def test_linear_in_p_star(self):
        for p_star in (0.25, 0.5, 1.0):
            star = closed_form_star_classical(ClosedFormParams(p=0.4, p_star=p_star, n1=3))
            shared = closed_form_shared_classical(ClosedFormParams(p=0.4, p_star=p_star, l=4))
            assert star / p_star == pytest.approx(
                closed_form_star_classical(ClosedFormParams(p=0.4, n1=3)), abs=1e-14
            )
            assert shared / p_star == pytest.approx(
                closed_form_shared_classical(ClosedFormParams(p=0.4, l=4)), abs=1e-14
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            closed_form_star_classical(ClosedFormParams(p=0.5, n1=1))
        with pytest.raises(ValueError):
            closed_form_shared_classical(ClosedFormParams(p=0.5, l=2))
        with pytest.raises(ValueError):
            closed_form_star_classical(ClosedFormParams(p=1.5, n1=2))

    def test_star_grid_against_brute_force(self):
        # star7's reduced space is exactly the default budget.
        for n1, priors in _STAR_GRID:
            for p in priors:
                brute, _ = classical_value(games.star_game(n1, p=p))
                assert brute == pytest.approx(
                    closed_form_star_classical(ClosedFormParams(p=p, n1=n1)), abs=1e-12
                )

    def test_star7_space_is_the_default_budget(self):
        with pytest.raises(StrategySpaceError) as err:
            classical_value(games.star_game(7), budget=0)
        assert err.value.space_size == 2**24 == DEFAULT_STRATEGY_BUDGET

    def test_shared_grid_against_brute_force(self):
        for l, priors in _SHARED_GRID:
            for p in priors:
                brute, _ = classical_value(games.shared_game(l, p=p))
                assert brute == pytest.approx(
                    closed_form_shared_classical(ClosedFormParams(p=p, l=l)), abs=1e-12
                )


class TestGyniBound:
    def test_uniform(self):
        assert gyni_classical_bound(IIDDistribution(0.5), 3) == pytest.approx(0.25, abs=1e-15)

    def test_complementary_mass(self):
        d = JointDistribution({"000": 0.5, "111": 0.5})
        assert gyni_classical_bound(d, 3) == pytest.approx(1.0, abs=1e-15)

    def test_sparse_table(self):
        d = JointDistribution({"000": 0.6, "011": 0.4})
        assert gyni_classical_bound(d, 3) == pytest.approx(0.6, abs=1e-15)


class TestInjectivity:
    def test_identity_permutation(self):
        tables = {i: {k: int(k[i - 1]) for k in ("000", "001", "010", "011", "100", "101", "110", "111")} for i in (1, 2, 3)}
        assert check_injective(games.gyni_game().payoff.targets, 3)
        from graphgame import TargetFunction

        assert check_injective(TargetFunction(tables), 3)

    def test_sum_mapping(self):
        assert check_injective(games.example2_game().payoff.targets, 3)

    def test_power_mapping(self):
        from graphgame import TargetFunction
        from graphgame.model import bits_key, input_vectors

        tables = {
            i: {
                bits_key(x): 2 ** x[i - 1] - 2 ** (sum(x) - x[i - 1])
                for x in input_vectors(3)
            }
            for i in (1, 2, 3)
        }
        assert check_injective(TargetFunction(tables), 3)

    def test_constant_collides(self):
        assert not check_injective(games.constant_target_game().payoff.targets, 3)


class TestTargetValues:
    def test_gyni_matches_bound(self):
        g = games.gyni_game()
        assert target_classical_value(g) == pytest.approx(0.25, abs=1e-15)
        assert target_classical_value(g) == pytest.approx(
            gyni_classical_bound(g.distribution, 3), abs=1e-15
        )

    def test_keyed_strategy_wins_skewed_prior(self):
        g = games.gyni_game(dist=JointDistribution({"000": 0.9, "111": 0.1}))
        assert target_classical_value(g) == pytest.approx(1.0, abs=1e-15)

    def test_single_player_echo(self):
        value = target_value_from_tables({1: {"0": 0, "1": 1}}, IIDDistribution(0.5), 1)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_injective_value_can_exceed_pair_bound(self):
        # The complementary-pair bound is not tight for every injective
        # target: the coordinate-sum mapping admits a three-string win set
        # {001, 010, 100}, worth 3/8 under uniform inputs.
        g = games.example2_game()
        brute = target_classical_value(g)
        assert brute == pytest.approx(0.375, abs=1e-12)
        assert brute > gyni_classical_bound(g.distribution, 3)

    def test_budget(self):
        with pytest.raises(StrategySpaceError) as caught:
            target_classical_value(games.example2_game(), budget=8)
        assert (caught.value.space_size, caught.value.budget) == (9**3, 8)

    @staticmethod
    def _target_cases():
        cases = [
            (g.payoff.targets.tables, g.distribution, g.n)
            for g in (games.gyni_game(), games.example2_game(), games.constant_target_game())
        ]
        # Only player 1's last table (image 1 at both inputs) wins everything:
        # its image 0 sits on an absent string.
        last = {1: {"00": 1, "01": 1, "10": 1, "11": 0}, 2: {"00": 0, "01": 1, "10": 0, "11": 1}}
        cases.append((last, JointDistribution({"00": 0.5, "01": 0.2, "10": 0.3}), 2))
        rng = np.random.default_rng(61)
        for n in (2, 3, 4, 5) * 12:
            tables, dist = random_target_tables(rng, n)
            # The reference loop visits every joint table: keep it quick.
            if math.prod(len(set(t.values())) ** 2 for t in tables.values()) <= 9**4:
                cases.append((tables, dist, n))
        return cases

    @pytest.mark.parametrize("block_entries", [None, 1], ids=["whole", "one-row-blocks"])
    def test_matches_exhaustive_loop(self, block_entries, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(classical, "_BLOCK_ENTRIES", block_entries)
        cases = self._target_cases()
        assert {n for _, _, n in cases} == {2, 3, 4, 5}
        for tables, dist, n in cases:
            assert target_value_from_tables(tables, dist, n) == exhaustive_target_value(tables, dist, n)
