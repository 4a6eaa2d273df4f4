"""Scenario generation and the VCG-vs-greedy sweep."""

import re

import numpy as np
import pytest

from beamauction import (
    ConfigurationError,
    ExperimentConfig,
    ExperimentRow,
    availability_order,
    build_bid_matrix,
    determine_winners,
    generate_scenario,
    greedy_allocate,
    run_experiment,
)
from beamauction.sim import REPORT_HEADER, _draw_demands, _replication_seed, _words

DRAW_FIELDS = ("capacity", "demand_low", "demand_high")


class TestGenerateScenario:
    def test_identical_seeds_reproduce_the_bid_matrix(self):
        first = generate_scenario(3, 2, seed=77)
        second = generate_scenario(3, 2, seed=77)
        assert np.array_equal(
            build_bid_matrix(first).values, build_bid_matrix(second).values
        )

    def test_different_seeds_differ(self):
        a = build_bid_matrix(generate_scenario(3, 2, seed=1)).values
        b = build_bid_matrix(generate_scenario(3, 2, seed=2)).values
        assert not np.array_equal(a, b)

    def test_demand_at_capacity_zeroes_every_bid(self):
        scenario = generate_scenario(4, 3, demand_low=150.0, demand_high=150.0)
        assert np.all(build_bid_matrix(scenario).values == 0.0)

    def test_no_demand_bids_full_capacity(self):
        scenario = generate_scenario(4, 3, demand_low=0.0, demand_high=0.0)
        assert np.all(build_bid_matrix(scenario).values == 150.0)

    def test_beams_become_available_in_id_order(self):
        scenario = generate_scenario(5, 3, seed=0)
        assert [b.available_at for b in scenario.beams] == [1, 2, 3]
        assert all(b.capacity == 150.0 for b in scenario.beams)

    def test_invalid_bounds_are_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_scenario(3, 2, demand_low=100.0, demand_high=50.0)
        with pytest.raises(ConfigurationError):
            generate_scenario(3, 2, demand_low=-1.0, demand_high=50.0)
        with pytest.raises(ConfigurationError):
            generate_scenario(2, 3)
        with pytest.raises(ConfigurationError):
            generate_scenario(3, 2, capacity=0.0)
        with pytest.raises(ConfigurationError):
            generate_scenario(3, 2, capacity=np.inf)
        with pytest.raises(ConfigurationError):
            generate_scenario(3, 2, demand_high=np.inf)
        for seed in (1.5, -1):
            with pytest.raises(ConfigurationError, match="seed"):
                generate_scenario(3, 2, seed=seed)
        whole = generate_scenario(3.0, np.int64(2), seed=5.0)
        assert (whole.n_terminals, whole.n_beams, whole.rng_seed) == (3, 2, 5)
        same = build_bid_matrix(generate_scenario(3, 2, seed=5))
        assert np.array_equal(build_bid_matrix(whole).values, same.values)

    @pytest.mark.parametrize("field", DRAW_FIELDS)
    def test_draw_settings_are_read_as_numbers(self, field):
        text = build_bid_matrix(generate_scenario(3, 2, seed=4, **{field: "150"}))
        number = build_bid_matrix(generate_scenario(3, 2, seed=4, **{field: 150.0}))
        assert np.array_equal(text.values, number.values)
        for bad in (None, [1]):
            with pytest.raises(ConfigurationError, match=f"{field} must be a number"):
                generate_scenario(3, 2, **{field: bad})

    @pytest.mark.parametrize(
        "n_terminals, n_beams, bounds, seed",
        [(1, 1, (50.0, 150.0), 0), (30, 8, (50.0, 150.0), 42), (7, 3, (0.0, 400.0), 9)],
    )
    def test_demands_are_the_shared_draw(self, n_terminals, n_beams, bounds, seed):
        # The sweep builds its bids from this draw without a Scenario, so
        # the public scenario must hold it row for row, epoch by epoch, and
        # offer the beams in the order 1..N that the sweep hands greedy.
        low, high = bounds
        scenario = generate_scenario(
            n_terminals, n_beams, demand_low=low, demand_high=high, seed=seed
        )
        drawn = _draw_demands(n_terminals, n_beams, low, high, seed)
        epochs = range(1, n_beams + 1)
        demands = [[t.demand_at(e) for e in epochs] for t in scenario.terminals]
        assert demands == drawn.tolist()
        assert availability_order(scenario.beams) == list(epochs)


# Bad sweep inputs as generate_scenario's arguments (n_terminals, n_beams,
# capacity, demand_low, demand_high, seed).
BAD_SWEEP_INPUTS = {
    "terminals-fewer-than-beams": (2, 3, 150.0, 50.0, 150.0, 0),
    "zero-beams": (3, 0, 150.0, 50.0, 150.0, 0),
    "negative-seed": (3, 2, 150.0, 50.0, 150.0, -1),
    "fractional-seed": (3, 2, 150.0, 50.0, 150.0, 1.5),
    "zero-capacity": (3, 2, 0.0, 50.0, 150.0, 0),
    "infinite-capacity": (3, 2, np.inf, 50.0, 150.0, 0),
    "text-capacity": (3, 2, "abc", 50.0, 150.0, 0),
    "demand-low-above-high": (3, 2, 150.0, 100.0, 50.0, 0),
}


@pytest.mark.parametrize("args", BAD_SWEEP_INPUTS.values(), ids=BAD_SWEEP_INPUTS)
def test_one_rule_refuses_bad_input_at_both_entry_points(args):
    n_terminals, n_beams, capacity, low, high, seed = args
    with pytest.raises(ConfigurationError) as scenario_error:
        generate_scenario(n_terminals, n_beams, capacity, low, high, seed)
    with pytest.raises(ConfigurationError) as config_error:
        ExperimentConfig(n_terminals, (n_beams,), capacity, low, high, rng_seed=seed)
    assert str(scenario_error.value) == str(config_error.value)


class TestExperimentConfig:
    def test_defaults_match_the_reference_sweep(self):
        config = ExperimentConfig()
        assert config.n_terminals == 30
        assert config.beam_counts == (2, 3, 4, 5, 6, 7, 8)
        assert config.capacity == 150.0
        assert (config.demand_low, config.demand_high) == (50.0, 150.0)
        assert config.replications == 100
        assert config.rng_seed == 42

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_terminals=4, beam_counts=(2, 5))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(beam_counts=())
        with pytest.raises(ConfigurationError):
            ExperimentConfig(beam_counts=(2, 2))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replications=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(demand_low=80.0, demand_high=20.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(capacity=np.inf)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(demand_high=np.inf)
        with pytest.raises(ConfigurationError, match="rng_seed must be >= 0"):
            ExperimentConfig(rng_seed=-1)
        for not_a_sequence in (5, None, "234", b"\x02\x03"):
            with pytest.raises(ConfigurationError, match="beam_counts must be a"):
                ExperimentConfig(beam_counts=not_a_sequence)
        for fractional in [
            {"n_terminals": 12.9},
            {"beam_counts": (2.7, 3)},
            {"replications": 2.5},
            {"rng_seed": 1.5},
            {"rng_seed": np.nan},
            {"replications": np.inf},
        ]:
            with pytest.raises(ConfigurationError, match="whole number"):
                ExperimentConfig(**fractional)

    def test_whole_number_settings_are_stored_as_int(self):
        config = ExperimentConfig(
            n_terminals=np.int64(12),
            beam_counts=(2.0, np.int32(3)),
            replications=2.0,
            rng_seed=np.float64(1),
        )
        fields = [config.n_terminals, *config.beam_counts]
        fields += [config.replications, config.rng_seed]
        assert fields == [12, 2, 3, 2, 1]
        assert all(type(value) is int for value in fields)
        assert run_experiment(config).rows[0].replications == 2

    def test_draw_settings_are_stored_as_float(self):
        config = ExperimentConfig(
            capacity=np.int64(200), demand_low=50, demand_high=np.float32(100.5)
        )
        draw = [getattr(config, field) for field in DRAW_FIELDS]
        assert draw == [200.0, 50.0, 100.5]
        assert all(type(value) is float for value in draw)

    @pytest.mark.parametrize("field", DRAW_FIELDS)
    def test_draw_settings_are_read_as_numbers(self, field):
        value = getattr(ExperimentConfig(**{field: "150"}), field)
        assert value == 150.0 and type(value) is float
        for bad in (None, [1]):
            with pytest.raises(ConfigurationError, match=f"{field} must be a number"):
                ExperimentConfig(**{field: bad})


class TestRunExperiment:
    def test_single_replication_single_count(self):
        config = ExperimentConfig(
            n_terminals=5, beam_counts=(2,), replications=1, rng_seed=3
        )
        report = run_experiment(config)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.n_fasb == 2
        assert row.replications == 1
        assert row.vcg_std == 0.0 and row.greedy_std == 0.0
        assert row.vcg_mean <= row.greedy_mean + 1e-9

    def test_optimum_dominates_greedy_in_every_row(self):
        config = ExperimentConfig(
            n_terminals=12, beam_counts=(2, 4, 6), replications=25, rng_seed=11
        )
        report = run_experiment(config)
        for row in report.rows:
            assert row.vcg_mean <= row.greedy_mean + 1e-9

    def test_reproducible_byte_for_byte(self):
        config = ExperimentConfig(
            n_terminals=10, beam_counts=(2, 3), replications=10, rng_seed=5
        )
        assert run_experiment(config).to_csv() == run_experiment(config).to_csv()

    def test_rows_do_not_depend_on_sweep_order(self):
        # Each replication derives its generator state from
        # (seed, beam count, index), so sweeping in a different order
        # produces identical per-count statistics.
        kwargs = dict(n_terminals=8, replications=8, rng_seed=9)
        forward = run_experiment(ExperimentConfig(beam_counts=(2, 4), **kwargs))
        backward = run_experiment(ExperimentConfig(beam_counts=(4, 2), **kwargs))
        assert sorted(forward.rows, key=lambda r: r.n_fasb) == sorted(
            backward.rows, key=lambda r: r.n_fasb
        )

    def test_bids_above_the_size_limit_name_their_cell(self):
        # The same located message the public BidMatrix constructor gives.
        config = ExperimentConfig(capacity=1e308, beam_counts=(2,), replications=1)
        message = (
            "bid matrix entries must be finite and <= 2.9961552247705263e+307; "
            "row 1, column 1 holds 1e+308"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(config)

    def test_scaling_demands_and_capacity_scales_the_means(self):
        base = ExperimentConfig(
            n_terminals=8, beam_counts=(2, 3), replications=10, rng_seed=21
        )
        scaled = ExperimentConfig(
            n_terminals=8,
            beam_counts=(2, 3),
            capacity=base.capacity * 3.0,
            demand_low=base.demand_low * 3.0,
            demand_high=base.demand_high * 3.0,
            replications=10,
            rng_seed=21,
        )
        for row, srow in zip(run_experiment(base).rows, run_experiment(scaled).rows):
            assert srow.vcg_mean == pytest.approx(3.0 * row.vcg_mean, rel=1e-9)
            assert srow.greedy_mean == pytest.approx(3.0 * row.greedy_mean, rel=1e-9)


def _tuple_route_seed(base_seed, n_beams, rep):
    """A replication's int seed as numpy derives it from the tuple itself."""
    seq = np.random.SeedSequence((base_seed, n_beams, rep))
    return int(seq.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("base_seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("n_beams", [1, 8])
@pytest.mark.parametrize("rep", [0, 1])
def test_word_seeding_draws_the_tuple_route(base_seed, n_beams, rep):
    words = _replication_seed(_words(base_seed), n_beams, rep)
    tuple_seed = _tuple_route_seed(base_seed, n_beams, rep)
    assert words.tolist() == [tuple_seed & 0xFFFFFFFF, tuple_seed >> 32]
    by_words = _draw_demands(30, n_beams, 50.0, 150.0, words)
    assert (by_words == _draw_demands(30, n_beams, 50.0, 150.0, tuple_seed)).all()


@pytest.mark.parametrize("state", [0, 1, 2**32 - 1])
def test_a_zero_high_word_seeds_as_its_int(state):
    # _replication_seed always returns two words; an int below 2**32 reads as one.
    by_words = _draw_demands(5, 3, 0.0, 1.0, np.array([state, 0], np.uint32))
    assert (by_words == _draw_demands(5, 3, 0.0, 1.0, state)).all()


def _public_path_rows(config):
    """``run_experiment``'s rows, rebuilt scenario by scenario through the
    public ``generate_scenario`` -> ``build_bid_matrix`` path, each seed
    derived by numpy from the (seed, beam count, replication) tuple."""
    rows = []
    for n_beams in config.beam_counts:
        vcg, greedy = [], []
        for rep in range(config.replications):
            scenario = generate_scenario(
                config.n_terminals,
                n_beams,
                capacity=config.capacity,
                demand_low=config.demand_low,
                demand_high=config.demand_high,
                seed=_tuple_route_seed(config.rng_seed, n_beams, rep),
            )
            bids = build_bid_matrix(scenario)
            order = availability_order(scenario.beams)
            vcg.append(determine_winners(bids).total_cost / n_beams)
            greedy.append(greedy_allocate(bids, order).total_cost / n_beams)
        vcg, greedy = np.array(vcg), np.array(greedy)
        rows.append(
            ExperimentRow(
                n_beams,
                float(vcg.mean()),
                float(vcg.std()),
                float(greedy.mean()),
                float(greedy.std()),
                config.replications,
            )
        )
    return tuple(rows)


@pytest.mark.parametrize(
    "settings",
    [
        dict(replications=3),
        dict(demand_low=120.0, demand_high=120.0, replications=2),
        dict(demand_high=200.0, replications=2),
        dict(capacity=240.0, replications=2),
        dict(n_terminals=8, replications=2),
        dict(replications=1, rng_seed=7),
        # Longer than numpy's 128-element pairwise-summation block.
        dict(n_terminals=4, beam_counts=(2, 3), replications=300),
    ],
    ids=["defaults", "every-bid-ties", "zero-clamped", "capacity", "m-equals-n",
         "one-rep", "long-rows"],
)
def test_sweep_rows_equal_the_public_scenario_path(settings):
    config = ExperimentConfig(**settings)
    assert run_experiment(config).rows == _public_path_rows(config)


class TestReportCsv:
    def test_layout_and_sorting(self):
        config = ExperimentConfig(
            n_terminals=6, beam_counts=(3, 2), replications=2, rng_seed=1
        )
        lines = run_experiment(config).to_csv().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 1 + 2 * 2  # header + (greedy, vcg) per count
        assert lines[1].startswith("2,greedy,")
        assert lines[2].startswith("2,vcg,")
        assert lines[3].startswith("3,greedy,")
        assert lines[4].startswith("3,vcg,")

    def test_write_csv_round_trip(self, tmp_path):
        config = ExperimentConfig(
            n_terminals=5, beam_counts=(2,), replications=2, rng_seed=1
        )
        report = run_experiment(config)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        assert out.read_text(encoding="utf-8") == report.to_csv()
