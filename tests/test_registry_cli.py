"""Unit tests for the algorithm registry and the CLI."""

import pytest

from repro.adversary.profiles import DemandProfile
from repro.analysis.exact import exact_collision_probability
from repro.cli import build_parser, main
from repro.core.bins import BinsGenerator
from repro.core.cluster import ClusterGenerator
from repro.core.registry import (
    available_algorithms,
    make_generator,
    parse_spec,
    register,
)
from repro.core.skew_aware import SkewAwareGenerator
from repro.errors import ConfigurationError
from repro.simulation.seeds import rng_for
from repro.simulation.vectorized import plan_profile

#: Malformed specs: an unknown name, wrong parameter counts, and
#: parameters that are not integers.
BAD_SPECS = [
    "nonsense",
    "bins",
    "bins:4:4",
    "cluster:3",
    "random:7",
    "cluster*:2",
    "skew:4",
    "bins:x",
    "skew:4:y",
]


class TestRegistry:
    def test_known_names_present(self):
        names = available_algorithms()
        for expected in (
            "random", "cluster", "bins", "cluster_star", "bins_star",
            "skew",
        ):
            assert expected in names

    def test_simple_spec(self):
        generator = make_generator("cluster", 100, rng_for(1))
        assert isinstance(generator, ClusterGenerator)

    def test_parameterized_spec(self):
        generator = make_generator("bins:8", 128, rng_for(1))
        assert isinstance(generator, BinsGenerator)
        assert generator.k == 8

    def test_two_parameter_spec(self):
        generator = make_generator("skew:4:32", 1024, rng_for(1))
        assert isinstance(generator, SkewAwareGenerator)
        assert (generator.i, generator.j) == (4, 32)

    def test_star_aliases(self):
        assert make_generator("cluster*", 64, rng_for(1)).name == (
            "cluster_star"
        )
        assert make_generator("bins*", 64, rng_for(1)).name == "bins_star"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_generator("nonsense", 100)

    def test_bad_parameter(self):
        with pytest.raises(ConfigurationError):
            make_generator("bins:huge", 100)

    def test_register_rejects_colon(self):
        with pytest.raises(ConfigurationError):
            register("my:thing", ClusterGenerator)

    def test_parse_spec(self):
        assert parse_spec("Bins:16") == ("bins", (16,))
        assert parse_spec(" cluster* ") == ("cluster_star", ())
        assert parse_spec("bins_star") == ("bins_star", ())
        assert parse_spec("skew:4:32") == ("skew", (4, 32))

    def test_parse_spec_names_the_grammar(self):
        with pytest.raises(ConfigurationError, match="bins takes bins:K"):
            parse_spec("bins")
        with pytest.raises(ConfigurationError, match="skew takes skew:I:J"):
            parse_spec("skew:4")
        with pytest.raises(ConfigurationError, match="no parameters"):
            parse_spec("cluster:3")
        with pytest.raises(ConfigurationError, match="non-integer"):
            parse_spec("bins:x")

    @pytest.mark.parametrize("spec", BAD_SPECS)
    @pytest.mark.parametrize(
        "reader",
        [
            lambda spec: make_generator(spec, 64),
            lambda spec: exact_collision_probability(
                spec, 64, DemandProfile.of(4, 4)
            ),
            lambda spec: plan_profile(spec, 64, DemandProfile.of(4, 4)),
        ],
        ids=["make_generator", "exact", "plan_profile"],
    )
    def test_every_reader_rejects_a_malformed_spec(self, reader, spec):
        with pytest.raises(ConfigurationError):
            reader(spec)


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "cluster", "--count", "3"])
        assert args.command == "generate"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out and "E12" in out

    def test_generate(self, capsys):
        assert main(
            ["generate", "cluster", "--m", "1000", "--count", "4",
             "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        values = [int(line) for line in lines]
        assert all(0 <= v < 1000 for v in values)

    def test_generate_hex(self, capsys):
        assert main(
            ["generate", "random", "--m", str(1 << 32), "--count", "2",
             "--hex"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(line) == 8 for line in lines)

    def test_analyze(self, capsys):
        assert main(
            ["analyze", "cluster", "4,4", "--m", "1024"]
        ) == 0
        out = capsys.readouterr().out
        assert "p_cluster" in out
        assert "0.0068" in out  # (4+4-1)/1024

    def test_analyze_unknown_algorithm_fails_cleanly(self, capsys):
        assert main(["analyze", "wat", "4,4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "bins", "4,4"],
            ["analyze", "bins:x", "4,4"],
            ["worst", "bins", "--n", "2", "--d", "4", "--m", "64"],
            ["analyze", "cluster:3", "4,4"],
            ["analyze", "random:7", "4,4"],
            ["simulate", "bins", "4,4", "--trials", "10"],
            ["simulate", "cluster:3", "4,4", "--engine", "numpy",
             "--trials", "10"],
        ],
    )
    def test_malformed_spec_fails_cleanly(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "cluster", "4,x"],
            ["simulate", "cluster", "4,,4", "--trials", "10"],
        ],
    )
    def test_malformed_profile_fails_cleanly(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, demand, m",
        [
            (["cluster", "4,4", "--m", "2"], 4, 2),
            (["cluster", "4,4", "--m", "2", "--engine", "numpy"], 4, 2),
            (["cluster_star", "9,9", "--m", "8"], 9, 8),
        ],
    )
    def test_simulate_rejects_a_demand_past_m(self, capsys, argv, demand, m):
        """An instance cannot draw more than m IDs, so the profile is
        refused with the message ``analyze`` gives, not estimated."""
        assert main(["simulate", *argv, "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: profile demands an instance produce {demand} IDs "
            f"from a universe of {m}\n"
        )
        assert main(["analyze", "cluster", argv[1], "--m", str(m)]) == 2
        assert capsys.readouterr().err == err

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "cluster", "16,16", "--m", "256",
             "--trials", "200", "--seed", "1"]
        ) == 0
        assert "oblivious" in capsys.readouterr().out

    def test_simulate_attack(self, capsys):
        assert main(
            ["simulate", "cluster", "64,64,64,64", "--m", "4096",
             "--trials", "100", "--attack", "closest_pair"]
        ) == 0
        assert "closest_pair" in capsys.readouterr().out
