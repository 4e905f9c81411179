"""Bad input is rejected at the edge with exit code 2, before any compute."""

import dataclasses
import functools
import math
import os
import tempfile
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavreg import ConfigurationError
from cavreg.cli import main
from cavreg.config import SCHEMA, Config, load_config, parse_config_text
from cavreg.harness import (EXPERIMENTS, DepumpScalingParams, ErrorScalingParams, ExperimentSpec,
                            LifetimeParams, SearchCostParams, run)
from cavreg.photons import PhotonModel
from cavreg.search import SearchProblem

DEFAULTS = Path(__file__).parent.parent / "src" / "cavreg" / "defaults.cfg"


def _with(old: str, new: str) -> str:
    text = DEFAULTS.read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_seed_outside_u64(seed, tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["histogram", "--trials", "10", "--seed", seed, "--out", str(out)]) == 2
    assert "2**64" in capsys.readouterr().err
    assert not out.exists()


def test_cli_accepts_largest_seed(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["histogram", "--trials", "10", "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_spec_rejects_seed_outside_u64(seed):
    with pytest.raises(ConfigurationError, match="2\\*\\*64"):
        ExperimentSpec("histogram", trials=10, master_seed=seed)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_config_rejects_seed_outside_u64(seed):
    text = _with("master_seed = 20250809", f"master_seed = {seed}")
    with pytest.raises(ConfigurationError, match="master_seed"):
        parse_config_text(text)


@pytest.mark.parametrize("count", ["-1", "9", "2"])
def test_config_rejects_unreachable_post_select(count):
    # the shipped distances are 1, 3, 5: a count above 1 misses d = 1
    with pytest.raises(ConfigurationError, match="'code.post_select'"):
        parse_config_text(_with("post_select = distance", f"post_select = {count}"))


@pytest.mark.parametrize("count", ["-1", "9"])
def test_cli_post_select_out_of_range_is_exit_2(count, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with("post_select = distance", f"post_select = {count}"))
    out = tmp_path / "e.csv"
    rc = main(["error-scaling", "--config", str(cfg), "--trials", "100", "--out", str(out)])
    assert rc == 2
    assert "post_select" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "4"])
def test_run_error_scaling_rejects_unreachable_post_select(count):
    with pytest.raises(ConfigurationError, match="post_select"):
        params = ErrorScalingParams(distances=[3, 5], post_select=count)
        run(ExperimentSpec("error_scaling", params, trials=100, master_seed=1))


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: ErrorScalingParams(distances=[3, 5], post_select="4"), "post_select"),
        (lambda: LifetimeParams(idle_ms=0.0, round_overhead_ms=0.0), "lifetime round time"),
        # combinations no one-key config edit reaches
        (lambda: PhotonModel(full_interval_us=-200.0, sub_interval_us=-20.0),
         "photon.full_interval_us"),
        (lambda: DepumpScalingParams(adaptive=False, adaptive_loss_factor=0.0),
         "readout.adaptive_loss_factor"),
        (lambda: ErrorScalingParams(post_select="bogus"), "code.post_select"),
        (lambda: ErrorScalingParams(post_select=None), "code.post_select"),
        (lambda: ErrorScalingParams(rounds=2.5), "code.rounds"),
        # a look-alike of a member used to pass: the enum's value string ran
        # the independent placement, a strategy's failed partway through the sweep
        (lambda: SearchCostParams(placement="at_most_one"), "placement"),
        (lambda: SearchCostParams(strategies=["sequential"]), "search.strategies"),
        (lambda: SearchCostParams(noise=(0.1, 0.1)), "search noise"),
        (lambda: SearchProblem(6, 0.3, "at_most_one"), "placement"),
        (lambda: SearchProblem(2.5, 0.3), "search.sizes"),
    ],
    ids=["error_scaling_post_select", "lifetime_zero_round_time", "both_intervals_negative",
         "zero_loss_factor_unused", "post_select_not_a_count", "post_select_none",
         "rounds_not_an_int", "placement_value_string", "strategy_value_string",
         "noise_not_a_model", "problem_placement_value_string", "problem_size_not_an_int"],
)
def test_code_params_reject_bad_input_when_built(build, key):
    # checked by the params class itself, so no caller can sample first
    with pytest.raises(ConfigurationError, match=key):
        build()


def test_post_select_in_range_runs():
    params = ErrorScalingParams(distances=[3, 5], flip_sweep=[0.1], post_select="3")
    rows = run(ExperimentSpec("error_scaling", params, trials=200, master_seed=1)).rows
    assert {r["survivors"] for r in rows} == {3}


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(threads, tmp_path, capsys):
    out = tmp_path / "h.csv"
    rc = main(["histogram", "--trials", "10", "--threads", threads, "--out", str(out)])
    assert rc == 2
    assert "threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_spec_rejects_threads_below_one(threads):
    with pytest.raises(ConfigurationError, match="threads"):
        ExperimentSpec("histogram", trials=10, threads=threads)


@pytest.mark.parametrize(
    "key, value", [("trials", 10.5), ("trials", True), ("threads", 1.5), ("threads", True),
                   ("master_seed", 7.0), ("master_seed", False)]
)
def test_spec_rejects_counts_that_are_not_ints(key, value):
    # a float used to build, and the run then died with a TypeError in range
    with pytest.raises(ConfigurationError, match=f"run.{key}"):
        ExperimentSpec("histogram", **{"trials": 10, key: value})


def test_cli_missing_output_directory_is_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "h.csv"
    rc = main(["histogram", "--trials", "10", "--out", str(out)])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["existing directory", "trailing separator", "meta directory"])
def test_cli_output_path_naming_a_directory_is_exit_2_before_sampling(
    case, tmp_path, capsys, monkeypatch
):
    # os.replace onto a directory fails only after the whole run
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a run whose output path should have been rejected")

    monkeypatch.setattr("cavreg.harness.round_counts", no_sampling)
    out = {
        "existing directory": tmp_path / "x",
        "trailing separator": f"{tmp_path / 'x'}{os.sep}",
        "meta directory": tmp_path / "e.csv",
    }[case]
    made = tmp_path / ("e.csv.meta.json" if case == "meta directory" else "x")
    made.mkdir()
    rc = main(["error-scaling", "--trials", "100", "--out", str(out)])
    assert rc == 2
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [made]
    assert list(made.iterdir()) == []


def test_failed_sidecar_write_leaves_no_output(tmp_path, monkeypatch):
    def fail(path, spec, result):
        open(path, "w").close()
        raise OSError("disk full")

    monkeypatch.setattr("cavreg.cli.write_metadata", fail)
    out = tmp_path / "h.csv"
    assert main(["histogram", "--trials", "10", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("sizes = 2,3,4,5,6,7,8,9,10", "sizes = 2, 65", "'search.sizes': 65"),
        ("sizes = 2,3,4,5,6,7,8,9,10", "sizes = 0, 3", "'search.sizes': 0"),
        ("bright_probabilities = 0.0, 0.1", "bright_probabilities = 1.5, 0.1",
         "'search.bright_probabilities': 1.5"),
        ("sizes = 2,3,4,5,6,7,8,9,10", "sizes =", "search.sizes"),
        ("bright_probabilities = 0.0, 0.1, 0.3, 0.5, 1.0", "bright_probabilities =",
         "search.bright_probabilities"),
    ],
)
def test_cli_search_sweep_out_of_range_is_exit_2(old, new, key, tmp_path, capsys):
    # a search register is one uint64 bitmask: 1 to 64 sites
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(old, new))
    out = tmp_path / "s.csv"
    rc = main(["search-cost", "--config", str(cfg), "--trials", "10", "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


CODE_SWEEPS = [
    ("flip_sweep = 0.02, 0.04", "flip_sweep = 1.5, 0.04", "'code.flip_sweep': 1.5",
     ["error-scaling"]),
    ("flip_sweep = 0.02, 0.04", "flip_sweep = -0.1, 0.04", "'code.flip_sweep': -0.1",
     ["error-scaling"]),
    ("distances = 1, 3, 5", "distances = 1, 2, 5", "'code.distances': 2",
     ["error-scaling", "lifetime"]),
    ("distances = 1, 3, 5", "distances = -1, 3, 5", "'code.distances': -1",
     ["error-scaling", "lifetime"]),
    ("distances = 1, 3, 5", "distances =", "code.distances", ["error-scaling", "lifetime"]),
    ("flip_sweep = 0.02, 0.04, 0.08, 0.12, 0.2", "flip_sweep =", "code.flip_sweep", ["error-scaling"]),
    ("flip_sweep = 0.02, 0.04", "flip_sweep = nan, 0.04", "code.flip_sweep", ["error-scaling"]),
    ("tau_depump_ms = 150.0", "tau_depump_ms = nan", "tau_depump_ms", ["lifetime"]),
    ("tau_vacuum_ms = 800.0", "tau_vacuum_ms = inf", "tau_vacuum_ms", ["lifetime"]),
    ("idle_ms = 20.0", "idle_ms = inf", "code.idle_ms", ["lifetime"]),
    ("0.4:5.2", "0.4:nan", "suppression_points_mw", ["depump-scaling"]),
    ("sizes = 1,2,3,4,5,6,7,8,9,10", "sizes =", "readout.sizes", ["depump-scaling"]),
]


@pytest.mark.parametrize("old, new, key, commands", CODE_SWEEPS)
def test_code_sweep_out_of_range_is_exit_2_before_sampling(
    old, new, key, commands, tmp_path, capsys, monkeypatch
):
    # odd distances >= 1 and flip probabilities in [0, 1], as repcode.check_code requires;
    # finite floats and non-empty sweep lists, as the config parsers require
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a code sweep that should have been rejected")

    monkeypatch.setattr("cavreg.harness.simulate_code_abstract", no_sampling)
    monkeypatch.setattr("cavreg.harness.round_counts", no_sampling)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(old, new))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    for command in commands:
        out = tmp_path / "c.csv"
        rc = main([command, "--config", str(cfg), "--trials", "100", "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "points, message",
    [
        ("0:1, 0:5.2", "calibrated twice"),
        ("0:1, 0.4:5.2, 0.4:6", "calibrated twice"),
        ("-0.4:1, 0.4:5.2", "is negative"),
        ("0:1, 0.4", "expected power:factor, got '0.4'"),
        ("0:1:2", "expected power:factor, got '0:1:2'"),
    ],
)
def test_hiding_calibration_with_repeated_or_negative_power_is_exit_2(
    points, message, tmp_path, capsys
):
    # the log-linear interpolation divides by the gap between two powers
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with("suppression_points_mw = 0:1, 0.4:5.2",
                         f"suppression_points_mw = {points}"))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "d.csv"
    rc = main(["depump-scaling", "--config", str(cfg), "--trials", "50", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "old, new, command, sampler, message",
    [
        ("rounds = 17", "rounds = 2", "lifetime", "simulate_code_abstract", "lifetime rounds 2"),
        ("adaptive_loss_factor = 4.5", "adaptive_loss_factor = 0.001", "depump-scaling",
         "sequential_array_readout", "adaptive bright-state loss 30"),
    ],
    ids=["lifetime_rounds_below_fit_points", "adaptive_bright_loss_above_one"],
)
def test_params_no_run_can_use_are_exit_2_before_sampling(
    old, new, command, sampler, message, tmp_path, capsys, monkeypatch
):
    # a lifetime fit needs MIN_FIT_POINTS grid times, and a loss is a
    # probability: both used to pass validate-config and fail or mislead later
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a run that should have been rejected")

    monkeypatch.setattr(f"cavreg.harness.{sampler}", no_sampling)
    monkeypatch.setattr("cavreg.harness.simulate_idling_bit", no_sampling)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(old, new))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--trials", "50", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_zero_length_lifetime_grid_is_exit_2_before_sampling(tmp_path, capsys, monkeypatch):
    # with no idling and no overhead every grid time is 0 ms, which the
    # lifetime fit used to reject only after sampling every chunk
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a run that should have been rejected")

    monkeypatch.setattr("cavreg.harness.simulate_code_abstract", no_sampling)
    monkeypatch.setattr("cavreg.harness.simulate_idling_bit", no_sampling)
    cfg = tmp_path / "bad.cfg"
    text = _with("idle_ms = 20.0", "idle_ms = 0").replace(
        "round_overhead_ms = 4.0", "round_overhead_ms = 0")
    cfg.write_text(text)
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "lifetime round time" in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main(["lifetime", "--config", str(cfg), "--trials", "50", "--out", str(out)]) == 2
    assert "lifetime round time" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("depth", ["0", "-0.25"])
def test_calibration_row_without_positive_depth_is_exit_2(depth, tmp_path, capsys):
    # a probe needs a positive depth, so such a row could never be selected
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with("row_4 = 0.25  17", f"row_4 = {depth}  17"))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "tweezer depth must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("tweezer_depth_mk = 0.25", "tweezer_depth_mk = 0.30", "no calibration row for depth 0.3"),
        # the key ignores the detuning's sign, so row_4 calibrates row_2's probe
        ("row_4 = 0.25  17", "row_4 = 0.25  -5",
         "error_table.row_2 and error_table.row_4 both calibrate depth 0.25 mK / detuning 5.0"),
    ],
    ids=["probe_without_row", "two_rows_at_one_probe"],
)
def test_calibration_row_selection_is_exit_2_before_sampling(
    old, new, message, tmp_path, capsys, monkeypatch
):
    def no_readout(*args, **kwargs):
        raise AssertionError("read out with a calibration row that should have been rejected")

    monkeypatch.setattr("cavreg.harness.sequential_array_readout", no_readout)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(old, new))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "d.csv"
    rc = main(["depump-scaling", "--config", str(cfg), "--trials", "50", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("rounds = 17", "rounds = 2", "'code.rounds': lifetime rounds 2"),
        ("tweezer_depth_mk = 0.25", "tweezer_depth_mk = 0.30", "no calibration row for depth 0.3"),
    ],
    ids=["code_rounds_the_lifetime_rejects", "probe_without_row"],
)
@pytest.mark.parametrize("command", ["histogram", "error-scaling"])
def test_every_command_rejects_what_validate_config_rejects(
    old, new, message, command, tmp_path, capsys, monkeypatch
):
    # every command builds every experiment's params as it loads the config,
    # so none runs a config that validate-config rejects
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a config that should have been rejected")

    for sampler in ("map_chunks", "outcome_table", "sample_adaptive_bright_batch",
                    "round_counts"):
        monkeypatch.setattr(f"cavreg.harness.{sampler}", no_sampling)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with(old, new))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--trials", "50", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.25  nan", "detuning nan is not finite"),
        ("0.25  inf", "detuning inf is not finite"),
        ("inf  17", "tweezer depth must be positive and finite, not inf"),
        ("nan  17", "tweezer depth must be positive and finite, not nan"),
    ],
)
def test_calibration_row_rules_report_key_and_line(row, message):
    # no probe could look such a row up, so it would sit in the table unused
    text = _with("row_4 = 0.25  17", f"row_4 = {row}")
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("row_4"))
    with pytest.raises(ConfigurationError, match=f"bad.cfg:{nline}: invalid value for "
                                                 f"'error_table.row_4': {message}"):
        parse_config_text(text, source="bad.cfg")


def test_code_sweep_edges_run():
    params = ErrorScalingParams(distances=[1], flip_sweep=[0.0, 1.0], rounds=2)
    rows = run(ExperimentSpec("error_scaling", params, trials=100, master_seed=1)).rows
    assert [r["p_logical"] for r in rows] == [0.0, 1.0]


@pytest.mark.parametrize("sizes", ["10, 0", "-2, 3"])
def test_readout_size_below_one_is_exit_2_before_any_readout(sizes, tmp_path, capsys, monkeypatch):
    # a register needs at least one site; a bad size late in the sweep must
    # not let the earlier sizes run first
    def no_readout(*args, **kwargs):
        raise AssertionError("read out a sweep that should have been rejected")

    monkeypatch.setattr("cavreg.harness.sequential_array_readout", no_readout)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with("sizes = 1,2,3,4,5,6,7,8,9,10", f"sizes = {sizes}"))
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert "'readout.sizes'" in capsys.readouterr().err
    out = tmp_path / "d.csv"
    rc = main(["depump-scaling", "--config", str(cfg), "--trials", "50", "--out", str(out)])
    assert rc == 2
    assert "'readout.sizes'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# Values tried for one key: numbers at the edges of the schema's ranges, and
# short hand-written variants for list, enum, bool and calibration-row keys.
EDGES = ["0", "-1", "1e-9", "0.5", "1", "2", "64", "65", "250"]
ROWS = ["0.25 -5 0.0036 0.003 0.039 0.006", "0 5 0 0 0 0", "0.25 5 0 0 0 1.7",
        "0.25 5 1 1 1 1", "0.3 5 0 0 0 0"]
VARIANTS = {
    ("hiding", "suppression_points_mw"): ["0:1", "0:1, 0.4:0.5", "0:1, 1e-9:5.2", "0.4:5.2, 0.8:250"],
    ("readout", "adaptive_termination"): ["false", "maybe"],
    ("readout", "adaptive_rounds"): ["true", "maybe"],
    ("readout", "sizes"): ["1", "64", "10, 0", "3, 3"],
    ("search", "sizes"): ["2", "64", "65", "1, 2"],
    ("search", "bright_probabilities"): ["0", "1", "0.5, 2", "-1"],
    ("search", "strategies"): ["sequential", "partitioned, partitioned", "binary"],
    ("search", "placement"): ["independent", "anywhere"],
    ("code", "distances"): ["1", "2", "3, 1", "65"],
    ("code", "flip_sweep"): ["0", "1", "2", ""],
    ("code", "post_select"): ["none", "0", "5", "-1"],
    **{key: ROWS for key in SCHEMA if key[0] == "error_table"},
}
EDITS = st.sampled_from([key for key in SCHEMA if key[0] != "run"]).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(VARIANTS.get(key, EDGES)))
)


@functools.cache
def _readers() -> dict[tuple[str, str], list[str]]:
    """The commands whose params builder reads each config key."""
    config, readers, original = load_config(), {}, Config.__getitem__
    for exp in EXPERIMENTS.values():
        def recording(self, key, command=exp.command):
            readers.setdefault(key, []).append(command)
            return original(self, key)

        Config.__getitem__ = recording
        try:
            exp.build(config)
        finally:
            Config.__getitem__ = original
    return {key: sorted(set(commands)) for key, commands in readers.items()}


def _set(key: tuple[str, str], value: str) -> str:
    """defaults.cfg with one key set to `value`."""
    lines, section = [], None
    for line in DEFAULTS.read_text().splitlines():
        text = line.split("#", 1)[0].strip()
        if text.startswith("["):
            section = text[1:-1]
        elif (section, text.partition("=")[0].strip()) == key:
            line = f"{key[1]} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(edit=EDITS)
@example(edit=(("error_table", "row_4"), "0.25 -5 0.0036 0.003 0.039 0.006"))
@example(edit=(("readout", "hiding_power_mw"), "250"))
@example(edit=(("photon", "sub_interval_us"), "1e-9"))
@example(edit=(("detector", "dark_rate_hz"), "1e12"))
def test_validate_config_agrees_with_every_reader_of_one_key(edit):
    # a config validate-config accepts runs in every experiment reading the
    # edited key; one it rejects is rejected, before writing, by all of them
    key, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "edit.cfg"
        cfg.write_text(_set(key, value))
        valid = main(["validate-config", "--config", str(cfg)])
        assert valid in (0, 2)
        codes = {}
        for command in _readers()[key]:
            out = Path(tmp) / f"{command}.csv"
            codes[command] = main([command, "--config", str(cfg), "--trials", "64",
                                   "--threads", "1", "--out", str(out)])
            written = {out.exists(), Path(f"{out}.meta.json").exists()}
            assert written == {codes[command] == 0}, (command, codes[command])
        assert set(codes.values()) == {valid}, codes


# Values outside the range of each config key, set on a parsed config so
# that only the models and params see them: the parser converts syntax only.
OUT_OF_RANGE = {
    "register.tau_depump_ms": [0.0, -1.0],
    "register.tau_vacuum_ms": [0.0, -1.0],
    "detector.dark_rate_hz": [-1.0],
    "detector.n_detectors": [0, -1],
    "photon.bright_mean_full": [0.0, -1.0, 1e7],
    "photon.full_interval_us": [0.0, -1.0, 210.0],
    "photon.sub_interval_us": [0.0, -1.0, 0.1],
    "photon.threshold_counts": [0, -1],
    "hiding.depump_per_interval_unhidden": [-0.1, 1.1, 0.0001],
    "hiding.suppression_points_mw": [(), ((0.0, 0.5),), ((-0.4, 1.0), (0.4, 5.2)),
                                      ((0.0, 1.0), (0.0, 5.2)), ((0.0, 5.2), (0.4, 1.0))],
    "hiding.background_floor_per_interval": [-0.1, 1.1, 0.05],
    "probe.tweezer_depth_mk": [0.0, -1.0, 0.3],
    "readout.adaptive_loss_factor": [0.0, -1.0, 0.001],
    "readout.hiding_power_mw": [-1.0],
    "readout.readout_rounds": [0, -1],
    "readout.sizes": [[0], [10, 0], [-2, 3]],
    "readout.idle_intervals": [-1],
    "search.sizes": [[0], [2, 65]],
    "search.bright_probabilities": [[-0.1], [0.5, 1.1]],
    "search.false_positive": [-0.1, 1.1],
    "search.false_negative": [-0.1, 1.1],
    "code.distances": [[0], [2], [1, -1]],
    "code.rounds": [0, -1, 2],
    "code.idle_ms": [-1.0],
    "code.per_round_flip": [-0.1, 1.1],
    "code.per_round_loss": [-0.1, 1.1],
    "code.round_overhead_ms": [-1.0],
    "code.flip_sweep": [[1.5], [0.1, -0.1]],
    "code.post_select": ["-1", "9", "2", "bogus"],
    "run.trials": [0, -1],
    "run.error_scaling_trials": [0, -1],
    "run.lifetime_trials": [0, -1],
    "run.master_seed": [-1, 2**64],
    "run.threads": [0, -1],
}
# Numeric keys with no range of their own, each with where its rule lives.
NO_RANGE = {
    "probe.detuning_pc_mhz": "any finite detuning; nan and inf are _unparsable cases",
    **{f"error_table.row_{i}": "checked as it is parsed, by _row_key and ErrorRates: "
       "the test_calibration_row_* tests" for i in range(1, 5)},
}


def _name(key: tuple[str, str]) -> str:
    return f"{key[0]}.{key[1]}"


def _numeric(value) -> bool:
    """A number, or a list, tuple or dataclass of them (a sweep list,
    calibration pairs, a calibration row)."""
    if dataclasses.is_dataclass(value):
        return _numeric(dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return all(_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_every_numeric_key_has_an_out_of_range_case():
    # a range rule added to a model needs a case here, or a reason it has none
    numeric = {_name(key) for key, value in load_config().values.items() if _numeric(value)}
    assert numeric - set(OUT_OF_RANGE) == set(NO_RANGE)
    assert set(OUT_OF_RANGE) <= {_name(key) for key in SCHEMA}


def _unparsable(key, shipped):
    """Values the models reject for a key of this type: a non-finite float,
    a non-integer or bool count, an enum member's bare value, a sweep list
    that is empty, repeats a value or ends in one of these, a non-finite
    calibration pair."""
    if key == ("hiding", "suppression_points_mw"):
        return [((0.0, 1.0), (math.nan, 5.2)), ((0.0, 1.0), (0.4, math.inf))]
    if isinstance(shipped, float):
        return [math.nan, math.inf, -math.inf]
    if isinstance(shipped, int) and not isinstance(shipped, bool):
        return [2.5, True]
    if isinstance(shipped, Enum):
        return [shipped.value]
    if isinstance(shipped, list):
        return [[], [*shipped, shipped[0]],
                *([*shipped[:-1], value] for value in _unparsable(key, shipped[-1]))]
    return []


@pytest.mark.parametrize("key, value", [
    pytest.param(tuple(name.split(".")), value, id=f"{name}={value}")
    for name, values in OUT_OF_RANGE.items() for value in values
] + [
    pytest.param(key, value, id=f"{_name(key)}={value}")
    for key, shipped in load_config().values.items() if key[0] != "error_table"
    for value in _unparsable(key, shipped)
])
def test_params_built_past_the_parser_reject_what_it_rejects(key, value):
    # the models and params are the one home of each key's range, so a value
    # that never went through the parser is rejected all the same, and the
    # error names the key (or none, for a check across keys or models)
    config = load_config()
    config.values[key] = value
    with pytest.raises(ConfigurationError) as err:
        config.validate_models()
    assert err.value.key in (_name(key), None)
