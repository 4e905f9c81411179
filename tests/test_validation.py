"""Bad input is rejected at the edge with exit code 2, before any compute."""

from pathlib import Path

import pytest

from cavreg import ConfigurationError
from cavreg.cli import main
from cavreg.config import parse_config_text
from cavreg.harness import EXPERIMENTS, ErrorScalingParams, ExperimentSpec, run

DEFAULTS = Path(__file__).parent.parent / "src" / "cavreg" / "defaults.cfg"


def _with(old: str, new: str) -> str:
    text = DEFAULTS.read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_seed_outside_u64(seed, tmp_path, capsys):
    out = tmp_path / "h.csv"
    with pytest.raises(SystemExit) as exc:
        main(["histogram", "--trials", "10", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
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
    config = parse_config_text(_with("post_select = distance", f"post_select = {count}"))
    with pytest.raises(ConfigurationError, match="post_select"):
        EXPERIMENTS["error_scaling"].build(config)


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
    params = ErrorScalingParams(distances=[3, 5], post_select=count)
    with pytest.raises(ConfigurationError, match="post_select"):
        run(ExperimentSpec("error_scaling", params, trials=100, master_seed=1))


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


def test_cli_missing_output_directory_is_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "h.csv"
    rc = main(["histogram", "--trials", "10", "--out", str(out)])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_sidecar_write_leaves_no_output(tmp_path, monkeypatch):
    def fail(path, spec, result):
        open(path, "w").close()
        raise OSError("disk full")

    monkeypatch.setattr("cavreg.cli.write_metadata", fail)
    out = tmp_path / "h.csv"
    assert main(["histogram", "--trials", "10", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
