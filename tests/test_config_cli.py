import dataclasses
import enum
import inspect
import json
import re
import sys
import types
from pathlib import Path

import pytest

import cavreg
from cavreg import ConfigurationError, HidingModel, PhotonModel
from cavreg.cli import main
from cavreg.config import SCHEMA, Config, load_config, parse_config_text, schema_help
from cavreg.harness import EXPERIMENTS
from cavreg.readout import ErrorRates
from cavreg.register import IdleErrorModel

DEFAULTS = Path(__file__).parent.parent / "src" / "cavreg" / "defaults.cfg"


def test_defaults_load_and_match_module_defaults():
    config = load_config()
    assert config.photon_model() == PhotonModel()
    assert config.build(HidingModel, "hiding") == HidingModel()
    assert config.build(IdleErrorModel, "register").tau_depump_ms == 150.0
    # the shipped probe, 0.25 mK at -5 MHz, selects row_2
    assert config.error_rates() == ErrorRates(0.0039, 0.021, 0.008, 0.030)
    config.validate_models()
    # the params defaults are the shipped run
    for exp in EXPERIMENTS.values():
        assert exp.build(config) == exp.params(), exp.name


@pytest.mark.parametrize("detuning", ["17", "-17"])
def test_probe_detuning_sign_selects_the_same_row(detuning):
    # the table quotes detuning magnitudes; both sign conventions resolve
    text = DEFAULTS.read_text().replace("detuning_pc_mhz = -5.0", f"detuning_pc_mhz = {detuning}")
    assert parse_config_text(text).error_rates() == ErrorRates(0.0036, 0.003, 0.039, 0.006)


def test_unknown_key_reports_line_number():
    text = DEFAULTS.read_text() + "\n[register]\nbogus_key = 3\n"
    nlines = len(text.splitlines())
    with pytest.raises(ConfigurationError, match=f"{nlines}.*bogus_key"):
        parse_config_text(text, source="bad.cfg")


def test_missing_key_reported_by_name():
    text = "\n".join(
        line for line in DEFAULTS.read_text().splitlines() if "bright_mean_full" not in line
    )
    with pytest.raises(ConfigurationError, match="missing keys.*photon.bright_mean_full"):
        parse_config_text(text)


def test_invalid_value_reports_key_and_line():
    text = DEFAULTS.read_text().replace("dark_rate_hz = 60.0", "dark_rate_hz = -1")
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if "dark_rate_hz" in line)
    with pytest.raises(ConfigurationError, match=f":{nline}:.*dark_rate_hz"):
        parse_config_text(text)


def test_calibration_row_out_of_range_reports_key_and_line():
    text = DEFAULTS.read_text().replace("row_3 = 0.25  11  0.0030 0.007", "row_3 = 0.25  11  0.0030 1.7")
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("row_3"))
    with pytest.raises(ConfigurationError, match=f"bad.cfg:{nline}:.*'error_table.row_3'"):
        parse_config_text(text, source="bad.cfg")


@pytest.mark.parametrize("column, name", enumerate(f.name for f in dataclasses.fields(ErrorRates)))
def test_calibration_rate_out_of_range_names_its_rate(column, name):
    # the row's key and line, then the rate's own name: which of the four is wrong
    rates = ["0.0039", "0.021", "0.008", "0.030"]
    rates[column] = "1.7"
    text = DEFAULTS.read_text().replace("row_2 = 0.25  5   0.0039 0.021 0.008 0.030",
                                        "row_2 = 0.25  5   " + " ".join(rates))
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("row_2"))
    message = (f"bad.cfg:{nline}: invalid value for 'error_table.row_2': "
               f"{name} 1.7 is outside [0, 1]")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config_text(text, source="bad.cfg")


@pytest.mark.parametrize(
    "key, old, new",
    [
        ("readout.sizes", "sizes = 1,2,3,4,5,6,7,8,9,10", "sizes = 1,2,3,3"),
        ("search.sizes", "sizes = 2,3,4,5,6,7,8,9,10", "sizes = 2,3,2"),
        ("search.bright_probabilities", "bright_probabilities = 0.0, 0.1, 0.3, 0.5, 1.0",
         "bright_probabilities = 0.1, 0.10"),
        ("search.strategies", "strategies = sequential, global_then_sequential, partitioned",
         "strategies = partitioned, sequential, partitioned"),
        ("code.distances", "distances = 1, 3, 5", "distances = 3, 3, 5"),
        ("code.flip_sweep", "flip_sweep = 0.02, 0.04, 0.08, 0.12, 0.2",
         "flip_sweep = 0.02, 0.04, 0.08, 0.12, 0.2, 0.04"),
    ],
)
def test_repeated_sweep_value_reports_key_and_line(key, old, new):
    # a repeated sweep point would be written as two curves and fitted twice
    text = DEFAULTS.read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(new))
    with pytest.raises(ConfigurationError, match=f":{nline}:.*'{key}': repeats"):
        parse_config_text(text)


def test_every_schema_key_reaches_an_experiment(monkeypatch):
    config = load_config()
    read = set()
    original = Config.__getitem__

    def recording(self, key):
        read.add(key)
        return original(self, key)

    monkeypatch.setattr(Config, "__getitem__", recording)
    config.validate_models()  # every experiment's params and [run] keys
    assert read == set(SCHEMA)


def test_every_built_field_is_its_config_key_or_given(monkeypatch):
    # a params or model field carries its config key's name within the
    # section it is built from; only nested models and the calibration row
    # are passed in `given`
    built = []
    original = Config.build

    def recording(self, cls, section, **given):
        built.append((cls, section, set(given)))
        return original(self, cls, section, **given)

    monkeypatch.setattr(Config, "build", recording)
    specs = load_config().validate_models()
    unnamed = [
        f"{cls.__name__}.{f.name} from [{section}]"
        for cls, section, given in built for f in dataclasses.fields(cls)
        if (section, f.name) not in SCHEMA and f.name not in given
    ]
    assert unnamed == []

    def classes(obj):  # the dataclasses of a params object, nested ones too
        if dataclasses.is_dataclass(obj):
            yield type(obj)
            for f in dataclasses.fields(obj):
                yield from classes(getattr(obj, f.name))

    # every params and model object comes through Config.build; the row is parsed
    made = {cls for spec in specs.values() for cls in classes(spec.parameters)}
    assert made - {cls for cls, _, _ in built} == {ErrorRates}


# Names cavreg exports that no CLI run reaches, each with the reason it is public.
EXPORTS_OUTSIDE_EXPERIMENTS = {
    "CavityParams": "criterion 1 computes the cavity cooperativity from it",
    "cooperativity": "criterion 1",
    "combined_idle_lifetime": "criterion 2, and the idling-bit lifetime oracle",
    "adaptive_reduction_factors": "criterion 3",
    "majority_error_probability": "criterion 5 and the exponent check of bench/run.py",
    "sample_full_interval": "read only with readout.adaptive_termination = false",
    "idle": "the per-trial idle step: the independent reference for the idling-bit "
            "count chain, and the round step of a full-physics code run",
}


def _export_codes(obj) -> set:
    """The code objects whose run counts as reaching an exported name: a
    function's own code, or the methods written in a class's source (not
    those a dataclass generates).  Empty for what needs no run."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    if not inspect.isclass(obj) or issubclass(obj, (BaseException, enum.Enum)):
        return set()  # exceptions, enums and constants
    source = inspect.getsourcefile(obj)
    codes = set()
    for member in vars(obj).values():
        # a classmethod or staticmethod wraps its function, a property its getter
        fn = getattr(member, "__func__", None) or getattr(member, "fget", None) or member
        if inspect.isfunction(fn) and fn.__code__.co_filename == source:
            codes.add(fn.__code__)
    return codes


def test_every_export_reaches_an_experiment(tmp_path):
    exports = {
        name: _export_codes(obj)
        for name, obj in vars(cavreg).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        assert main(["validate-config"]) == 0
        for exp in EXPERIMENTS.values():
            out = tmp_path / f"{exp.command}.csv"
            argv = [exp.command, "--trials", "64", "--threads", "1", "--out", str(out)]
            assert main(argv) == 0
    finally:
        sys.setprofile(None)
    unreached = {name for name, codes in exports.items() if codes and not codes & ran}
    assert unreached == set(EXPORTS_OUTSIDE_EXPERIMENTS)


def test_duplicate_key_rejected():
    text = DEFAULTS.read_text() + "\n[run]\ntrials = 5\n"
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text(text)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigurationError, match="outside"):
        parse_config_text("trials = 7\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigurationError, match="key = value"):
        parse_config_text("[run]\ntrials 7\n")


def test_schema_help_covers_sections():
    text = schema_help()
    for section in ("register", "photon", "hiding", "code", "run"):
        assert f"[{section}]" in text


@pytest.mark.parametrize(
    "key, old, new",
    [
        ("search.placement", "placement = at_most_one", "placement = nowhere"),
        ("error_table.row_3", "row_3 = 0.25  11  0.0030 0.007 0.026 0.011",
         "row_3 = 0.25  11  0.0030 0.007 0.026"),
    ],
)
def test_cli_bad_value_exits_2_naming_key_and_line(key, old, new, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    text = DEFAULTS.read_text()
    nline = next(i for i, line in enumerate(text.splitlines(), 1) if line == old)
    bad.write_text(text.replace(old, new))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert f"bad.cfg:{nline}: invalid value for '{key}'" in capsys.readouterr().err


def test_cli_error_scaling_sweep_under_a_decade_reports_the_fit_error(tmp_path):
    # a flip sweep spanning less than a decade has no exponent fit; the run
    # still succeeds and records why
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(DEFAULTS.read_text().replace(
        "flip_sweep = 0.02, 0.04, 0.08, 0.12, 0.2", "flip_sweep = 0.05, 0.08, 0.12, 0.2, 0.3"))
    out = tmp_path / "e.csv"
    argv = ["error-scaling", "--config", str(cfg), "--trials", "20000", "--out", str(out)]
    assert main(argv) == 0
    exponents = json.loads(Path(f"{out}.meta.json").read_text())["summary"]["exponents"]
    assert exponents == {d: {"error": "sweep must span at least a decade"} for d in ("3", "5")}


def test_cli_validate_config_ok(capsys):
    assert main(["validate-config"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_config_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(DEFAULTS.read_text().replace("threshold_counts = 2", "threshold_counts = 0"))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_missing_config_file_is_exit_1(tmp_path, capsys):
    # an unreadable path is a runtime failure, not a config-content error
    rc = main(["validate-config", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1


def test_cli_seed_changes_output(tmp_path):
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["search-cost", "--trials", "300", "--seed", "1", "--out", "a.csv"]) == 0
        assert main(["search-cost", "--trials", "300", "--seed", "1", "--out", "b.csv"]) == 0
        assert main(["search-cost", "--trials", "300", "--seed", "2", "--out", "c.csv"]) == 0
    finally:
        os.chdir(cwd)
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a != (tmp_path / "c.csv").read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["experiment"] == "search_cost"
    assert meta["trials"] == 300


def test_cli_histogram_csv_schema(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["histogram", "--trials", "500", "--seed", "9", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "counts,frequency,condition"


def test_cli_lifetime_small(tmp_path, capsys):
    out = tmp_path / "l.csv"
    rc = main([
        "lifetime", "--trials", "2000", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "t_ms,d,p_err,stderr,survivor_mean"
    assert "extension factor" in capsys.readouterr().out
