import re
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.bist import ClockConfig
from mtjbist.cli import main
from mtjbist.config import CONFIG_KEYS, ExperimentConfig, load_config, parse_config_text
from mtjbist.crc import CrcConfig
from mtjbist.mtj import MtjDelayModel
from mtjbist.traces import MIN_TRACE_SAMPLES, TraceParams
from mtjbist.trojan import TrojanSpec


def _get(config, attr):
    """The value at a CONFIG_KEYS attribute path, such as ``mtj.tm_tolerance``."""
    for name in attr.split("."):
        config = getattr(config, name)
    return config


def test_defaults_build_working_domain_objects():
    cfg = ExperimentConfig()
    assert cfg.clock == ClockConfig()
    assert cfg.clock.launch_time == 7.5
    assert cfg.clock.sample_time == 12.0
    assert cfg.crc == CrcConfig()
    assert cfg.crc.poly == 0x07
    assert cfg.mtj == MtjDelayModel()
    assert cfg.trace == TraceParams()
    assert cfg.katan_trojan == TrojanSpec()
    assert cfg.katan_key == 0x9E3779B97F4A7C15F39D
    assert cfg.crc_reference_pattern == 0xA5
    assert cfg.katan_reference_pattern == 0xA5A5A5A5


def test_every_field_is_set_by_exactly_one_key():
    targets = [attr for attr, _ in CONFIG_KEYS.values()]
    assert len(targets) == len(set(targets)) == 34
    expected = set()
    for f in fields(ExperimentConfig):
        default = getattr(ExperimentConfig(), f.name)
        if is_dataclass(default):
            expected |= {f"{f.name}.{g.name}" for g in fields(default)}
        else:
            expected.add(f.name)
    assert set(targets) == expected
    assert len(fields(ExperimentConfig)) <= 15
    # the round trip below draws each key from its own strategy
    assert set(_VALID) == set(CONFIG_KEYS)


def test_empty_text_yields_defaults():
    assert parse_config_text("") == ExperimentConfig()


def test_parse_overrides_and_comments():
    cfg = parse_config_text(
        """
        # device under test
        seed = 7
        clock.half_period_ns = 1.5   # fast clock
        crc.poly = 1d
        detector.sensitivities = 0.05, 0.10
        detector.normalized = yes
        trojan.key_bits = 0 1 2 3
        trace.n_samples = 300
        """
    )
    assert cfg.seed == 7
    assert cfg.clock == ClockConfig(half_period=1.5)
    assert cfg.crc.poly == 0x1D
    assert cfg.detector_sensitivities == (0.05, 0.10)
    assert cfg.detector_normalized is True
    assert cfg.katan_trojan.trigger_key_bits == (0, 1, 2, 3)
    assert cfg.trace.n_samples == 300
    # untouched keys keep their defaults
    assert cfg.crc.data_width == 8
    assert cfg.katan_trojan.trigger_pt_bits == tuple(range(8))


def test_unknown_key_reports_line_number():
    with pytest.raises(ValueError, match=r"conf:3: unknown key 'clock\.frequency'"):
        parse_config_text("seed = 1\n\nclock.frequency = 5\n", source="conf")


def test_config_breaks_lines_at_newlines_only():
    # a form feed is not a line break: the comment's tail stays in the comment
    assert parse_config_text("# run\f more\nseed = 5\n").seed == 5
    with pytest.raises(ValueError, match=r"conf:3: bad value for seed"):
        parse_config_text("# run\f more\n\nseed = x\n", source="conf")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ValueError, match=r"<config>:1: bad value for seed"):
        parse_config_text("seed = not-a-number")
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("detector.normalized = maybe")


@pytest.mark.parametrize("text, line, message", [
    ("seed = 1\n\nseed = 2\n", 3, "duplicate key 'seed', first set on line 1"),
    ("# c\nmtj.tolerance = nan\n", 2, "bad value for mtj.tolerance: expected a finite number, got 'nan'"),
    ("mtj.delay01_max_ns = nan\n", 1, "bad value for mtj.delay01_max_ns"),
    ("trace.noise_sigma_ua = inf\n", 1, "bad value for trace.noise_sigma_ua"),
    ("detector.sensitivities = 0.1, nan\n", 1, "bad value for detector.sensitivities"),
    # an empty list used to write header-only confusion tables
    ("seed = 1\ndetector.sensitivities =\n", 2, "bad value for detector.sensitivities: expected at least one level"),
    ("detector.sensitivities = , \n", 1, "expected at least one level, got ','"),
    ("seed = 2\nkatan.key = zz\n", 2, "bad value for katan.key: invalid literal"),
    ("katan.reference_pattern = xyz\n", 1, "bad value for katan.reference_pattern"),
    ("crc.poly = 7g\n", 1, "bad value for crc.poly: invalid literal"),
    ("crc.reference_pattern = g1\n", 1, "bad value for crc.reference_pattern"),
    ("katan.key = 1" + "0" * 20 + "\n", 1, "does not fit in 80 bits"),
    ("katan.reference_pattern = 1ffffffff\n", 1, "does not fit in 32 bits"),
    ("\n\nseed 3\n", 3, "expected 'key = value', got 'seed 3'"),
    # both used to fail only when the detector ran, without a line
    ("seed = 1\ndetector.n_patterns = 0\n", 2, "bad value for detector.n_patterns: expected at least 1, got '0'"),
    ("detector.sensitivity = 0\n", 1, "bad value for detector.sensitivity: expected a positive number, got '0'"),
    ("detector.sensitivity = -0.1\n", 1, "expected a positive number, got '-0.1'"),
    # used to fail only after the whole identification ran, without a line
    ("seed = 1\ndetector.sensitivities = 0, 0.1\n", 2,
     "bad value for detector.sensitivities: expected a positive number, got '0'"),
    ("detector.sensitivities = 0.1 -0.2\n", 1, "bad value for detector.sensitivities: expected a positive number"),
], ids=["duplicate", "nan-float", "nan-delay", "inf-float", "nan-in-list", "empty-list", "commas-only",
        "bad-hex-key", "bad-hex-pattern", "bad-hex-poly", "bad-hex-crc", "wide-key", "wide-pattern", "no-equals",
        "zero-patterns", "zero-sensitivity", "negative-sensitivity", "zero-level", "negative-level"])
def test_bad_line_names_source_and_line(text, line, message):
    with pytest.raises(ValueError, match=f"^conf:{line}: .*{re.escape(message)}"):
        parse_config_text(text, source="conf")


# an object's own check names the last line that set one of its values
@pytest.mark.parametrize("text, line, message", [
    ("seed = 1\nmtj.tm_min = 2\n", 2, "tm_min must be < tm_max"),
    ("mtj.tm_min = 2\nseed = 3\nmtj.tm_max = 1.5\n", 3, "tm_min must be < tm_max"),
    ("mtj.delay10_min_ns = 2\n", 1, "delay windows must be finite, non-negative and ordered"),
    ("clock.sample_edge = 0\n", 1, "sample_edge must be >= 1"),
    ("clock.sample_edge = 2\n", 1, "launch must precede the sample edge"),
    ("clock.half_period_ns = 0\n", 1, "half_period must be positive and finite, got 0.0"),
    ("crc.poly = 1ff\n", 1, "poly 0x1ff must fit in 8 bits and be nonzero"),
    ("crc.poly = -7\n", 1, "poly -0x7 must fit in 8 bits"),
    ("crc.check_width = 0\n", 1, "check_width and data_width must be >= 1"),
    ("crc.receiver_init = 1ff\n", 1, "receiver_init must fit in check_width bits"),
    ("crc.data_width = 4\n", 1, "crc.reference_pattern a5 does not fit in crc.data_width = 4 bits"),
    ("crc.data_width = 4\n\ncrc.reference_pattern = 1f\n", 3, "crc.reference_pattern 1f does not fit"),
    ("crc.reference_pattern = 1f\nseed = 2\ncrc.data_width = 4\n", 3, "crc.reference_pattern 1f does not fit"),
    ("crc.reference_pattern = 1ff\n", 1, "crc.reference_pattern 1ff does not fit in crc.data_width = 8 bits"),
    ("trojan.key_bits = 99\n", 1, "trigger_key_bits positions must lie in [0, 80)"),
    ("trojan.pt_bits = 1 1\n", 1, "trigger_pt_bits has duplicate positions"),
    ("trojan.pt_bits =\n", 1, "trigger_pt_bits must not be empty"),
    ("trace.n_samples = 10\n", 1, f"n_samples must be >= {MIN_TRACE_SAMPLES}"),
    ("trace.dt_ns = -0.1\n", 1, "dt and i_unit must be positive and finite"),
])
def test_object_check_names_the_last_line_of_the_object(text, line, message):
    with pytest.raises(ValueError, match=f"^conf:{line}: {re.escape(message)}"):
        parse_config_text(text, source="conf")


def test_values_that_fit_together_load():
    cfg = parse_config_text("crc.data_width = 4\ncrc.reference_pattern = f\nmtj.tm_min = 2\nmtj.tm_max = 3\n")
    assert (cfg.crc.data_width, cfg.crc_reference_pattern) == (4, 0xF)
    assert (cfg.mtj.tm_min, cfg.mtj.tm_max) == (2.0, 3.0)


# each used to let katan enc exit 0, since only the commands that built the
# object checked it
CROSS_FIELD_CASES = ["mtj.tm_min = 2", "clock.sample_edge = 1", "crc.poly = 1ff", "crc.check_width = 0",
                     "crc.data_width = 4", "trojan.key_bits = 99", "trace.n_samples = 10"]


@pytest.mark.parametrize("line", CROSS_FIELD_CASES)
def test_every_command_rejects_a_failing_object_at_load(tmp_path, capsys, line):
    conf = tmp_path / "run.conf"
    conf.write_text(f"# malformed\n{line}\n")
    rc = main(["katan", "enc", "--key", "f" * 20, "--pt", "0", "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {conf}:2: ")
    assert captured.out == ""


def test_missing_equals_rejected():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_receiver_init_override():
    cfg = parse_config_text("crc.receiver_init = 00")
    assert cfg.crc.reset_state == 0x00
    # empty means all-ones, as when the key is absent
    assert parse_config_text("crc.receiver_init =").crc.reset_state == 0xFF
    assert ExperimentConfig().crc.reset_state == 0xFF


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 99\nout = results\nmtj.tolerance = 0.2\n")
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.out == "results"
    assert cfg.mtj == MtjDelayModel(tm_tolerance=0.2)


def _floats(lo, hi):
    return st.floats(lo, hi).map(lambda v: (repr(v), v))


def _ints(lo, hi):
    return st.integers(lo, hi).map(lambda v: (str(v), v))


def _hexes(lo, bits):
    return st.integers(lo, (1 << bits) - 1).map(lambda v: (f"{v:x}", v))


def _taps(width):
    return st.lists(st.integers(0, width - 1), min_size=1, max_size=4, unique=True).map(
        lambda vs: (" ".join(map(str, vs)), tuple(vs)))


_TEXT = st.text("abcxyz_/.-", min_size=1, max_size=8).map(lambda t: (t, t))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEVELS = st.lists(st.floats(0, exclude_min=True, allow_infinity=False), min_size=1, max_size=4).map(lambda vs: (", ".join(map(repr, vs)), tuple(vs)))

# values each key can take, as text with what it parses to; every value fits
# every value of the other keys and their defaults, so the objects accept them
_VALID = {
    "seed": _ints(-10**6, 10**6),
    "out": _TEXT,
    "clock.half_period_ns": _floats(1e-3, 1e3),
    # launch before the earliest sample edge drawn, the third
    "clock.launch_offset_cycles": _floats(1e-3, 1.99),
    "clock.sample_edge": _ints(3, 100),
    "crc.poly": _hexes(1, 8),
    "crc.data_width": _ints(8, 64),
    "crc.check_width": _ints(8, 64),
    "crc.receiver_init": st.one_of(st.just(("", None)), _hexes(0, 8)),
    "crc.reference_pattern": _hexes(0, 8),
    # below and above the other bound's default as well as its draws
    "mtj.tm_min": _floats(-1e3, 0.79),
    "mtj.tm_max": _floats(1.31, 1e3),
    "mtj.delay01_min_ns": _floats(0.0, 1.0),
    "mtj.delay01_max_ns": _floats(2.5, 1e3),
    "mtj.delay10_min_ns": _floats(0.0, 1.0),
    "mtj.delay10_max_ns": _floats(2.5, 1e3),
    "mtj.tolerance": _floats(0.0, 1e3),
    "mtj.array": _TEXT,
    "trace.dt_ns": _floats(1e-6, 1e3),
    "trace.n_samples": _ints(MIN_TRACE_SAMPLES, 10**6),
    "trace.i_unit_ua": _floats(1e-6, 1e6),
    "trace.baseline_ua": _floats(0.0, 1e9),
    "trace.noise_sigma_ua": _floats(0.0, 1e9),
    "trace.spike_gain": _floats(0.0, 1e9),
    "trace.k_pv": _FINITE.map(lambda v: (repr(v), v)),
    "trace.k_temp": _FINITE.map(lambda v: (repr(v), v)),
    "detector.sensitivity": _floats(1e-9, 1e9),
    "detector.sensitivities": _LEVELS,
    "detector.normalized": st.sampled_from([("yes", True), ("Off", False), ("1", True), ("false", False)]),
    "detector.n_patterns": _ints(1, 10**6),
    "katan.key": st.integers(0, (1 << 80) - 1).map(lambda v: (f"{v:020x}", v)),
    "katan.reference_pattern": _hexes(0, 32),
    "trojan.key_bits": _taps(80),
    "trojan.pt_bits": _taps(32),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_text_round_trip(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True))
    lines, drawn = [], {}
    for key in keys:
        text, drawn[key] = data.draw(_VALID[key])
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        comment = data.draw(st.sampled_from(["", "  # note", "#"]))
        lines += data.draw(st.sampled_from([[], [""], ["# comment"]]))
        lines.append(f"{pad}{key}{pad}={pad}{text}{comment}")
    cfg = parse_config_text("\n".join(lines))
    defaults = ExperimentConfig()
    for key, (attr, _) in CONFIG_KEYS.items():
        assert _get(cfg, attr) == drawn.get(key, _get(defaults, attr)), key


def _expected_error_line(entries):
    """The line parse_config_text must name for (line, key, value text)
    entries, or None when they load: the first value its key's parser
    rejects, else the last line of the first object (in the order its keys
    first appear) that rejects its values, else the later of the
    crc.data_width and crc.reference_pattern lines if the pattern does not
    fit the width."""
    parsed = {}
    for ln, key, text in entries:
        try:
            parsed[key] = (ln, CONFIG_KEYS[key][1](text.strip()))
        except ValueError:
            return ln
    defaults, objects = ExperimentConfig(), {}
    for key, (ln, value) in parsed.items():
        attr, _, name = CONFIG_KEYS[key][0].partition(".")
        if name:
            changes, _ = objects.get(attr, ({}, 0))
            objects[attr] = ({**changes, name: value}, ln)
    for attr, (changes, ln) in objects.items():
        try:
            objects[attr] = replace(getattr(defaults, attr), **changes)
        except ValueError:
            return ln
    width = objects["crc"].data_width if "crc" in objects else defaults.crc.data_width
    pattern = parsed.get("crc.reference_pattern", (0, defaults.crc_reference_pattern))[1]
    if not 0 <= pattern < 1 << width:
        return max(parsed[k][0] for k in ("crc.data_width", "crc.reference_pattern") if k in parsed)
    return None


# numbers, hex, lists, booleans and the words nan and inf, valid or not
_RAW = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "3", "4", "10", "99", "256", "0.5", "1.5", "-0.1", "1e3", "ff", "1ff",
                     "a5", "", "nan", "inf", "yes", "0 1", "1 1", "0, 79", ","]),
    st.text("0123456789abcdefx.,-+ ein", max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arbitrary_values_load_or_name_their_line(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True, max_size=8))
    entries, lines = [], []
    for key in keys:
        lines += data.draw(st.sampled_from([[], [""], ["# comment"]]))
        text = data.draw(_RAW)
        lines.append(f"{key} = {text}")
        entries.append((len(lines), key, text))
    expected_line = _expected_error_line(entries)
    try:
        cfg = parse_config_text("\n".join(lines), source="conf")
    except ValueError as exc:
        assert re.match(rf"conf:{expected_line}: ", str(exc)), (expected_line, str(exc))
        return
    assert expected_line is None
    for _, key, text in entries:
        attr, parse = CONFIG_KEYS[key]
        assert _get(cfg, attr) == parse(text.strip()), key
