import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.config import CONFIG_KEYS, ExperimentConfig, load_config, parse_config_text


def test_defaults_build_working_domain_objects():
    cfg = ExperimentConfig()
    clock = cfg.clock()
    assert clock.half_period == 3.0
    assert clock.launch_time == 7.5
    assert clock.sample_time == 12.0
    crc = cfg.crc()
    assert crc.poly == 0x07
    assert crc.data_width == 8
    assert crc.check_width == 8
    model = cfg.delay_model()
    assert model.tm_tolerance == 0.10
    params = cfg.trace_params()
    assert params.baseline == 4.0
    assert params.n_samples == 256
    assert cfg.katan_key == 0x9E3779B97F4A7C15F39D
    assert cfg.crc_reference_pattern == 0xA5
    assert cfg.katan_reference_pattern == 0xA5A5A5A5
    assert cfg.crc_trojan().target.value == "crc_decoder"
    assert cfg.katan_trojan().trigger_key_bits == tuple(range(8))


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
    assert cfg.clock_half_period_ns == 1.5
    assert cfg.crc().poly == 0x1D
    assert cfg.detector_sensitivities == (0.05, 0.10)
    assert cfg.detector_normalized is True
    assert cfg.katan_trojan().trigger_key_bits == (0, 1, 2, 3)
    assert cfg.trace_params().n_samples == 300
    # untouched keys keep their defaults
    assert cfg.crc_data_width == 8


def test_unknown_key_reports_line_number():
    with pytest.raises(ValueError, match=r"conf:3: unknown key 'clock\.frequency'"):
        parse_config_text("seed = 1\n\nclock.frequency = 5\n", source="conf")


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
], ids=["duplicate", "nan-float", "nan-delay", "inf-float", "nan-in-list", "empty-list", "commas-only",
        "bad-hex-key", "bad-hex-pattern", "bad-hex-poly", "bad-hex-crc", "wide-key", "wide-pattern", "no-equals"])
def test_bad_line_names_source_and_line(text, line, message):
    with pytest.raises(ValueError, match=f"^conf:{line}: .*{re.escape(message)}"):
        parse_config_text(text, source="conf")


def test_missing_equals_rejected():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_receiver_init_override():
    cfg = parse_config_text("crc.receiver_init = 00")
    assert cfg.crc().reset_state == 0x00
    # empty means all-ones, as when the key is absent
    assert parse_config_text("crc.receiver_init =").crc().reset_state == 0xFF
    assert ExperimentConfig().crc().reset_state == 0xFF


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 99\nout = results\nmtj.tolerance = 0.2\n")
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.out == "results"
    assert cfg.delay_model().tm_tolerance == 0.2


def test_clock_builder_accepts_half_period_override():
    cfg = ExperimentConfig()
    fast = cfg.clock(half_period=1.4)
    assert fast.half_period == 1.4
    assert fast.launch_offset_cycles == cfg.clock_launch_offset_cycles


# values each config key can take, drawn as text together with what it parses to
_TEXT = st.text("abcxyz_/.-", min_size=1, max_size=8).filter(lambda t: t.strip() == t and "#" not in t)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = {
    int: st.integers(-10**6, 10**6).map(lambda v: (str(v), v)),
    str: _TEXT.map(lambda t: (t, t)),
    "float": _FLOAT.map(lambda v: (repr(v), v)),
    "hex": st.integers(0, (1 << 32) - 1).map(lambda v: (f"{v:x}", f"{v:x}")),
    "key": st.integers(0, (1 << 80) - 1).map(lambda v: (f"{v:020x}", f"{v:020x}")),
    # detector.sensitivities, the one float-list key, needs at least one level
    "floats": st.lists(_FLOAT, min_size=1, max_size=4).map(lambda vs: (", ".join(map(repr, vs)), tuple(vs))),
    "ints": st.lists(st.integers(0, 99), max_size=4).map(lambda vs: (" ".join(map(str, vs)), tuple(vs))),
    "bool": st.sampled_from([("yes", True), ("Off", False), ("1", True), ("false", False)]),
}


def _kind(key, attr):
    if key == "katan.key":
        return "key"
    if attr.endswith("_hex"):
        return "hex"
    default = getattr(ExperimentConfig(), attr)
    if isinstance(default, bool):
        return "bool"
    if isinstance(default, tuple):
        return "floats" if isinstance(default[0], float) else "ints"
    return "float" if isinstance(default, float) else type(default)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_config_text_round_trip(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True))
    lines, expected = [], ExperimentConfig()
    for key in keys:
        attr = CONFIG_KEYS[key][0]
        text, value = data.draw(_VALUES[_kind(key, attr)])
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        comment = data.draw(st.sampled_from(["", "  # note", "#"]))
        lines += data.draw(st.sampled_from([[], [""], ["# comment"]]))
        lines.append(f"{pad}{key}{pad}={pad}{text}{comment}")
        setattr(expected, attr, value)
    assert parse_config_text("\n".join(lines)) == expected
