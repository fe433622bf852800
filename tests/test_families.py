"""The fake-family parameter table against the per-family code it replaced.

``_oracles`` keeps that code: each family's defaults, its strength
scaling, the black-box composition's hidden draws and the artifact
dispatch. The table must give the same parameters, in value and in type,
and ``apply_fake`` the same bytes.
"""

import numpy as np
import pytest

from atcadet import corpus as cp
from atcadet.errors import BadConfig

from _oracles import FAMILY_DEFAULTS_REF, apply_fake_ref, scaled_params_ref

SAMPLE_RATES = [8000, 22050, 44100]
STRENGTHS = [1.0, 0.4, 0.05]

# non-default settings that reach the branches the defaults skip: no
# smear, a cutoff above Nyquist, no jitter, an int given for a float; and a
# cutoff that nyq - 1.0 * (nyq - cutoff) does not give back at any rate
CUSTOM = [
    cp.GeneratorSpec("wide", "fake_lowpass_smear", {"cutoff_hz": 1e6, "smear": 0.0}),
    cp.GeneratorSpec("odd", "fake_lowpass_smear", {"cutoff_hz": 0.1, "smear": 0.1}),
    cp.GeneratorSpec("coarse", "fake_spectral_quantize", {"levels": 2}),
    cp.GeneratorSpec("steady", "fake_hum_phase", {"hum_hz": 60, "hum_amp": 0.2, "jitter": 0}),
    cp.GeneratorSpec("faint", "fake_blackbox", {"strength": 0.3}),
]


def _typed(params):
    return [(name, type(value), value) for name, value in params.items()]


def test_default_families_match_reference():
    gens = cp.DEFAULT_FAKE_GENERATORS
    assert [g.id for g in gens] == ["lowpass_smear", "spectral_quantize", "hum_phase", "blackbox"]
    assert [g.kind for g in gens] == list(FAMILY_DEFAULTS_REF)
    for g in gens:
        assert _typed(g.params) == _typed(FAMILY_DEFAULTS_REF[g.kind]), g.kind
    assert cp.GENERATOR_KINDS == ("real", *FAMILY_DEFAULTS_REF)
    assert cp._GENERATOR_HINTS == {
        "real": "crisp", "fake_lowpass_smear": "muffled", "fake_spectral_quantize": "grainy",
        "fake_hum_phase": "humming", "fake_blackbox": "processed",
    }


@pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
@pytest.mark.parametrize("strength", STRENGTHS)
def test_scaled_params_match_reference(strength, sample_rate):
    for g in cp.DEFAULT_FAKE_GENERATORS + tuple(CUSTOM):
        got = cp.scaled_generator(g, strength, sample_rate)
        want = scaled_params_ref(g.kind, g.params, strength, sample_rate)
        assert (got.id, got.kind) == (g.id, g.kind)
        assert _typed(got.params) == _typed(want), (g.id, strength, sample_rate)
    levels = cp.scaled_generator(cp.DEFAULT_FAKE_GENERATORS[1], strength, sample_rate)
    assert type(levels.params["levels"]) is int


@pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
@pytest.mark.parametrize("strength", STRENGTHS)
def test_apply_fake_bytes_match_reference(strength, sample_rate):
    wave, _ = cp.synth_real([5, sample_rate], 0.5, sample_rate)
    for i, g in enumerate(cp.DEFAULT_FAKE_GENERATORS + tuple(CUSTOM)):
        scaled = cp.scaled_generator(g, strength, sample_rate)
        want = scaled_params_ref(g.kind, g.params, strength, sample_rate)
        # several black-box seeds, so both hum draws and several op orders occur
        for seed in range(6) if g.kind == "fake_blackbox" else range(1):
            got = cp.apply_fake(wave, scaled, [3, i, seed])
            ref = apply_fake_ref(wave, g.kind, want, [3, i, seed])
            assert got.samples.tobytes() == ref.tobytes(), (g.id, seed)


@pytest.mark.parametrize("kind, params", [
    ("fake_lowpass_smear", {"cutoff_hz": "0.3"}),
    ("fake_lowpass_smear", {"smear": False}),
    ("fake_spectral_quantize", {"levels": 10.7}),
    ("fake_spectral_quantize", {"levels": 10.0}),
    ("fake_spectral_quantize", {"levels": True}),
    ("fake_hum_phase", {"jitter": None}),
    ("fake_blackbox", {"strength": [1.0]}),
], ids=["float_as_str", "float_as_bool", "fractional_int", "int_as_float", "int_as_bool",
        "null", "list"])
def test_param_of_wrong_type_rejected(kind, params):
    with pytest.raises(BadConfig, match="must be of type"):
        cp.GeneratorSpec("g", kind, params)


def test_int_for_float_param_stored_as_float():
    g = cp.GeneratorSpec("g", "fake_hum_phase", {"hum_hz": 60, "hum_amp": np.float32(0.05)})
    assert _typed(g.params) == [("hum_hz", float, 60.0), ("hum_amp", float, float(np.float32(0.05))),
                                ("jitter", float, 0.3)]
    assert _typed(cp.GeneratorSpec("g", "fake_spectral_quantize", {"levels": np.int64(7)}).params) \
        == [("levels", int, 7)]
