import numpy as np
import pytest

from eppsim.noisemodels import (
    NOISE_MODELS,
    PAULI_LABELS,
    BinaryNoiseModel,
    NoiseModel,
    compose,
    from_p1_p2,
    noise_from_config,
    one_qubit_white,
    product,
)

IDENTITY_TABLE = np.outer([1, 0, 0, 0], [1, 0, 0, 0])


def rounded_published_table():
    f = np.full((4, 4), 0.003712)
    f[0, :] = 0.021131
    f[:, 0] = 0.021131
    f[0, 0] = 0.83981
    return f


def test_general_identity_channel():
    n = NoiseModel(IDENTITY_TABLE)
    assert n.f00 == 1.0
    assert n.f.sum() == pytest.approx(1.0, abs=1e-15)


def test_general_renormalizes_rounded_tables():
    # published tables carry ~5 significant digits; sums off by ~1e-4 are fine
    n = NoiseModel(rounded_published_table())
    assert n.f.sum() == pytest.approx(1.0, abs=1e-15)
    assert n.f00 == pytest.approx(0.83981, abs=1e-4)


def test_general_rejects_negative_entries():
    f = IDENTITY_TABLE.astype(float).copy()
    f[0, 0] = 1.1
    f[1, 1] = -0.1
    with pytest.raises(ValueError, match="negative"):
        NoiseModel(f)


def test_general_stores_a_negative_zero_weight_as_zero():
    # a zero weight takes the clipping path, which clears the sign of -0.0;
    # only tables of positive weights skip it
    f = np.full(16, 1 / 15)
    f[5] = -0.0
    assert not np.signbit(NoiseModel(f).f).any()


def test_general_rejects_zero_sum():
    with pytest.raises(ValueError):
        NoiseModel(np.zeros(16))


def test_general_rejects_bad_normalization():
    with pytest.raises(ValueError, match="sum"):
        NoiseModel(IDENTITY_TABLE * 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [lambda v: NoiseModel(np.r_[v, np.full(15, 1 / 15)]), lambda v: BinaryNoiseModel(v, 0.5, 0.5, 0)],
    ids=["general", "BinaryNoiseModel"],
)
def test_non_finite_channel_weights_rejected(build, bad):
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)


def test_product_marginals():
    rng = np.random.default_rng(1)
    fa = rng.dirichlet(np.ones(4))
    fb = rng.dirichlet(np.ones(4))
    n = product(fa, fb)
    assert np.allclose(n.f.sum(axis=1), fa)
    assert np.allclose(n.f.sum(axis=0), fb)


def test_product_identity():
    n = product([1, 0, 0, 0], [1, 0, 0, 0])
    assert n.f00 == 1.0


def test_one_qubit_white_values():
    assert np.allclose(one_qubit_white(1.0), [1, 0, 0, 0])
    assert np.allclose(one_qubit_white(0.7), [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        one_qubit_white(1.2)


def test_white_product_f00():
    w = one_qubit_white(0.9)
    assert product(w, w).f00 == pytest.approx(0.81, abs=1e-15)


def test_compose_identity_and_commutativity():
    rng = np.random.default_rng(2)
    ident = NoiseModel(IDENTITY_TABLE)
    x = NoiseModel(rng.dirichlet(np.ones(16)))
    y = NoiseModel(rng.dirichlet(np.ones(16)))
    assert np.allclose(compose(ident, x).f, x.f)
    assert np.allclose(compose(x, y).f, compose(y, x).f)


def test_compose_half_flip_convolution():
    # X with probability 1/2 on the source qubit, twice: marginal stays (1/2, 1/2)
    half = product([0.5, 0.5, 0, 0], [1, 0, 0, 0])
    out = compose(half, half)
    assert np.allclose(out.f.sum(axis=1), [0.5, 0.5, 0, 0])
    assert np.allclose(out.f.sum(axis=0), [1, 0, 0, 0])


def test_from_p1_p2_identity():
    assert from_p1_p2(1.0, 1.0).f00 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "p1,p2,f00",
    [(0.92, 0.9466, 0.83981), (0.96, 0.968, 0.91279120)],
)
def test_from_p1_p2_reference_values(p1, p2, f00):
    assert from_p1_p2(p1, p2).f00 == pytest.approx(f00, abs=2e-4)


def test_from_p1_p2_off_diagonal_values():
    n = from_p1_p2(0.96, 0.968)
    assert n.f[0, 1] == pytest.approx(0.0113896, abs=1e-7)
    assert n.f[1, 2] == pytest.approx(0.0020968, abs=1e-7)


def test_from_p1_p2_both_labs_squares_reliabilities():
    a = from_p1_p2(0.9592, 0.973, both_labs=True)
    b = from_p1_p2(0.9592**2, 0.973**2)
    assert np.allclose(a.f, b.f, atol=1e-15)
    assert a.f00 == pytest.approx(0.83981, abs=2e-4)


_P1P2 = {"model": "p1p2", "p1": "0.96", "p2": "0.968"}


@pytest.mark.parametrize(
    "text, both",
    [("1", True), ("true", True), ("YES", True), ("True", True),
     ("0", False), ("false", False), ("No", False), (" FALSE ", False)],
)
def test_p1p2_config_reads_both_labs_spellings(text, both):
    got = noise_from_config({**_P1P2, "both_labs": text})
    assert np.array_equal(got.f, from_p1_p2(0.96, 0.968, both_labs=both).f)


@pytest.mark.parametrize("text", ["maybe", "on", "off", "ture", ""])
def test_p1p2_config_rejects_any_other_both_labs_value(text):
    # these used to build the single-lab channel without a word
    with pytest.raises(ValueError, match=f"both_labs must be .*, got '{text}'"):
        noise_from_config({**_P1P2, "both_labs": text})


def test_from_p1_p2_equals_explicit_composition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p1, p2 = rng.uniform(0.7, 1.0, size=2)
        got = from_p1_p2(p1, p2)
        single = np.array([(1 + 3 * p1) / 4] + [(1 - p1) / 4] * 3)
        two = np.full((4, 4), (1 - p2) / 16)
        two[0, 0] += p2
        want = compose(product(single, single), NoiseModel(two))
        assert np.allclose(got.f, want.f, atol=1e-14)


def test_from_p1_p2_range_check():
    with pytest.raises(ValueError):
        from_p1_p2(1.3, 0.9)


def test_binary_validation_and_fs():
    b = BinaryNoiseModel(0.8575, 0.0475, 0.0475, 0.0475)
    assert b.fs == pytest.approx(0.095)
    with pytest.raises(ValueError):
        BinaryNoiseModel(0.5, 0.5, 0.5, -0.5)


def test_binary_uncorrelated():
    b = BinaryNoiseModel.uncorrelated(0.9)
    assert (b.f00, b.f01, b.f10, b.f11) == pytest.approx((0.81, 0.09, 0.09, 0.01))


def test_binary_embed_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = BinaryNoiseModel(*rng.dirichlet(np.ones(4)))
        # the weights sit on the (I, X) block, in place, and nowhere else
        f = b.embed().f
        assert np.allclose(f[:2, :2], [[b.f00, b.f01], [b.f10, b.f11]], rtol=0, atol=1e-15)
        assert not f[2:].any() and not f[:, 2:].any()
        assert np.array_equal(b.f, b.embed().f)  # the table a map or a round reads


def test_binary_table_is_made_once_and_read_only():
    b = BinaryNoiseModel.uncorrelated(0.9)
    assert b.f is b.f
    with pytest.raises(ValueError, match="read-only"):
        b.f[0, 0] = 1.0


def test_config_roundtrip_general():
    n = from_p1_p2(0.96, 0.968)
    cfg = {
        f"f.{PAULI_LABELS[mu]}{PAULI_LABELS[nu]}": repr(float(w))
        for (mu, nu), w in np.ndenumerate(n.f)
    }
    back = noise_from_config({"model": "general", **cfg})
    assert np.allclose(back.f, n.f, atol=0)


def test_config_roundtrip_binary():
    b = BinaryNoiseModel(0.8575, 0.0475, 0.0475, 0.0475)
    cfg = {key: repr(getattr(b, key)) for key in ("f00", "f01", "f10", "f11")}
    back = noise_from_config({"model": "binary", **cfg})
    assert isinstance(back, BinaryNoiseModel)
    assert back.f00 == pytest.approx(b.f00, abs=0)


def test_config_shorthand_models():
    w = noise_from_config({"model": "white", "f0": "0.9"})
    assert w.f00 == pytest.approx(0.81)
    b = noise_from_config({"model": "binary", "f0": "0.9"})
    assert isinstance(b, BinaryNoiseModel)
    p = noise_from_config({"model": "p1p2", "p1": "0.96", "p2": "0.968"})
    assert p.f00 == pytest.approx(0.9127912, abs=1e-7)
    with pytest.raises(ValueError):
        noise_from_config({"model": "martian"})
    with pytest.raises(KeyError):
        noise_from_config({"model": "general", "f.0000": "1.0"})


def test_a_key_of_another_model_is_an_error():
    with pytest.raises(ValueError, match=r"model 'ideal' does not read f0, p1 \(its keys: none\)"):
        noise_from_config({"model": "ideal", "f0": "0.5", "p1": "0.3"})
    with pytest.raises(ValueError, match="model 'white' does not read f11, p2"):
        noise_from_config({"model": "white", "f0": "0.95", "p2": "0.1", "f11": "0.7"})
    with pytest.raises(ValueError, match="model 'general' does not read f0"):
        noise_from_config({"model": "general", "f0": "0.9"})
    # keys that are no model's, such as a start state's, are left alone
    w = noise_from_config({"model": "white", "f0": "0.9", "werner": "0.8", "steps": "3"})
    assert w.f00 == pytest.approx(0.81)


_GOOD_CONFIGS = [
    {"model": "white", "f0": "0.9"},
    {"model": "binary", "f0": "0.9"},
    {"model": "binary", "f00": "0.85", "f01": "0.05", "f10": "0.05", "f11": "0.05"},
    {"model": "p1p2", "p1": "0.96", "p2": "0.968"},
    {"model": "general", **{key: "0.0625" for key in NOISE_MODELS["general"][0]}},
]


@pytest.mark.parametrize(
    "cfg, key", [(cfg, key) for cfg in _GOOD_CONFIGS for key in cfg if key != "model"]
)
def test_a_noise_value_that_does_not_parse_names_its_key(cfg, key):
    noise_from_config(cfg)  # parses as it stands
    with pytest.raises(ValueError) as info:
        noise_from_config({**cfg, key: "0.9x"})
    assert str(info.value) == f"config {key}='0.9x': could not convert string to float: '0.9x'"


def test_binary_takes_f0_or_the_four_weights_not_both():
    cfg = {"model": "binary", "f0": "0.9", "f00": "0.5", "f01": "0.5", "f10": "0", "f11": "0"}
    with pytest.raises(ValueError, match="takes f0 or f00..f11, not both"):
        noise_from_config(cfg)
    with pytest.raises(ValueError, match="not both"):
        noise_from_config({"model": "binary", "f0": "0.9", "f11": "0"})
    b = noise_from_config({k: v for k, v in cfg.items() if k != "f0"})
    assert (b.f00, b.f01, b.f10, b.f11) == (0.5, 0.5, 0.0, 0.0)

