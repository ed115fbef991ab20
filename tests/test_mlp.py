import json
import math
import pickle

import numpy as np
import pytest

from _synth import make_blobs, max_relative_error, numeric_gradients
from soaccept import mlp
from soaccept.errors import DataError, StageError
from soaccept.mlp import (
    DivergenceError,
    MlpConfig,
    MlpModel,
    _forward,
    _sigmoid,
    fit_mlp,
    init_parameters,
    load_mlp,
    loss_and_gradients,
    mlp_predict_proba,
    save_mlp,
)
from soaccept.resample import Scaler, standardize
from soaccept.seeding import derive_seed

SMALL = MlpConfig(hidden=(8, 6, 5, 4, 3), learning_rate=0.5, batch_size=16,
                  epochs=200, seed=0)


def test_config_validation():
    with pytest.raises(DataError, match="exactly 5"):
        MlpConfig(hidden=(4, 4))
    with pytest.raises(DataError, match="hidden layer widths must be >= 1"):
        MlpConfig(hidden=(4, 4, 4, 0, 4))
    with pytest.raises(DataError, match="learning_rate must be positive"):
        MlpConfig(learning_rate=0.0)
    with pytest.raises(DataError, match="batch_size must be >= 1"):
        MlpConfig(batch_size=0)
    with pytest.raises(DataError, match="epochs must be >= 1"):
        MlpConfig(epochs=0)


def test_default_architecture():
    cfg = MlpConfig()
    assert cfg.hidden == (64, 64, 32, 32, 16)
    assert cfg.learning_rate == 0.01
    assert cfg.batch_size == 32
    assert cfg.epochs == 50


def test_zero_parameters_predict_half():
    cfg = MlpConfig(hidden=(3, 3, 3, 3, 3))
    weights, biases = init_parameters(2, cfg)
    weights = [np.zeros_like(w) for w in weights]
    biases = [np.zeros_like(b) for b in biases]
    identity = Scaler(mean=np.zeros(2), sd=np.ones(2))
    model = MlpModel(weights=weights, biases=biases, config=cfg, n_features=2, scaler=identity)
    proba = mlp_predict_proba(model, np.array([[5.0, -3.0], [0.0, 0.0]]))
    assert np.array_equal(proba, np.array([0.5, 0.5]))


def _masked_sigmoid(z):
    """The two-branch formula the branch-free one must reproduce exactly."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("shape", [(32, 64), (2000, 64), (32, 1)])
@pytest.mark.parametrize("scale", [0.5, 5.0, 50.0])
def test_sigmoid_is_bit_identical_to_two_branch_formula(shape, scale):
    z = np.random.default_rng(int(scale * 10) + shape[0]).normal(scale=scale, size=shape)
    with np.errstate(over="ignore"):
        assert np.array_equal(_sigmoid(z).view(np.int64), _masked_sigmoid(z).view(np.int64))


def test_sigmoid_is_bit_identical_at_edge_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-320, -1e-320,
                  709.8, -745.2])
    with np.errstate(over="ignore"):
        got = _sigmoid(z)
        assert np.array_equal(got.view(np.int64), _masked_sigmoid(z).view(np.int64))
    assert got[0] == got[1] == 0.5
    assert got[2] == 1.0 and got[3] == 0.0


def test_sigmoid_passes_nan_through():
    z = np.array([[np.nan, 0.0], [-3.0, -np.nan], [np.inf, np.nan]])
    got = _sigmoid(z)
    assert np.array_equal(np.isnan(got), np.isnan(z))
    assert np.array_equal(got[~np.isnan(z)], _masked_sigmoid(z[~np.isnan(z)]))


def bce_loss(z_out, y) -> float:
    """Mean binary cross-entropy from output pre-activations, as training computes it."""
    z = np.asarray(z_out, dtype=np.float64).ravel()
    return mlp._bce(z, np.asarray(y, dtype=np.float64).ravel(), mlp._exp_neg_abs(z))


def test_bce_loss_matches_direct_formula():
    z = np.array([0.0, 2.0, -1.5])
    y = np.array([1.0, 0.0, 1.0])
    p = 1.0 / (1.0 + np.exp(-z))
    direct = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert abs(bce_loss(z, y) - direct) < 1e-12


def test_bce_loss_is_finite_at_saturation():
    assert np.isfinite(bce_loss(np.array([1000.0, -1000.0]), np.array([0.0, 1.0])))


def test_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((12, 4))
    y = (rng.random(12) < 0.5).astype(float)
    cfg = MlpConfig(hidden=(5, 4, 3, 3, 2), seed=7)
    weights, biases = init_parameters(4, cfg)
    _, gw, gb = loss_and_gradients(weights, biases, x, y)
    nw, nb = numeric_gradients(weights, biases, x, y)
    assert max_relative_error(gw, gb, nw, nb) < 1e-4


def _out_of_place_loss_and_gradients(weights, biases, x, y):
    """Loss and backward pass written with fresh arrays, in the operation
    order the in-place ones must keep."""
    y = y.reshape(-1, 1)
    activations = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(_masked_sigmoid(activations[-1] @ w.T + b))
    z_out = activations[-1] @ weights[-1].T + biases[-1]
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    delta = (_masked_sigmoid(z_out) - y) / x.shape[0]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ activations[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            a = activations[layer]
            delta = (delta @ weights[layer]) * a * (1.0 - a)
    z, y = z_out.ravel(), y.ravel()
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    return loss, grads_w, grads_b


@pytest.mark.parametrize("n, d", [(32, 3), (7, 5), (1, 2)])
def test_gradients_are_bit_identical_to_out_of_place_formula(n, d):
    rng = np.random.default_rng(n + d)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(float)
    weights, biases = init_parameters(d, MlpConfig(seed=n))
    biases = [rng.standard_normal(b.shape) for b in biases]
    loss, gw, gb = loss_and_gradients(weights, biases, x, y)
    want_loss, want_w, want_b = _out_of_place_loss_and_gradients(weights, biases, x, y)
    assert loss == want_loss
    for got, want in zip(gw + gb, want_w + want_b):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_learns_separable_blobs():
    x, y = make_blobs(120, seed=1)
    model = fit_mlp(x, y, SMALL)
    acc = float(np.mean((mlp_predict_proba(model, x) >= 0.5) == y))
    assert acc >= 0.95


def test_loss_history_per_epoch():
    x, y = make_blobs(60, seed=2)
    cfg = MlpConfig(hidden=(6, 5, 4, 3, 2), learning_rate=0.2, batch_size=16,
                    epochs=12, seed=3)
    model = fit_mlp(x, y, cfg)
    assert len(model.loss_history) == 12
    assert all(np.isfinite(v) for v in model.loss_history)


def test_full_batch_small_rate_never_increases_loss():
    x, y = make_blobs(40, seed=4)
    cfg = MlpConfig(hidden=(6, 5, 4, 3, 2), learning_rate=0.05, batch_size=40,
                    epochs=30, seed=5)
    model = fit_mlp(x, y, cfg)
    history = model.loss_history
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_divergence_error_names_epoch():
    x, y = make_blobs(64, seed=6)
    cfg = MlpConfig(hidden=(6, 5, 4, 3, 2), learning_rate=1e307, batch_size=16,
                    epochs=50, seed=7)
    with pytest.raises(DivergenceError, match="epoch"):
        fit_mlp(x, y, cfg)
    try:
        fit_mlp(x, y, cfg)
    except DivergenceError as err:
        assert err.epoch >= 1
        assert f"epoch {err.epoch}" in str(err)


def test_divergence_error_survives_pickle():
    err = pickle.loads(pickle.dumps(DivergenceError(3)))
    assert type(err) is DivergenceError
    assert err.epoch == 3
    assert str(err) == str(DivergenceError(3))


def _fit_with_minibatch_epoch_loss(x, y, config):
    """fit_mlp written out: plain SGD on the z-scores of `x`, and for each
    epoch the row-weighted mean of the losses its minibatches returned."""
    x, _ = standardize(x)
    weights, biases = init_parameters(x.shape[1], config)
    rng = np.random.default_rng(derive_seed(config.seed, "sgd"))
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(x.shape[0])
        loss_sum = 0.0
        for start in range(0, x.shape[0], config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, gw, gb = loss_and_gradients(weights, biases, x[batch], y[batch])
            loss_sum += loss * len(batch)
            for layer in range(len(weights)):
                weights[layer] -= config.learning_rate * gw[layer]
                biases[layer] -= config.learning_rate * gb[layer]
        history.append(loss_sum / x.shape[0])
    return weights, biases, history


def _noisy_threshold_data(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3))
    y = (x[:, 0] + 0.5 * rng.standard_normal(n) > 0.6).astype(np.int64)
    return x, y


@pytest.mark.parametrize("n, batch_size", [(1942, 32), (100, 7), (40, 64)])
def test_epoch_loss_is_row_weighted_minibatch_mean(n, batch_size):
    x, y = _noisy_threshold_data(n)
    cfg = MlpConfig(learning_rate=0.05, batch_size=batch_size, epochs=4, seed=n)
    weights, biases, history = _fit_with_minibatch_epoch_loss(x, y, cfg)
    model = fit_mlp(x, y, cfg)
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert list(model.loss_history) == history


@pytest.mark.parametrize("n, batch_size", [(100, 7), (40, 64), (64, 16)])
def test_one_forward_pass_per_batch(monkeypatch, n, batch_size):
    x, y = _noisy_threshold_data(n)
    cfg = MlpConfig(hidden=(4, 3, 3, 2, 2), batch_size=batch_size, epochs=3, seed=1)
    calls = []

    def counting_forward(*args):
        calls.append(1)
        return _forward(*args)

    monkeypatch.setattr(mlp, "_forward", counting_forward)
    fit_mlp(x, y, cfg)
    assert len(calls) == math.ceil(n / batch_size) * cfg.epochs


def test_blow_up_on_the_last_batch_raises(monkeypatch):
    x, y = make_blobs(40, seed=17)
    cfg = MlpConfig(hidden=(4, 3, 3, 2, 2), batch_size=16, epochs=3, seed=18)
    remaining = [math.ceil(40 / 16) * cfg.epochs]

    def last_call_blows_up(*args):
        loss, gw, gb = loss_and_gradients(*args)
        remaining[0] -= 1
        if remaining[0] == 0:
            gw[0] = np.full_like(gw[0], np.inf)
        return loss, gw, gb

    monkeypatch.setattr(mlp, "loss_and_gradients", last_call_blows_up)
    with pytest.raises(DivergenceError) as info:
        fit_mlp(x, y, cfg)
    assert info.value.epoch == cfg.epochs
    assert remaining[0] == 0


def test_training_is_deterministic(tmp_path):
    x, y = make_blobs(50, seed=8)
    cfg = MlpConfig(hidden=(5, 4, 3, 3, 2), learning_rate=0.3, batch_size=8,
                    epochs=15, seed=9)
    saved = []
    for name in ("one.json", "two.json"):
        save_mlp(fit_mlp(x, y, cfg), tmp_path / name)
        saved.append((tmp_path / name).read_bytes())
    assert saved[0] == saved[1]


def test_model_round_trip_is_bit_exact(tmp_path):
    x, y = make_blobs(50, seed=10)
    # a saved seed is a derive_seed output, which reaches 2**64 - 1, past
    # the signed 64-bit range that a setting takes
    cfg = MlpConfig(hidden=(5, 4, 3, 3, 2), learning_rate=0.3, batch_size=8,
                    epochs=10, seed=2**64 - 1)
    model = fit_mlp(x, y, cfg)
    path = tmp_path / "model.mlp.json"
    save_mlp(model, path)
    loaded = load_mlp(path, x.shape[1])
    assert np.array_equal(mlp_predict_proba(model, x), mlp_predict_proba(loaded, x))
    assert loaded.config == model.config
    assert loaded.loss_history == model.loss_history
    first = path.read_bytes()
    save_mlp(loaded, path)
    assert path.read_bytes() == first


def test_model_schema_checks(tmp_path):
    x, y = make_blobs(30, seed=12)
    cfg = MlpConfig(hidden=(4, 3, 3, 2, 2), learning_rate=0.2, batch_size=8,
                    epochs=3, seed=13)
    path = tmp_path / "model.mlp.json"
    save_mlp(fit_mlp(x, y, cfg), path)
    payload = json.loads(path.read_text("utf-8"))
    assert load_mlp(path, x.shape[1]).n_features == payload["n_features"]
    with pytest.raises(StageError, match="not a mlp artifact; run train first"):
        load_mlp(path, payload["n_features"] + 1)  # columns other than those it scores
    for bad in (dict(payload, schema_version=9), dict(payload, kind="random-forest")):
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(StageError, match="not a mlp artifact; run train first"):
            load_mlp(path, x.shape[1])


def test_predict_rejects_wrong_width():
    x, y = make_blobs(30, seed=14)
    cfg = MlpConfig(hidden=(4, 3, 3, 2, 2), learning_rate=0.2, batch_size=8,
                    epochs=3, seed=15)
    model = fit_mlp(x, y, cfg)
    with pytest.raises(DataError, match="feature columns"):
        mlp_predict_proba(model, np.zeros((4, 5)))


def test_rejects_bad_labels():
    x, _ = make_blobs(20, seed=16)
    with pytest.raises(DataError, match="0/1"):
        fit_mlp(x, np.full(20, 2), MlpConfig(hidden=(3, 3, 3, 3, 3)))
