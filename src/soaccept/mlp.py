"""Feed-forward sigmoid network trained with mini-batch SGD.

The architecture is fixed at five hidden layers:
[d_in, h1, h2, h3, h4, h5, 1], logistic activation everywhere, binary
cross-entropy loss.  The loss and its gradients are computed from the
output pre-activation, keeping saturated probabilities finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .codec import foreign, is_int, is_number, list_of, load_settings, read_artifact, write_json
from .errors import ConfigError, DataError
from .resample import Scaler, standardize
from .seeding import derive_seed

N_HIDDEN_LAYERS = 5


class DivergenceError(DataError):
    """Raised when an epoch's mean minibatch loss, or any weight or bias
    after the epoch, is no longer finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(
            f"training diverged at epoch {epoch}: loss is no longer finite; "
            "lower the learning rate"
        )

    def __reduce__(self):
        # rebuilt from the epoch alone, so it survives a worker's pickle
        return type(self), (self.epoch,)


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple = (64, 64, 32, 32, 16)
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if len(self.hidden) != N_HIDDEN_LAYERS:
            raise DataError(f"hidden must list exactly {N_HIDDEN_LAYERS} layer widths")
        if any(h < 1 for h in self.hidden):
            raise DataError("hidden layer widths must be >= 1")
        # the bounds below are comparisons that NaN fails
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")
        if not self.batch_size >= 1:
            raise DataError("batch_size must be >= 1")
        if not self.epochs >= 1:
            raise DataError("epochs must be >= 1")


@dataclass
class MlpModel:
    weights: list  # per layer, shape (n_out, n_in)
    biases: list  # per layer, shape (n_out,)
    config: MlpConfig
    n_features: int
    scaler: Scaler  # the training rows' z-scores, applied to every input
    loss_history: tuple = ()


def _exp_neg_abs(z):
    """exp(-|z|), which lies in [0, 1] and so never overflows."""
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _logistic(z, e):
    """The logistic of `z` from `e = _exp_neg_abs(z)`, which it overwrites:
    1 / (1 + e) for z >= 0 and e / (1 + e) below."""
    # numerator: 1 where z >= 0, else e; e <= 1, and NaN passes through
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def _sigmoid(z):
    """Logistic function that never overflows, in a single pass.

    Bit-identical to evaluating 1 / (1 + exp(-z)) on z >= 0 and
    exp(z) / (1 + exp(z)) on z < 0 separately, since -|z| is exactly -z
    or z on those halves.
    """
    return _logistic(z, _exp_neg_abs(z))


def _bce(z, y, e) -> float:
    """Mean of softplus(z) - y*z over every entry, from `e = _exp_neg_abs(z)`;
    softplus(z) = max(z, 0) + log1p(e) cannot overflow."""
    loss = np.log1p(e)
    loss += np.maximum(z, 0.0)
    loss -= y * z
    return float(np.add.reduce(loss, axis=None) / loss.size)


def _forward(weights, biases, x):
    """Activations per layer plus the output pre-activation."""
    activations = [x]
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w.T
        z += b
        a = _sigmoid(z)
        activations.append(a)
    z_out = a @ weights[-1].T
    z_out += biases[-1]
    return activations, z_out


def loss_and_gradients(weights, biases, x, y):
    """Mean BCE over the batch and exact gradients for every parameter."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    n = x.shape[0]
    activations, z_out = _forward(weights, biases, x)
    # the loss and the output's logistic share one exp(-|z_out|)
    e = _exp_neg_abs(z_out)
    loss = _bce(z_out, y, e)
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    delta = _logistic(z_out, e)
    delta -= y
    delta /= n
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ activations[layer]
        grads_b[layer] = np.add.reduce(delta, axis=0)
        if layer > 0:
            # in place, in the order of (delta @ W) * a * (1 - a)
            a = activations[layer]
            delta = delta @ weights[layer]
            delta *= a
            delta *= 1.0 - a
    return loss, grads_w, grads_b


def init_parameters(n_features: int, config: MlpConfig):
    """Uniform Glorot weights, zero biases, drawn layer by layer.

    The Glorot limit is scaled by 4, as Glorot & Bengio (2010) advise for
    logistic units; at the plain limit the five sigmoid layers pass back
    too little gradient, and small training sets leave a constant
    predictor.
    """
    rng = np.random.default_rng(config.seed)
    sizes = [n_features, *config.hidden, 1]
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = 4.0 * np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return weights, biases


def fit_mlp(x, y, config: MlpConfig) -> MlpModel:
    """Train with mini-batch SGD under a seeded per-epoch shuffle, on the
    z-scores of `x`'s columns; the model keeps their `Scaler`.

    Each epoch's entry in `loss_history` is the row-weighted mean of the
    losses of its minibatches, each taken before that batch's update.  A
    non-finite mean, or a non-finite weight or bias after the epoch,
    aborts with DivergenceError naming the epoch (1-based).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be 2-d with one label per row")
    if x.shape[0] == 0:
        raise DataError("cannot train on zero rows")
    if not np.isin(np.unique(y), (0, 1)).all():
        raise DataError("labels must be 0/1")
    x, scaler = standardize(x)
    n, d = x.shape
    y = y.astype(np.float64)
    weights, biases = init_parameters(d, config)
    # every weight and bias is a view into one buffer, so a step is one
    # subtraction; (lr * g) is rounded the same way whatever its layout
    params = np.concatenate([p.ravel() for p in weights + biases])
    views, start = [], 0
    for p in weights + biases:
        views.append(params[start : start + p.size].reshape(p.shape))
        start += p.size
    weights, biases = views[: len(weights)], views[len(weights) :]
    # separate stream for the shuffles so init and SGD do not interleave
    rng = np.random.default_rng(derive_seed(config.seed, "sgd"))
    history = []
    # overflow shows up as a non-finite loss or parameter and raises
    # below, so the intermediate numpy warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            # one permutation per epoch; each batch is a slice of it
            order = rng.permutation(n)
            x_epoch, y_epoch = x[order], y[order]
            loss_sum = 0.0
            for start in range(0, n, config.batch_size):
                stop = start + config.batch_size
                x_batch, y_batch = x_epoch[start:stop], y_epoch[start:stop]
                loss, gw, gb = loss_and_gradients(weights, biases, x_batch, y_batch)
                loss_sum += loss * len(y_batch)
                step = np.concatenate([g.ravel() for g in gw + gb])
                step *= config.learning_rate
                params -= step
            epoch_loss = loss_sum / n
            if not np.isfinite(epoch_loss) or not np.isfinite(params).all():
                raise DivergenceError(epoch)
            history.append(epoch_loss)
    return MlpModel(
        weights=weights,
        biases=biases,
        config=config,
        n_features=d,
        scaler=scaler,
        loss_history=tuple(history),
    )


def mlp_predict_proba(model: MlpModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} feature columns")
    _, z_out = _forward(model.weights, model.biases, model.scaler.transform(x))
    return _sigmoid(z_out).ravel()


def save_mlp(model: MlpModel, path) -> None:
    payload = {
        "config": asdict(model.config),
        "n_features": model.n_features,
        "mean": model.scaler.mean.tolist(),
        "sd": model.scaler.sd.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "loss_history": [float(v) for v in model.loss_history],
    }
    write_json(path, payload, kind="mlp", compact=True)


def load_mlp(path, n_features: int) -> MlpModel:
    """The network saved at `path`; exit 4 unless it scores `n_features`
    columns, and its scaling and every layer's weights and biases are
    finite and have the shapes that `n_features` and its `config.hidden`
    give, with no `sd` negative (a constant column saves 0)."""
    payload = read_artifact(path, "mlp", "train", {
        "n_features": lambda d: is_int(d) and d == n_features,
        "mean": list_of(is_number),  # the input scaling, without which it cannot score
        "sd": list_of(is_number),
        "loss_history": list_of(is_number),
    })
    try:
        config = load_settings(MlpConfig, payload["config"])
        mean, sd = (np.asarray(payload[k], dtype=np.float64) for k in ("mean", "sd"))
        weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
    # config that load_settings refuses; layers missing, ragged or not numbers
    except (ConfigError, DataError, KeyError, TypeError, ValueError, OverflowError):
        raise foreign(path, "mlp", "train") from None
    sizes = (n_features, *config.hidden, 1)
    layers = list(zip(sizes[1:], sizes))  # (n_out, n_in) of each layer
    if ([mean.shape, sd.shape] != [(n_features,)] * 2
            or [w.shape for w in weights] != layers
            or [b.shape for b in biases] != [(n_out,) for n_out, _ in layers]
            or not all(np.isfinite(a).all() for a in (*weights, *biases)) or (sd < 0).any()):
        raise foreign(path, "mlp", "train")
    return MlpModel(
        weights=weights,
        biases=biases,
        config=config,
        n_features=n_features,
        scaler=Scaler(mean=mean, sd=sd),
        loss_history=tuple(payload["loss_history"]),
    )
