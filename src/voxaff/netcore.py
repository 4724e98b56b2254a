"""Small trainable velocity models with hand-derived gradients.

Both generative stages share one architecture: a per-token MLP.  Each
token's input is the concatenation of its own features, one pooled
condition vector shared by all tokens, and a sinusoidal embedding of
the flow time.  ``depth`` hidden layers of ``tanh(affine(.))`` feed a
final affine map to a single velocity per token, so tokens never see
each other — per-token cost is constant no matter how many views fed
the condition.

The forward pass computes in the dtype of the model's weights.  Training,
``backward`` and the checkpoints are float64; sampling runs in float32,
because ``pipeline`` hands the forward pass a float32 copy of the model.

The condition and the time embedding are the same on every row, so
``forward``, the sampling pass, folds their part of the first affine map
and its bias into one vector per call: the first layer multiplies only
the token columns, and adds that vector to every row.  Training keeps the
stacked (n, in_dim) input (``_forward_cached``), because the first
layer's weight gradient reads it.  The two passes share every layer above
the first, and differ only in the rounding of the first layer's sums.

Hidden activations are written into work buffers that this module keeps
and reuses, one per (hidden-layer index, width, dtype), each grown to the
largest token count seen, so float32 and float64 passes never share one.
At r = 16 a hidden layer is a (4096, 96) array, 3 MB in float64 and 1.5 MB
in float32; glibc hands an allocation that large back to the kernel when
it is freed, so a fresh array per call is faulted in again on first touch,
and that cost about a third of a forward pass.  Only the per-token
velocities come back as a fresh array.  The buffers make the forward pass
single-threaded: two threads must not run it at once.

A model in training holds its parameters as named views into one
contiguous float64 vector (``VelocityModel.param_views``): each array's
elements in C order, one array after another in ``params``' order.
``backward`` writes each step's gradients through views of the same
layout into one flat buffer, so the batch sum, the finiteness check, Adam
and the EMA are each a few whole-vector operations.  Every one of them is
elementwise, so the flat form gives the same floats as one array at a
time.  ``params`` stays a dict of ``(in, out)`` and ``(out,)`` arrays, and
the forward pass and its work buffers do not depend on the layout.

Gradients are exact reverse-mode derivations of this stack (no autograd
dependency), checked against central finite differences in the tests.
Training runs are pure functions of (dataset, configs, seed): a fixed
seed reproduces the final parameters bit for bit.

Initialization detail: the input-layer rows that read the pooled
condition start at zero (as does the output layer).  An untrained or
never-conditioned model therefore produces identical conditional and
unconditional velocities, which keeps classifier-free guidance a no-op
until training actually uses the condition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericalError,
    ShapeMismatchError,
    UntrainedModelError,
    check_integer,
    check_real,
    malformed,
    read_json,
    record_integer,
    write_json,
)
from .flow import FlowConfig, cfm_loss_mse, interpolate, sample_timestep, velocity_mask_loss
from .geometry import CameraIntrinsics, Viewpoint, eval_intrinsics, orbit_view
from .render import render_views
from .synthscene import (
    QueryTable,
    default_query_table,
    ground_truth_affordance,
    ground_truth_occupancy,
    signed_occupancy,
)
from .voxel import backproject_view, encode_positions, fuse, pooled_condition, position_codes, sinusoid

Array = np.ndarray

#: Width of the sinusoidal time embedding appended to every token input.
T_EMBED_DIM = 16

#: Width of the positional code mixed into token features.
PE_DIM = 16


def time_embedding(t: float, dim: int = T_EMBED_DIM) -> Array:
    """Sinusoidal embedding of a scalar time: interleaved sin/cos pairs."""
    if dim < 2 or dim % 2:
        raise DomainError(f"time embedding width must be even and >= 2, got {dim}")
    return sinusoid(t, dim)


@dataclass
class VelocityModel:
    """Per-token MLP velocity field v(tokens, condition, t)."""

    token_dim: int
    cond_dim: int
    hidden: int = 64
    depth: int = 2
    t_dim: int = T_EMBED_DIM
    params: dict = field(default_factory=dict)
    seed: int = 0
    steps_trained: int = 0

    @property
    def in_dim(self) -> int:
        return self.token_dim + self.cond_dim + self.t_dim

    @classmethod
    def create(
        cls, token_dim: int, cond_dim: int, hidden: int = 64, depth: int = 2, seed: int = 0
    ) -> "VelocityModel":
        if token_dim < 1 or cond_dim < 1:
            raise ConfigError("token and condition widths must be positive")
        if depth < 0 or (depth >= 1 and hidden < 1):
            raise ConfigError("depth must be >= 0 with a positive hidden width")
        model = cls(token_dim=token_dim, cond_dim=cond_dim, hidden=hidden, depth=depth, seed=seed)
        rng = np.random.default_rng(seed)
        params = {}
        in_dim = model.in_dim
        width = in_dim
        for k in range(depth):
            w = rng.standard_normal((width, hidden)) / np.sqrt(width)
            if k == 0:
                w[token_dim : token_dim + cond_dim, :] = 0.0
            params[f"W{k}"] = w
            params[f"b{k}"] = np.zeros(hidden)
            width = hidden
        params["Wout"] = np.zeros((width, 1))
        params["bout"] = np.zeros(1)
        model.params = params
        return model

    def param_views(self, flat: Array) -> dict:
        """Named views into the float64 vector ``flat``: each parameter's
        elements in C order, one parameter after another in ``params``'
        order."""
        size = sum(p.size for p in self.params.values())
        if flat.shape != (size,):
            raise ShapeMismatchError(f"{flat.shape} vector for {size} parameters")
        views, start = {}, 0
        for name, p in self.params.items():
            views[name] = flat[start : start + p.size].reshape(p.shape)
            start += p.size
        return views

    def layer_widths(self) -> list[int]:
        return [self.in_dim] + [self.hidden] * self.depth + [1]

    def check(self):
        if len(self.params) != 2 * self.depth + 2:
            raise ShapeMismatchError(f"{len(self.params)} parameters for depth {self.depth}")
        widths = self.layer_widths()
        for k, layer in enumerate([*map(str, range(self.depth)), "out"]):
            if self.params[f"W{layer}"].shape != (widths[k], widths[k + 1]):
                raise ShapeMismatchError(f"layer {layer} weight shape inconsistent")
            if self.params[f"b{layer}"].shape != (widths[k + 1],):
                raise ShapeMismatchError(f"layer {layer} bias shape inconsistent")
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise NumericalError(f"parameter {name} is not finite")


def _check_widths(model: VelocityModel, tokens: Array, cond: Array):
    """Refuse tokens or a condition of another width than the model's."""
    if tokens.shape[1] != model.token_dim:
        raise ShapeMismatchError(
            f"token width {tokens.shape[1]} != model token_dim {model.token_dim}"
        )
    if cond.shape[0] != model.cond_dim:
        raise ShapeMismatchError(f"condition width {cond.shape[0]} != model cond_dim {model.cond_dim}")


def _stack_inputs(model: VelocityModel, tokens: Array, cond: Array, t: float, dtype) -> Array:
    """The (n, in_dim) layer input in ``dtype``: tokens, then the condition
    and the time embedding repeated on every row."""
    tokens = np.atleast_2d(np.asarray(tokens, dtype=float))
    cond = np.asarray(cond, dtype=float).reshape(-1)
    _check_widths(model, tokens, cond)
    temb = time_embedding(t, model.t_dim)
    n = tokens.shape[0]
    return np.concatenate(
        [tokens, np.broadcast_to(cond, (n, cond.size)), np.broadcast_to(temb, (n, temb.size))],
        axis=1,
        dtype=dtype,
    )


#: Hidden-layer work buffers keyed by (layer index, width, dtype).  Each
#: grows to the largest token count seen and never shrinks.
_HIDDEN: dict[tuple[int, int, np.dtype], Array] = {}


def _hidden_buffer(k: int, n: int, width: int, dtype: np.dtype) -> Array:
    """The first ``n`` rows of layer ``k``'s ``dtype`` work buffer of
    ``width`` columns."""
    buf = _HIDDEN.get((k, width, dtype))
    if buf is None or buf.shape[0] < n:
        buf = _HIDDEN[(k, width, dtype)] = np.empty((n, width), dtype=dtype)
    return buf[:n]


def _first_layer(model: VelocityModel) -> tuple[Array, Array]:
    """The weight and bias of the layer that reads the input: ``W0`` and
    ``b0``, or ``Wout`` and ``bout`` at depth 0."""
    layer = "0" if model.depth else "out"
    return model.params[f"W{layer}"], model.params[f"b{layer}"]


def _layers(model: VelocityModel, x: Array, w: Array, b: Array, acts: list) -> Array:
    """Velocities of the stack whose first affine map is ``x @ w + b``;
    each hidden activation is appended to ``acts``.

    The two forward passes differ only in that map.  ``_forward_cached``
    passes the stacked input and the whole first layer, because
    ``backward`` reads that input.  ``forward`` passes the tokens alone,
    the weight's token rows, and one row that folds in the condition, time
    and bias parts, because they are the same for every token.

    Callers run it, and the casts of their inputs, with overflow and
    invalid-value warnings off: an input beyond the weights' dtype casts
    to inf, and a layer sum that overflows saturates its tanh.  A
    non-finite velocity is refused here.
    """
    h = x
    for k in range(model.depth):
        if k:
            w, b = model.params[f"W{k}"], model.params[f"b{k}"]
        h = np.matmul(h, w, out=_hidden_buffer(k, x.shape[0], w.shape[1], w.dtype))
        h += b
        np.tanh(h, out=h)
        acts.append(h)
    if model.depth:
        w, b = model.params["Wout"], model.params["bout"]
    v = (h @ w + b)[:, 0]
    if not np.all(np.isfinite(v)):
        raise NumericalError("velocity forward pass produced non-finite values")
    return v


def _forward_cached(model: VelocityModel, tokens: Array, cond: Array, t: float):
    """Velocities and every layer's activations, the stacked input first,
    computed in the dtype of the model's weights.

    The hidden activations in ``acts`` are views of this module's work
    buffers: they are valid only until the next forward pass, so
    ``backward`` consumes them before it returns.
    """
    w, b = _first_layer(model)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _stack_inputs(model, tokens, cond, t, w.dtype)
        acts = [x]
        return _layers(model, x, w, b, acts), acts


def forward(model: VelocityModel, tokens: Array, cond: Array, t: float) -> Array:
    """Per-token velocities; tokens are independent given (cond, t).

    The first affine map is ``tokens @ W[:token_dim] + row``, where
    ``row = cond @ W[cond rows] + temb(t) @ W[time rows] + b`` is one
    vector per call, all in the dtype of the weights.  Tokens already in
    that dtype are read without a copy.
    """
    w, b = _first_layer(model)
    d, c = model.token_dim, model.cond_dim
    with np.errstate(over="ignore", invalid="ignore"):
        tokens = np.atleast_2d(np.asarray(tokens, dtype=w.dtype))
        cond = np.asarray(cond, dtype=w.dtype).reshape(-1)
        _check_widths(model, tokens, cond)
        temb = time_embedding(t, model.t_dim).astype(w.dtype)
        row = cond @ w[d : d + c] + temb @ w[d + c :] + b
        return _layers(model, tokens, w[:d], row, [])


def _velocity_backward(model: VelocityModel, acts: list, dv: Array, grads: dict):
    """Write the exact gradients of sum(dv * v) into ``grads``, one view
    per parameter."""
    delta = np.asarray(dv, dtype=float).reshape(-1, 1)
    np.matmul(acts[-1].T, delta, out=grads["Wout"])
    delta.sum(axis=0, out=grads["bout"])
    above = model.params["Wout"]
    # delta is pulled back through a layer only when a layer below needs
    # it: the gradient with respect to the inputs is never used.
    for k in reversed(range(model.depth)):
        delta = (delta @ above.T) * (1.0 - acts[k + 1] ** 2)  # tanh'
        np.matmul(acts[k].T, delta, out=grads[f"W{k}"])
        delta.sum(axis=0, out=grads[f"b{k}"])
        above = model.params[f"W{k}"]


def backward(model: VelocityModel, loss_fn, batch, grad: Array, grads: dict) -> tuple[float, dict]:
    """Loss and exact parameter gradients for one batch.

    ``batch`` is (tokens, cond, t); ``loss_fn`` maps the per-token
    velocities to ``(loss, dloss_dvelocities)``.  The gradients are written
    into ``grad``, a float64 vector in the model's parameter layout, through
    ``grads``, its named views (``model.param_views(grad)``, which a caller
    builds once per buffer), and come back as ``grads``.
    """
    tokens, cond, t = batch
    v, acts = _forward_cached(model, tokens, cond, t)
    loss, dv = loss_fn(v)
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite")
    _velocity_backward(model, acts, dv, grads)
    if not np.isfinite(grad).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"gradient for {name} is not finite")
    return float(loss), grads


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators for adaptive-moment updates, and a
    work vector for each side of the update's quotient, all in the flat
    parameter layout."""

    m: Array
    v: Array
    work: tuple[Array, Array]
    step: int = 0

    @classmethod
    def for_params(cls, params: Array) -> "AdamState":
        return cls(
            m=np.zeros_like(params),
            v=np.zeros_like(params),
            work=(np.empty_like(params), np.empty_like(params)),
        )


def adam_update(
    params: Array,
    grads: Array,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One in-place adaptive-moment step with bias correction on the flat
    vector ``params``.

    Each line is one elementwise operation of the textbook update
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``, in that order of operations.
    """
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    m, v, (step, denom) = state.m, state.v, state.work
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=step)
    m += step
    v *= beta2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - beta2
    v += step
    np.divide(m, correction1, out=step)
    step *= learning_rate
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params -= step


# --- training ---------------------------------------------------------------


#: Largest accepted grid resolution: the structure stage samples r^3
#: tokens, and at 64 each hidden layer is a 100 MB float32 array.
MAX_RESOLUTION = 64

#: Largest accepted feature width: every rendered pixel carries
#: ``channels`` floats, 128 MB for one 128^2 float64 view at 1,024.
MAX_CHANNELS = 1024

#: Largest accepted side of a square render (``image_size`` and trainer
#: ``view_pixels``): at 1,024 one 16-channel float64 view is 134 MB.
MAX_IMAGE_SIZE = 1024

#: Largest accepted hidden width: each hidden layer holds a hidden x hidden
#: float64 weight, 8 MB at 1,024, and Adam keeps two moments beside it.
MAX_HIDDEN = 1024

#: Largest accepted hidden depth: each layer adds a matmul per token to
#: every forward and backward pass; 16 is 8 times the shipped depth of 2.
MAX_DEPTH = 16


def check_size(name: str, value: int, lo: int, hi: int):
    """Refuse a size ``value`` outside [lo, hi] with one line naming ``name``."""
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs for the training loop (optimizer, sampling, model size)."""

    steps: int = 2000
    batch_size: int = 1
    learning_rate: float = 2e-2
    cfg_dropout: float = 0.10
    view_range: tuple[int, int] = (1, 8)
    seed: int = 7
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    resolution: int = 8
    channels: int = 16
    view_pixels: int = 64
    hidden: int = 96
    depth: int = 2
    ema_rate: float | None = None

    def __post_init__(self):
        for name in (
            "steps", "batch_size", "seed", "resolution", "channels", "view_pixels", "hidden", "depth"
        ):
            check_integer(f"trainer {name}", getattr(self, name))
        if self.seed < 0:
            raise ConfigError("trainer seed must be non-negative")
        for name in ("learning_rate", "cfg_dropout", "beta1", "beta2", "adam_eps"):
            check_real(f"trainer {name}", getattr(self, name))
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch size must be positive")
        if self.learning_rate <= 0 or self.adam_eps <= 0:
            raise ConfigError("learning rate and adam eps must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not 0.0 <= self.cfg_dropout <= 1.0:
            raise ConfigError("cfg dropout must lie in [0, 1]")
        lo, hi = self.view_range
        check_integer("trainer view_range start", lo)
        check_integer("trainer view_range end", hi)
        if not 1 <= lo <= hi:
            raise ConfigError(f"invalid view range {self.view_range}")
        check_size("trainer resolution", self.resolution, 1, MAX_RESOLUTION)
        check_size("trainer channels", self.channels, 4, MAX_CHANNELS)
        check_size("trainer view_pixels", self.view_pixels, 1, MAX_IMAGE_SIZE)
        check_size("trainer depth", self.depth, 0, MAX_DEPTH)
        if self.depth >= 1:  # a model without hidden layers has no hidden width
            check_size("trainer hidden", self.hidden, 1, MAX_HIDDEN)
        if self.ema_rate is not None:
            check_real("trainer ema_rate", self.ema_rate)
            if not 0.0 < self.ema_rate < 1.0:
                raise ConfigError("ema rate must lie in (0, 1) when set")
        object.__setattr__(self, "view_range", (int(lo), int(hi)))


@dataclass
class TrainResult:
    model: VelocityModel
    losses: Array  # per-step mean batch loss


def random_hemisphere_view(rng: np.random.Generator, intrinsics: CameraIntrinsics) -> Viewpoint:
    """Uniform-elevation random camera on the upper view hemisphere."""
    z = rng.random()
    phi = 2.0 * np.pi * rng.random()
    s = np.sqrt(max(0.0, 1.0 - z * z))
    return orbit_view(np.array([s * np.cos(phi), s * np.sin(phi), z]), intrinsics)


def _fit(cond_dim: int, sample_fn, flow_cfg: FlowConfig, cfg: TrainerConfig) -> TrainResult:
    """The training loop both trainers share, from a fresh model whose
    condition is ``cond_dim`` wide.

    ``sample_fn(rng)`` draws one batch item and returns ``(x0, pe, cond,
    loss)``: clean per-token targets, their positional codes, the
    condition, and ``loss(v, eps) -> (loss, dloss_dv)``.  The loop then
    draws, in this order, dropout of ``cond`` to the zero vector (with
    probability ``cfg.cfg_dropout``), the noise ``eps`` and the time ``t``
    of the corruption of ``x0``.  Each step averages the batch
    gradients into one Adam update and, when ``cfg.ema_rate`` is set,
    folds the parameters into an EMA that replaces them at the end.  The
    parameters, gradients, moments and EMA are flat vectors of one layout,
    so each of these is a few whole-vector operations.
    """
    model = VelocityModel.create(
        token_dim=1 + PE_DIM, cond_dim=cond_dim, hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
    )
    params = np.concatenate([p.reshape(-1) for p in model.params.values()])
    model.params = model.param_views(params)
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState.for_params(params)
    ema = params.copy() if cfg.ema_rate else None
    grad, work = np.empty_like(params), np.empty_like(params)
    buffers = ((grad, model.param_views(grad)), (work, model.param_views(work)))
    zero_cond = np.zeros(cond_dim)
    losses = np.zeros(cfg.steps)
    for step in range(cfg.steps):
        total_loss = 0.0
        for i in range(cfg.batch_size):
            x0, pe, cond, loss_of = sample_fn(rng)
            if rng.random() < cfg.cfg_dropout:
                cond = zero_cond
            eps = flow_cfg.noise_scale * rng.standard_normal(x0.shape)
            t = sample_timestep(rng)
            batch = (np.column_stack([interpolate(x0, eps, t), pe]), cond, t)
            loss, _ = backward(model, lambda v: loss_of(v, eps), batch, *buffers[min(i, 1)])
            if i:
                grad += work
            total_loss += loss
        grad /= cfg.batch_size
        adam_update(params, grad, adam, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
        if ema is not None:
            ema *= cfg.ema_rate
            np.multiply(params, 1.0 - cfg.ema_rate, out=work)
            ema += work
        losses[step] = total_loss / cfg.batch_size
    if ema is not None:
        model.params = model.param_views(ema)
    model.steps_trained = cfg.steps
    model.check()
    return TrainResult(model=model, losses=losses)


def train_structure(
    dataset, cfg: TrainerConfig, flow_cfg: FlowConfig | None = None
) -> TrainResult:
    """Fit the dense occupancy velocity model on multi-view conditions.

    Each step renders a random number of views (``view_range``) of a
    random object from random hemisphere cameras, fuses them into a
    sparse grid, and pools the resulting condition tokens (zeros when
    every view misses the object); ``_fit`` drops it out.  The model
    regresses the straight-path velocity toward the object's dense +-1
    occupancy under the MSE matching loss.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("structure training needs a non-empty dataset")
    if flow_cfg is None:
        flow_cfg = FlowConfig.for_structure()
    r, channels = cfg.resolution, cfg.channels
    intrinsics = eval_intrinsics(cfg.view_pixels)
    pe = position_codes(r, PE_DIM)
    lattices = [ground_truth_occupancy(obj, r) for obj in dataset]
    clean = [signed_occupancy(lat) for lat in lattices]

    def sample(rng):
        pick = int(rng.integers(len(dataset)))
        obj, x0, occ = dataset[pick], clean[pick], lattices[pick]
        n_views = int(rng.integers(cfg.view_range[0], cfg.view_range[1] + 1))
        grids = []
        for _ in range(n_views):
            view = random_hemisphere_view(rng, intrinsics)
            depth_img, feats = render_views(obj, view, r, channels, occ=occ)
            grids.append(backproject_view(depth_img.values, feats, view, r))
        cond = pooled_condition(fuse(grids))
        return x0, pe, cond, lambda v, eps: cfm_loss_mse(v, x0, eps)

    return _fit(channels, sample, flow_cfg, cfg)


def train_affordance(
    dataset,
    cfg: TrainerConfig,
    flow_cfg: FlowConfig | None = None,
    table: QueryTable | None = None,
) -> TrainResult:
    """Fit the sparse affordance velocity model on (object, query) pairs.

    Tokens are the object's ground-truth occupied voxels; the clean
    target maps the binary ground-truth heatmap to +-1 logits.  The loss
    runs through the implied clean-sample estimate into BCE + Dice, and
    classifier-free dropout zeroes the query embedding.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("affordance training needs a non-empty dataset")
    if flow_cfg is None:
        flow_cfg = FlowConfig.for_affordance_training()
    if table is None:
        table = default_query_table(cfg.channels)
    r = cfg.resolution
    pairs = []
    for obj in dataset:
        for query in table.queries_for(obj):
            heat = ground_truth_affordance(obj, query, r, table)
            tokens_pe = encode_positions(heat.positions, r, PE_DIM)
            pairs.append((heat.values.copy(), tokens_pe, table.embedding_of(query)))
    if not pairs:
        raise DataError("no query matches any object in the dataset")

    def sample(rng):
        gt, pe, embedding = pairs[int(rng.integers(len(pairs)))]
        return 2.0 * gt - 1.0, pe, embedding, lambda v, eps: velocity_mask_loss(v, eps, gt)

    return _fit(table.dim, sample, flow_cfg, cfg)


# --- checkpoints ------------------------------------------------------------


def model_to_dict(model: VelocityModel, trainer: TrainerConfig, kind: str | None) -> dict:
    model.check()
    record = {
        "token_dim": model.token_dim,
        "cond_dim": model.cond_dim,
        "hidden": model.hidden,
        "depth": model.depth,
        "t_dim": model.t_dim,
        "seed": model.seed,
        "steps_trained": model.steps_trained,
        "params": {name: value.tolist() for name, value in sorted(model.params.items())},
    }
    echo = asdict(trainer)
    echo["view_range"] = list(echo["view_range"])
    record["trainer"] = echo
    if kind is not None:
        record["kind"] = kind
    return record


#: The integer fields of a checkpoint record.
_MODEL_INTEGERS = ("token_dim", "cond_dim", "hidden", "depth", "t_dim", "seed", "steps_trained")


def model_from_dict(data: dict) -> VelocityModel:
    with malformed("malformed model record"):
        widths_expected = {"W": 2, "b": 1}
        params = {}
        for name, value in data["params"].items():
            arr = np.array(value, dtype=float)
            if arr.ndim != widths_expected[name[:1]]:
                raise DomainError(f"parameter {name} has wrong rank")
            params[name] = arr
        fields = {name: record_integer("model", name, data[name]) for name in _MODEL_INTEGERS}
        if fields["steps_trained"] < 0:
            raise DataError(f"malformed model record: steps_trained {fields['steps_trained']} < 0")
        model = VelocityModel(params=params, **fields)
        model.check()
        return model


def save_model(path, model: VelocityModel, trainer: TrainerConfig, kind: str | None = None):
    write_json(path, model_to_dict(model, trainer, kind))


def load_model(path, resolution: int, channels: int, kind: str) -> VelocityModel:
    """Read a checkpoint, refusing one whose trainer record names another
    ``resolution`` or ``channels`` than the given ones, or whose ``kind``
    is not the given one (``ConfigError``), and one that records no
    training step (``UntrainedModelError``).

    A checkpoint without a trainer record loads under any run, and one
    without a kind loads as either kind.
    """
    data = read_json(path)
    record = data if isinstance(data, dict) else {}
    if record.get("kind", kind) != kind:
        raise ConfigError(f"{path} is a checkpoint of kind {record['kind']!r}, the run needs {kind!r}")
    trainer = record.get("trainer")
    if isinstance(trainer, dict):
        for name, want in (("resolution", resolution), ("channels", channels)):
            if name in trainer and trainer[name] != want:
                raise ConfigError(f"{path} was trained at {name} {trainer[name]!r}, the run has {want}")
    model = model_from_dict(data)
    if model.steps_trained == 0:
        raise UntrainedModelError(f"{path} is a checkpoint with no training steps recorded")
    return model
