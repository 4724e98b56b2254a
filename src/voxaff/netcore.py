"""Small trainable velocity models with hand-derived gradients.

Both generative stages share one architecture: a per-token MLP.  Each
token's input is the concatenation of its own features, one pooled
condition vector shared by all tokens, and a sinusoidal embedding of
the flow time.  ``depth`` hidden layers of ``tanh(affine(.))`` feed a
final affine map to a single velocity per token, so tokens never see
each other — per-token cost is constant no matter how many views fed
the condition.

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

import json
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
)
from .flow import (
    FlowConfig,
    cfm_loss_mse,
    cfm_loss_mse_grad,
    interpolate,
    sample_timestep,
    velocity_mask_loss,
)
from .geometry import VIEW_RADIUS, CameraIntrinsics, Viewpoint, _up_for, eval_intrinsics, look_at
from .render import render_views
from .synthscene import (
    QueryTable,
    default_query_table,
    ground_truth_affordance,
    ground_truth_occupancy,
    signed_occupancy,
)
from .voxel import backproject_view, encode_positions, flat_order_indices, fuse, pooled_condition

Array = np.ndarray

#: Width of the sinusoidal time embedding appended to every token input.
T_EMBED_DIM = 16

#: Width of the positional code mixed into token features.
PE_DIM = 16


def time_embedding(t: float, dim: int = T_EMBED_DIM) -> Array:
    """Sinusoidal embedding of a scalar time: interleaved sin/cos pairs."""
    if dim < 2 or dim % 2:
        raise DomainError(f"time embedding width must be even and >= 2, got {dim}")
    n_pairs = dim // 2
    freqs = 1.0 / np.power(10000.0, 2.0 * np.arange(n_pairs) / dim)
    out = np.empty(dim)
    out[0::2] = np.sin(t * freqs)
    out[1::2] = np.cos(t * freqs)
    return out


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


def _stack_inputs(model: VelocityModel, tokens: Array, cond: Array, t: float) -> Array:
    tokens = np.atleast_2d(np.asarray(tokens, dtype=float))
    cond = np.asarray(cond, dtype=float).reshape(-1)
    if tokens.shape[1] != model.token_dim:
        raise ShapeMismatchError(
            f"token width {tokens.shape[1]} != model token_dim {model.token_dim}"
        )
    if cond.shape[0] != model.cond_dim:
        raise ShapeMismatchError(f"condition width {cond.shape[0]} != model cond_dim {model.cond_dim}")
    temb = time_embedding(t, model.t_dim)
    n = tokens.shape[0]
    return np.concatenate(
        [tokens, np.broadcast_to(cond, (n, cond.size)), np.broadcast_to(temb, (n, temb.size))],
        axis=1,
    )


def _forward_cached(model: VelocityModel, tokens: Array, cond: Array, t: float):
    x = _stack_inputs(model, tokens, cond, t)
    acts = [x]
    h = x
    # A layer sum that overflows saturates its tanh; a non-finite velocity
    # is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(model.depth):
            h = np.tanh(h @ model.params[f"W{k}"] + model.params[f"b{k}"])
            acts.append(h)
        v = (h @ model.params["Wout"] + model.params["bout"])[:, 0]
    if not np.all(np.isfinite(v)):
        raise NumericalError("velocity forward pass produced non-finite values")
    return v, acts


def forward(model: VelocityModel, tokens: Array, cond: Array, t: float) -> Array:
    """Per-token velocities; tokens are independent given (cond, t)."""
    return _forward_cached(model, tokens, cond, t)[0]


def _velocity_backward(model: VelocityModel, acts: list, dv: Array) -> dict:
    """Exact gradients of sum(dv * v) with respect to every parameter."""
    grads = {}
    delta = np.asarray(dv, dtype=float).reshape(-1, 1)
    grads["Wout"] = acts[-1].T @ delta
    grads["bout"] = delta.sum(axis=0)
    delta = delta @ model.params["Wout"].T
    for k in reversed(range(model.depth)):
        delta = delta * (1.0 - acts[k + 1] ** 2)  # tanh'
        grads[f"W{k}"] = acts[k].T @ delta
        grads[f"b{k}"] = delta.sum(axis=0)
        delta = delta @ model.params[f"W{k}"].T
    return grads


def backward(model: VelocityModel, loss_fn, batch) -> tuple[float, dict]:
    """Loss and exact parameter gradients for one batch.

    ``batch`` is (tokens, cond, t); ``loss_fn`` maps the per-token
    velocities to ``(loss, dloss_dvelocities)``.
    """
    tokens, cond, t = batch
    v, acts = _forward_cached(model, tokens, cond, t)
    loss, dv = loss_fn(v)
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite")
    grads = _velocity_backward(model, acts, dv)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"gradient for {name} is not finite")
    return float(loss), grads


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators for adaptive-moment updates."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_update(
    params: dict,
    grads: dict,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One in-place adaptive-moment step with bias correction."""
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    for name in sorted(params):
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        params[name] = params[name] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)


# --- training ---------------------------------------------------------------


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
        if self.resolution < 1 or self.channels < 4 or self.view_pixels < 1:
            raise ConfigError("resolution/channels/view_pixels out of range")
        if self.depth < 0 or (self.depth >= 1 and self.hidden < 1):
            raise ConfigError("invalid model size")
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
    direction = np.array([s * np.cos(phi), s * np.sin(phi), z])
    origin = VIEW_RADIUS * direction
    pose = look_at(origin, (0.0, 0.0, 0.0), up=_up_for(-direction))
    return Viewpoint(intrinsics=intrinsics, pose=pose)


def _corruption(x0: Array, flow_cfg: FlowConfig, rng: np.random.Generator):
    """Draw (t, eps, x_t): eps has standard deviation ``noise_scale``."""
    eps = flow_cfg.noise_scale * rng.standard_normal(x0.shape)
    t = sample_timestep(rng)
    return t, eps, interpolate(x0, eps, t)


def _fit(model: VelocityModel, sample_fn, cfg: TrainerConfig) -> TrainResult:
    """The training loop both trainers share.

    ``sample_fn(rng)`` makes every random draw of one batch item and
    returns ``(tokens, cond, t, loss_fn)``.  Each step averages the batch
    gradients into one Adam update and, when ``cfg.ema_rate`` is set,
    folds the parameters into an EMA that replaces them at the end.
    """
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState.for_params(model.params)
    ema = {k: p.copy() for k, p in model.params.items()} if cfg.ema_rate else None
    losses = np.zeros(cfg.steps)
    for step in range(cfg.steps):
        total_grads, total_loss = None, 0.0
        for _ in range(cfg.batch_size):
            tokens, cond, t, loss_fn = sample_fn(rng)
            loss, grads = backward(model, loss_fn, (tokens, cond, t))
            if total_grads is not None:
                grads = {k: total_grads[k] + g for k, g in grads.items()}
            total_grads = grads
            total_loss += loss
        mean_grads = {k: g / cfg.batch_size for k, g in total_grads.items()}
        adam_update(
            model.params, mean_grads, adam, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps
        )
        if ema is not None:
            for k in ema:
                ema[k] = cfg.ema_rate * ema[k] + (1.0 - cfg.ema_rate) * model.params[k]
        losses[step] = total_loss / cfg.batch_size
    if ema is not None:
        model.params = ema
    model.steps_trained = cfg.steps
    model.check()
    return TrainResult(model=model, losses=losses)


def train_structure(
    dataset, cfg: TrainerConfig, flow_cfg: FlowConfig | None = None
) -> TrainResult:
    """Fit the dense occupancy velocity model on multi-view conditions.

    Each step renders a random number of views (``view_range``) of a
    random object from random hemisphere cameras, fuses them into a
    sparse grid, and pools the resulting condition tokens; with
    probability ``cfg_dropout`` the condition is replaced by zeros.  The
    model regresses the straight-path velocity toward the object's
    dense +-1 occupancy under the MSE matching loss.
    """
    dataset = list(dataset)
    if not dataset:
        raise DataError("structure training needs a non-empty dataset")
    if flow_cfg is None:
        flow_cfg = FlowConfig.for_structure()
    r, channels = cfg.resolution, cfg.channels
    intrinsics = eval_intrinsics(cfg.view_pixels)
    pe = encode_positions(flat_order_indices(r), r, PE_DIM)
    lattices = [ground_truth_occupancy(obj, r) for obj in dataset]
    clean = [signed_occupancy(lat) for lat in lattices]
    zero_cond = np.zeros(channels)

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
        if rng.random() < cfg.cfg_dropout:
            cond = zero_cond
        t, eps, x_t = _corruption(x0, flow_cfg, rng)
        return (
            np.column_stack([x_t, pe]),
            cond,
            t,
            lambda v: (cfm_loss_mse(v, x0, eps), cfm_loss_mse_grad(v, x0, eps)),
        )

    model = VelocityModel.create(
        token_dim=1 + PE_DIM, cond_dim=channels, hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
    )
    return _fit(model, sample, cfg)


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
    zero_cond = np.zeros(table.dim)

    def sample(rng):
        gt, pe, embedding = pairs[int(rng.integers(len(pairs)))]
        cond = zero_cond if rng.random() < cfg.cfg_dropout else embedding
        t, eps, a_t = _corruption(2.0 * gt - 1.0, flow_cfg, rng)
        return np.column_stack([a_t, pe]), cond, t, lambda v: velocity_mask_loss(v, eps, gt)

    model = VelocityModel.create(
        token_dim=1 + PE_DIM, cond_dim=table.dim, hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
    )
    return _fit(model, sample, cfg)


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


def model_from_dict(data: dict) -> VelocityModel:
    try:
        widths_expected = {"W": 2, "b": 1}
        params = {}
        for name, value in data["params"].items():
            arr = np.array(value, dtype=float)
            if arr.ndim != widths_expected[name[:1]]:
                raise DomainError(f"parameter {name} has wrong rank")
            params[name] = arr
        model = VelocityModel(
            token_dim=int(data["token_dim"]),
            cond_dim=int(data["cond_dim"]),
            hidden=int(data["hidden"]),
            depth=int(data["depth"]),
            t_dim=int(data["t_dim"]),
            params=params,
            seed=int(data["seed"]),
            steps_trained=int(data["steps_trained"]),
        )
        model.check()
        return model
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model record: {exc}") from exc


def save_model(path, model: VelocityModel, trainer: TrainerConfig, kind: str | None = None):
    with open(path, "w") as f:
        json.dump(model_to_dict(model, trainer, kind), f, sort_keys=True)
        f.write("\n")


def load_model(path, resolution: int, channels: int, kind: str) -> VelocityModel:
    """Read a checkpoint, refusing one whose trainer record names another
    ``resolution`` or ``channels`` than the given ones, or whose ``kind``
    is not the given one (``ConfigError``), and one that records no
    training step (``UntrainedModelError``).

    A checkpoint without a trainer record loads under any run, and one
    without a kind loads as either kind.
    """
    with open(path) as f:
        data = json.load(f)
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
