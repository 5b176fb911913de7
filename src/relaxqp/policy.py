"""Learned relaxation policies: features, normalization, MLP, checkpoints.

Two policy variants share one MLP architecture (input -> 64 -> 64 -> 1 with
layer normalization and ELU after each hidden layer, sigmoid-scaled output
in [alpha_min, alpha_max]):

  * scalar: one forward pass on 6 solver-level features, broadcast to every
    constraint row;
  * vector: one forward pass per row on 5 solver-level features concatenated
    with 8 per-row features (13 inputs); weight sharing across rows makes the
    policy row-equivariant and size-transferable.

The solver-level feature with the penalty scalar is dropped in the vector
variant because the per-row features already carry the per-row penalty.

:data:`INPUT_DIMS` and :func:`param_shapes` are the one statement of each
variant's layout: checkpoint validation, initialization, SPSA flattening and
the JSON format all follow them.  :class:`MlpPolicy` is the engine-facing
policy of either variant; :func:`policy_from_checkpoint` builds it.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .engine import PolicyContext
from .errors import InputError, PolicyError
from .problem import QpProblem, Residuals, array_field, read_json_object, write_atomic

FEATURE_EPS = 1e-8
FEATURE_CLAMP = 6.0
LAYERNORM_EPS = 1e-5
HIDDEN_WIDTH = 64
INPUT_DIMS = {"scalar": 6, "vector": 13}  # vector: 5 solver-level + 8 per-row
STD_FLOOR = 1e-6


def param_shapes(variant: str) -> dict:
    """Shapes of a variant's MLP parameters, in the order used for SPSA
    flattening and for the checkpoint's JSON keys (``b_out`` follows)."""
    if variant not in INPUT_DIMS:
        raise InputError(f"unknown policy variant {variant!r}")
    h = HIDDEN_WIDTH
    return {
        "W1": (h, INPUT_DIMS[variant]), "b1": (h,), "ln1_gain": (h,), "ln1_offset": (h,),
        "W2": (h, h), "b2": (h,), "ln2_gain": (h,), "ln2_offset": (h,),
        "w_out": (h,),
    }


_PARAM_FIELDS = tuple(param_shapes("scalar"))


def _clamped_log(v):
    with np.errstate(divide="ignore"):
        return np.log(v).clip(-FEATURE_CLAMP, FEATURE_CLAMP)


def extract_global(res_now: Residuals, res_prev: Residuals, rho: float, variant: str) -> np.ndarray:
    """Solver-level feature vector (6 entries scalar, 5 vector)."""
    rn, sn = res_now.r_prim_inf, res_now.r_dual_inf
    rp, sp = res_prev.r_prim_inf, res_prev.r_dual_inf
    vals = [
        rn,
        sn,
        rn / (rp + FEATURE_EPS),
        sn / (sp + FEATURE_EPS),
        rn / (sn + FEATURE_EPS),
    ]
    if variant == "scalar":
        vals.append(rho)
    elif variant != "vector":
        raise InputError(f"unknown policy variant {variant!r}")
    return _clamped_log(np.asarray(vals, dtype=np.float64))


def extract_rows(
    prob: QpProblem,
    z: np.ndarray,
    r_prim: np.ndarray,
    y: np.ndarray,
    r_prim_prev: np.ndarray,
    rho_values: np.ndarray,
) -> np.ndarray:
    """Per-constraint feature matrix of shape (m, 8).

    Slack features hit the +clamp on infinite bounds and the -clamp on active
    finite bounds; the row norm of the constraint matrix is the one entry
    that is not log-scaled.  The residual sign is clamped with the logs, a
    no-op on values in [-1, 1].
    """
    feats = np.empty((prob.m, 8), dtype=np.float64)
    abs_r = np.abs(r_prim)
    with np.errstate(divide="ignore"):
        np.log(z - prob.l, out=feats[:, 0])
        np.log(prob.u - z, out=feats[:, 1])
        np.log(abs_r, out=feats[:, 2])
        np.log(np.abs(y), out=feats[:, 4])
        np.log(abs_r / (np.abs(r_prim_prev) + FEATURE_EPS), out=feats[:, 5])
        np.log(rho_values, out=feats[:, 6])
    np.sign(r_prim, out=feats[:, 3])
    logs = feats[:, :7]
    logs.clip(-FEATURE_CLAMP, FEATURE_CLAMP, out=logs)
    feats[:, 7] = prob.row_norms
    return feats


@dataclass(frozen=True)
class NormStats:
    """Frozen per-feature normalization statistics."""

    mean: np.ndarray
    std: np.ndarray
    source: str = ""

    def normalize(self, feats: np.ndarray) -> np.ndarray:
        return (feats - self.mean) / self.std

    @classmethod
    def identity(cls, dim: int) -> "NormStats":
        return cls(np.zeros(dim), np.ones(dim), source="identity")


def fit_norm_stats(batches: list, source: str = "baseline-rollout") -> NormStats:
    """Population mean/std over stacked feature batches, std floored at 1e-6."""
    if not batches:
        raise InputError("no rollout features to fit normalization statistics")
    stacked = np.vstack([np.atleast_2d(b) for b in batches])
    if stacked.shape[0] < 1:
        raise InputError("no rollout features to fit normalization statistics")
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return NormStats(mean=mean, std=std, source=source)


@dataclass
class PolicyCheckpoint:
    """MLP weights plus everything needed to evaluate the policy."""

    variant: str
    W1: np.ndarray
    b1: np.ndarray
    ln1_gain: np.ndarray
    ln1_offset: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    ln2_gain: np.ndarray
    ln2_offset: np.ndarray
    w_out: np.ndarray
    b_out: float
    alpha_min: float
    alpha_max: float
    norm_stats: NormStats
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        checks = [(f, getattr(self, f), shape) for f, shape in param_shapes(self.variant).items()]
        d_in = (INPUT_DIMS[self.variant],)
        checks += [("norm_mean", self.norm_stats.mean, d_in), ("norm_std", self.norm_stats.std, d_in)]
        for name, value, shape in checks:
            if np.shape(value) != shape:
                raise InputError(
                    f"checkpoint field {name!r} has shape {np.shape(value)}, expected {shape}"
                )
        mid = 0.5 * (self.alpha_min + self.alpha_max)
        if abs(mid - 1.6) > 1e-12:
            raise InputError(f"relaxation box must be centered at 1.6, got midpoint {mid}")

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]


def init_checkpoint(
    variant: str,
    seed: int = 0,
    alpha_min: float = 1.25,
    alpha_max: float = 1.95,
    norm_stats: NormStats | None = None,
    metadata: dict | None = None,
) -> PolicyCheckpoint:
    """Fresh checkpoint: fan-in-scaled uniform hidden weights (drawn in
    layout order), unit layer-norm gains, zero biases, offsets and output
    layer, so the first prediction is exactly the box midpoint 1.6."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(variant).items():
        if len(shape) == 2:
            s = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-s, s, size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith("_gain") else np.zeros(shape)
    meta = {"init_seed": seed}
    if metadata:
        meta.update(metadata)
    return PolicyCheckpoint(
        variant=variant,
        **params,
        b_out=0.0,
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        norm_stats=norm_stats if norm_stats is not None else NormStats.identity(INPUT_DIMS[variant]),
        metadata=meta,
    )


def _layer(x, W, b, gain, offset):
    h = x @ W.T + b
    # h.mean and h.var spelled out as the same operations, sharing h - mean.
    k = h.shape[-1]
    d = h - h.sum(axis=-1, keepdims=True) / k
    var = (d * d).sum(axis=-1, keepdims=True) / k
    h = d / np.sqrt(var + LAYERNORM_EPS) * gain + offset
    return np.where(h > 0, h, np.expm1(h))  # ELU


def mlp_forward(ckpt: PolicyCheckpoint, x: np.ndarray) -> np.ndarray:
    """Forward pass on normalized features; x is (d,) or (rows, d).

    Returns relaxation values in [alpha_min, alpha_max].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != ckpt.input_dim:
        raise InputError(f"input dim {x.shape[-1]} does not match variant {ckpt.variant!r}")
    h = _layer(x, ckpt.W1, ckpt.b1, ckpt.ln1_gain, ckpt.ln1_offset)
    h = _layer(h, ckpt.W2, ckpt.b2, ckpt.ln2_gain, ckpt.ln2_offset)
    pre = h @ ckpt.w_out + ckpt.b_out
    out = ckpt.alpha_min + (ckpt.alpha_max - ckpt.alpha_min) * expit(pre)
    if not np.isfinite(out).all():
        raise PolicyError("relaxation policy produced non-finite output")
    return out


def vector_inputs(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vector-variant MLP input: the solver-level features repeated on every
    row, followed by that row's own features."""
    rows = np.atleast_2d(rows)
    out = np.empty((rows.shape[0], phi.size + rows.shape[1]))
    out[:, : phi.size] = phi
    out[:, phi.size :] = rows
    return out


def policy_inputs(ctx: PolicyContext, variant: str) -> np.ndarray:
    """Unnormalized MLP input at a stage boundary: the (6,) solver-level
    features of the scalar variant or the (m, 13) rows of the vector one."""
    phi = extract_global(ctx.res, ctx.res_prev, ctx.rho_scalar, variant)
    if variant == "scalar":
        return phi
    rows = extract_rows(
        ctx.prob, ctx.z, ctx.res.r_prim, ctx.y, ctx.res_prev.r_prim, ctx.rho_values
    )
    return vector_inputs(phi, rows)


class MlpPolicy:
    """The relaxation policy of a checkpoint of either variant."""

    def __init__(self, ckpt: PolicyCheckpoint):
        self.ckpt = ckpt

    def propose(self, ctx: PolicyContext):
        return self.predict(policy_inputs(ctx, self.ckpt.variant), ctx.prob.m)

    def predict(self, inputs: np.ndarray, m: int):
        """(per-row relaxation, decision-space relaxation) from unnormalized
        inputs: the scalar variant's one output broadcast over m rows, or the
        vector variant's row outputs and their mean."""
        out = mlp_forward(self.ckpt, self.ckpt.norm_stats.normalize(inputs))
        if self.ckpt.variant == "scalar":
            alpha = float(out)
            return np.full(m, alpha), alpha
        return out, float(out.mean())


def policy_from_checkpoint(ckpt: PolicyCheckpoint) -> MlpPolicy:
    return MlpPolicy(ckpt)


def flatten_params(ckpt: PolicyCheckpoint) -> np.ndarray:
    parts = [np.asarray(getattr(ckpt, f)).ravel() for f in _PARAM_FIELDS]
    parts.append(np.array([ckpt.b_out]))
    return np.concatenate(parts)


def with_params(ckpt: PolicyCheckpoint, theta: np.ndarray) -> PolicyCheckpoint:
    """New checkpoint with the flattened parameter vector written back."""
    out = {}
    pos = 0
    for f, shape in param_shapes(ckpt.variant).items():
        size = math.prod(shape)
        out[f] = theta[pos : pos + size].reshape(shape).copy()
        pos += size
    b_out = float(theta[pos])
    pos += 1
    if pos != theta.size:
        raise InputError(f"parameter vector has {theta.size} entries, expected {pos}")
    return PolicyCheckpoint(
        variant=ckpt.variant,
        **out,
        b_out=b_out,
        alpha_min=ckpt.alpha_min,
        alpha_max=ckpt.alpha_max,
        norm_stats=ckpt.norm_stats,
        metadata=dict(ckpt.metadata),
    )


def checkpoint_to_dict(ckpt: PolicyCheckpoint) -> dict:
    return {
        "variant": ckpt.variant,
        "dims": [ckpt.input_dim, HIDDEN_WIDTH, HIDDEN_WIDTH, 1],
        **{f: getattr(ckpt, f).ravel().tolist() for f in _PARAM_FIELDS},
        "b_out": ckpt.b_out,
        "alpha_min": ckpt.alpha_min,
        "alpha_max": ckpt.alpha_max,
        "norm_mean": ckpt.norm_stats.mean.tolist(),
        "norm_std": ckpt.norm_stats.std.tolist(),
        "norm_source": ckpt.norm_stats.source,
        "metadata": ckpt.metadata,
    }


def checkpoint_from_dict(doc: dict) -> PolicyCheckpoint:
    try:
        variant = doc["variant"]
        params = {f: array_field(doc, f, shape) for f, shape in param_shapes(variant).items()}
        d_in = (INPUT_DIMS[variant],)
        fields = dict(
            b_out=float(doc["b_out"]),
            alpha_min=float(doc["alpha_min"]),
            alpha_max=float(doc["alpha_max"]),
            norm_stats=NormStats(
                mean=array_field(doc, "norm_mean", d_in),
                std=array_field(doc, "norm_std", d_in),
                source=str(doc.get("norm_source", "")),
            ),
            metadata=dict(doc.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed checkpoint document: {exc}") from exc
    return PolicyCheckpoint(variant=variant, **params, **fields)


def save_checkpoint(ckpt: PolicyCheckpoint, path) -> None:
    """Write ``ckpt`` to ``path``; a save that fails leaves the old file as it was."""
    write_atomic(path, json.dumps(checkpoint_to_dict(ckpt)))


def load_checkpoint(path) -> PolicyCheckpoint:
    return checkpoint_from_dict(read_json_object(path, "checkpoint file"))
