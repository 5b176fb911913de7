"""Learned relaxation policies: features, normalization, MLP, checkpoints.

Two policy variants share one MLP architecture (input -> 64 -> 64 -> 1 with
layer normalization and ELU after each hidden layer, sigmoid-scaled output
in the relaxation box of the config of the solve that queries it):

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

Building an :class:`MlpPolicy` compiles its checkpoint once.  The feature
standard deviations are folded into W1, and W1 is split: its solver-level
columns give one 64-vector per query, added to every row as a bias, so a
row is multiplied only by the per-row columns.  The means are subtracted
from the raw features rather than folded into the bias, where they would
cancel when a feature's standard deviation is small against its mean.  W1,
W2 and their biases are centred over the hidden units, so the
pre-activations come out centred and each layer norm needs only their
variance.  :func:`mlp_forward` then runs in place, on blocks of at most
:data:`BLOCK_ENTRIES` hidden values, and never holds an (m, 64) array.  A
query agrees with the unfolded forward pass to roundoff
(``tests/oracles.py::mlp_forward_loops``).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .engine import SolverConfig, SolverState
from .errors import InputError, PolicyError
from .problem import QpProblem, Residuals, array_field, read_json_object, write_atomic

FEATURE_EPS = 1e-8
FEATURE_CLAMP = 6.0
LAYERNORM_EPS = 1e-5
HIDDEN_WIDTH = 64
INPUT_DIMS = {"scalar": 6, "vector": 13}  # vector: 5 solver-level + 8 per-row
ROW_FEATURES = 8
STD_FLOOR = 1e-6
# Hidden values per evaluation block: 256 rows of 64, so each temporary is
# 128 KB, below glibc's mmap threshold, and is not page-faulted afresh.
BLOCK_ENTRIES = 16384
_ONES = np.ones((HIDDEN_WIDTH, 1))  # row sums as a matrix product, into a column


def param_shapes(variant: str) -> dict:
    """Shapes of a variant's MLP parameters, in the order used for SPSA
    flattening and for the checkpoint's JSON keys (``b_out`` follows)."""
    if not (isinstance(variant, str) and variant in INPUT_DIMS):  # a list is unhashable
        raise InputError(f"unknown policy variant {variant!r}")
    h = HIDDEN_WIDTH
    return {
        "W1": (h, INPUT_DIMS[variant]), "b1": (h,), "ln1_gain": (h,), "ln1_offset": (h,),
        "W2": (h, h), "b2": (h,), "ln2_gain": (h,), "ln2_offset": (h,),
        "w_out": (h,),
    }


_PARAM_FIELDS = tuple(param_shapes("scalar"))


def _clamp(v: np.ndarray) -> None:
    """``v.clip(-FEATURE_CLAMP, FEATURE_CLAMP, out=v)``, bit for bit, without
    the Python layer of ``clip``."""
    np.maximum(v, -FEATURE_CLAMP, out=v)
    np.minimum(v, FEATURE_CLAMP, out=v)


def _clamped_log(v):
    with np.errstate(divide="ignore"):
        v = np.log(v)
    _clamp(v)
    return v


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
    return _clamped_log(np.array(vals))


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
    # Feature-major, so that each feature is one contiguous row; the logs
    # are taken over rows 0-6 at once, before row 3 gets the sign.
    feats = np.empty((ROW_FEATURES, prob.m))
    np.subtract(z, prob.l, out=feats[0])
    np.subtract(prob.u, z, out=feats[1])
    np.abs(r_prim, out=feats[2])
    np.abs(y, out=feats[4])
    np.abs(r_prim_prev, out=feats[5])
    feats[5] += FEATURE_EPS
    np.divide(feats[2], feats[5], out=feats[5])
    feats[6] = rho_values
    logs = feats[:7]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(logs, out=logs)
    np.sign(r_prim, out=feats[3])
    _clamp(logs)
    feats[7] = prob.row_norms
    return feats.T


@dataclass(frozen=True)
class NormStats:
    """Frozen per-feature normalization statistics."""

    mean: np.ndarray
    std: np.ndarray
    source: str = ""

    @classmethod
    def identity(cls, dim: int) -> "NormStats":
        return cls(np.zeros(dim), np.ones(dim), source="identity")


def fit_norm_stats(batches: list) -> NormStats:
    """Population mean/std over stacked feature batches, std floored at 1e-6."""
    if not batches:
        raise InputError("no rollout features to fit normalization statistics")
    stacked = np.vstack([np.atleast_2d(b) for b in batches])
    if stacked.shape[0] < 1:
        raise InputError("no rollout features to fit normalization statistics")
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    return NormStats(mean=mean, std=std, source="baseline-rollout")


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


def init_checkpoint(
    variant: str,
    seed: int = 0,
    norm_stats: NormStats | None = None,
    metadata: dict | None = None,
) -> PolicyCheckpoint:
    """Fresh checkpoint: fan-in-scaled uniform hidden weights (drawn in
    layout order), unit layer-norm gains, zero biases, offsets and output
    layer, so every prediction is exactly the midpoint of the solve's box."""
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
        norm_stats=norm_stats if norm_stats is not None else NormStats.identity(INPUT_DIMS[variant]),
        metadata=meta,
    )


def _elu(h: np.ndarray, t: np.ndarray) -> None:
    """ELU of ``h`` in place, as max(h, expm1(min(h, 0))); ``t`` is scratch
    of h's shape.  Bit for bit the ``np.where(h > 0, h, expm1(h))`` form,
    -0.0 included: on a tie of zeros, whichever operand ``minimum`` and
    ``maximum`` return, -0.0 stays -0.0 with these operand orders."""
    np.minimum(0.0, h, out=t)
    np.expm1(t, out=t)
    np.maximum(h, t, out=h)


def _norm_elu(h: np.ndarray, t: np.ndarray, gain: np.ndarray, offset: np.ndarray) -> None:
    """Layer norm of the centred pre-activations ``h``, then ELU, in place;
    ``t`` is scratch of h's shape and ``gain`` the layer gain times
    sqrt(HIDDEN_WIDTH), as 1/sqrt(mean(h^2) + eps) is
    sqrt(HIDDEN_WIDTH)/sqrt(sum(h^2) + HIDDEN_WIDTH*eps)."""
    np.square(h, out=t)
    scale = np.matmul(t, _ONES)
    scale += HIDDEN_WIDTH * LAYERNORM_EPS
    np.sqrt(scale, out=scale)
    np.divide(1.0, scale, out=scale)
    h *= scale
    h *= gain
    h += offset
    _elu(h, t)


def _hidden_layers(policy: "MlpPolicy", h: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Both hidden layers of a block whose first-layer pre-activations are
    in ``h``, and its (k,) output pre-activations into ``out``; ``h`` and
    ``t`` are overwritten."""
    (gain1, offset1), (gain2, offset2) = policy.norms
    _norm_elu(h, t, gain1, offset1)
    np.matmul(h, policy.W2, out=t)
    t += policy.b2
    _norm_elu(t, h, gain2, offset2)
    np.matmul(t, policy.w_out, out=out)


def mlp_forward(policy: "MlpPolicy", cfg: SolverConfig, phi: np.ndarray, rows: np.ndarray | None = None):
    """Forward pass of ``policy`` on raw (unnormalized) features: ``phi`` the
    solver-level features, ``rows`` the vector variant's (m, 8) per-row
    features (None for the scalar variant).

    Returns the relaxation values in the box of the solver config ``cfg``:
    an (m,) array for the vector variant, a float for the scalar one.
    """
    n_row = 0 if rows is None else rows.shape[-1]
    if phi.shape != policy.mean_global.shape or n_row != policy.mean_rows.size:
        raise InputError(
            f"features of widths {phi.size} + {n_row} do not match variant {policy.variant!r}"
        )
    bias = policy.W1_global @ (phi - policy.mean_global)
    bias += policy.b1
    if rows is None:
        out = np.empty(1)
        _hidden_layers(policy, bias.reshape(1, -1), np.empty((1, HIDDEN_WIDTH)), out)
    else:
        m = rows.shape[0]
        step = min(m, BLOCK_ENTRIES // HIDDEN_WIDTH)
        x = np.empty((step, ROW_FEATURES))
        h = np.empty((step, HIDDEN_WIDTH))
        t = np.empty((step, HIDDEN_WIDTH))
        out = np.empty(m)
        for r0 in range(0, m, max(step, 1)):
            k = min(step, m - r0)
            xb, hb = x[:k], h[:k]
            np.subtract(rows[r0 : r0 + k], policy.mean_rows, out=xb)
            np.matmul(xb, policy.W1_rows, out=hb)
            hb += bias
            _hidden_layers(policy, hb, t[:k], out[r0 : r0 + k])
    out += policy.b_out
    expit(out, out=out)
    out *= cfg.alpha_max - cfg.alpha_min
    out += cfg.alpha_min
    # Outputs are bounded unless NaN, so the sum is finite exactly when they all are.
    if not math.isfinite(np.add.reduce(out)):
        raise PolicyError("relaxation policy produced non-finite output")
    return float(out[0]) if rows is None else out


def policy_features(prob: QpProblem, state: SolverState, res: Residuals, res_prev: Residuals,
                    variant: str):
    """Raw features of ``state`` at a stage boundary, ``res_prev`` the previous
    boundary's residuals: the solver-level features, and the vector variant's
    (m, 8) per-row features (None for the scalar one)."""
    phi = extract_global(res, res_prev, state.rho_scalar, variant)
    if variant == "scalar":
        return phi, None
    return phi, extract_rows(prob, state.z, res.r_prim, state.y, res_prev.r_prim, state.R)


class MlpPolicy:
    """The relaxation policy of a checkpoint of either variant.  Its inference
    arrays are built from the checkpoint once, here (see the module
    docstring); a later change to the checkpoint needs a new policy."""

    def __init__(self, ckpt: PolicyCheckpoint):
        self.ckpt = ckpt
        self.variant = ckpt.variant
        ns = ckpt.norm_stats
        g = INPUT_DIMS[ckpt.variant] - (ROW_FEATURES if ckpt.variant == "vector" else 0)
        W1 = ckpt.W1 / ns.std
        W1 -= W1.mean(axis=0)
        self.mean_global, self.mean_rows = ns.mean[:g].copy(), ns.mean[g:].copy()
        self.W1_global = np.ascontiguousarray(W1[:, :g])
        self.W1_rows = W1[:, g:].T.copy()  # (8, 64) for the vector variant, (0, 64) else
        self.b1 = ckpt.b1 - ckpt.b1.mean()
        self.W2 = (ckpt.W2 - ckpt.W2.mean(axis=0)).T.copy()
        self.b2 = ckpt.b2 - ckpt.b2.mean()
        root_width = math.sqrt(HIDDEN_WIDTH)
        self.norms = (
            (root_width * ckpt.ln1_gain, ckpt.ln1_offset.copy()),
            (root_width * ckpt.ln2_gain, ckpt.ln2_offset.copy()),
        )
        self.w_out, self.b_out = ckpt.w_out.copy(), ckpt.b_out

    def propose(self, prob: QpProblem, state: SolverState, res: Residuals, res_prev: Residuals,
                cfg: SolverConfig):
        phi, rows = policy_features(prob, state, res, res_prev, self.variant)
        return self.predict(cfg, phi, rows, prob.m)

    def predict(self, cfg: SolverConfig, phi: np.ndarray, rows: np.ndarray | None, m: int):
        """(per-row relaxation, decision-space relaxation) in ``cfg``'s box
        from raw features: the scalar variant's one output broadcast over m
        rows, or the vector variant's row outputs and their mean.  With no
        rows the vector variant has no mean to give and returns None, which
        keeps the current decision-space relaxation."""
        out = mlp_forward(self, cfg, phi, rows)
        if rows is None:
            return np.full(m, out), out
        return out, float(np.add.reduce(out)) / out.size if out.size else None


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
        norm_stats=ckpt.norm_stats,
        metadata=dict(ckpt.metadata),
    )


def checkpoint_to_dict(ckpt: PolicyCheckpoint) -> dict:
    return {
        "variant": ckpt.variant,
        **{f: getattr(ckpt, f).ravel().tolist() for f in _PARAM_FIELDS},
        "b_out": ckpt.b_out,
        "norm_mean": ckpt.norm_stats.mean.tolist(),
        "norm_std": ckpt.norm_stats.std.tolist(),
        "norm_source": ckpt.norm_stats.source,
        "metadata": ckpt.metadata,
    }


def checkpoint_from_dict(doc: dict) -> PolicyCheckpoint:
    """The checkpoint of a JSON document, ignoring ``dims`` and the relaxation
    box (``alpha_min``, ``alpha_max``) that files of older writers hold."""
    try:
        variant = doc["variant"]
        params = {f: array_field(doc, f, shape) for f, shape in param_shapes(variant).items()}
        d_in = (INPUT_DIMS[variant],)
        fields = dict(
            b_out=float(doc["b_out"]),
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
