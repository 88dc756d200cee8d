"""Dense instance affinity head.

Per-pixel features are projected twice (1x1 convolution + rectifier);
the pairwise affinity between pixels i and j is the dot product of the
two projections. Applying the affinities to the potential tensor uses
the associativity of matrix products: with flattened pixel matrices,

    out = psi + proj0 @ (proj1.T @ psi)

so the quadratic pixel-by-pixel affinity matrix is never materialized -
the intermediate is a tiny (feature_dim x n_channels) matrix. The tests
check it against the quadratic product in ``tests/reference.py``. The
backward pass is hand-derived reverse mode with the same factored
bracketing.

Inference never forms psi or the logits whole: ``fused_winners`` takes
the box-sparse potential and works in row blocks of the grid (see
``logit_blocks``).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import container
from .errors import DimensionError, FormatError, NumericError
from .numerics import FLOAT_DTYPES, require_tensor3
from .potential import DynamicPotential

# Pixels per row block of the inference forward (whole rows, at least one):
# 16 rows at 128x128 and the whole grid at 32x32. A block's projections and
# logits stay in the CPU cache between the steps that make them and use
# them. Projecting a 128x128 grid's 16-wide features through one head took
# 0.22 ms in blocks of 2048 pixels, 0.23 ms in blocks of 1024, 0.39 ms in
# blocks of 4096 and 0.36 ms whole (numpy's OpenBLAS, one thread, Xeon).
BLOCK_PIXELS = 2048


@dataclass
class AffinityParams:
    """Weights of the two per-pixel linear projections (rectifier fixed)."""

    w0: np.ndarray  # (c, c)
    b0: np.ndarray  # (c,)
    w1: np.ndarray  # (c, c)
    b1: np.ndarray  # (c,)

    @property
    def feature_dim(self) -> int:
        return self.w0.shape[0]

    def validate(self) -> None:
        c = self.feature_dim
        for name, arr, shape in [("w0", self.w0, (c, c)), ("b0", self.b0, (c,)),
                                 ("w1", self.w1, (c, c)), ("b1", self.b1, (c,))]:
            if arr.shape != shape:
                raise DimensionError(f"params.{name} has shape {arr.shape}, expected {shape}")

    @classmethod
    def init(cls, feature_dim: int, seed: int, scale: float = 0.15,
             jitter: float = 0.02) -> "AffinityParams":
        """Near-identity init below useful magnitude, zero biases.

        Plain fixed-rate gradient descent cannot cross the dead-rectifier
        trap around the all-zero head, so the residual projections start
        as a jittered scaled identity; training then has to grow the
        propagation scale severalfold and learn the gating biases.
        """
        rng = np.random.default_rng(seed)
        eye = np.eye(feature_dim)
        return cls(
            w0=scale * eye + jitter * rng.normal(size=(feature_dim, feature_dim)),
            b0=np.zeros(feature_dim),
            w1=scale * eye + jitter * rng.normal(size=(feature_dim, feature_dim)),
            b1=np.zeros(feature_dim),
        )

    def save(self, path: str | Path) -> None:
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for name in ("w0", "b0", "w1", "b1"):
            container.write_tensor(root / f"{name}.panc", getattr(self, name))
        manifest = {
            "format": "panfuse-affinity-params",
            "version": 1,
            "feature_dim": int(self.feature_dim),
            "activation": "rectifier",
            "tensors": {n: f"{n}.panc" for n in ("w0", "b0", "w1", "b1")},
        }
        container.write_file(root / "params.json",
                             json.dumps(manifest, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "AffinityParams":
        root = Path(path)
        mpath = root / "params.json"
        manifest = container.read_manifest(mpath, "panfuse-affinity-params",
                                           "an affinity-params")
        feature_dim = container.manifest_value(manifest, "feature_dim", int, mpath,
                                               optional=True)
        activation = container.manifest_value(manifest, "activation", str, mpath,
                                              optional=True)
        if activation not in (None, "rectifier"):
            raise FormatError(f'{mpath}: key activation must be "rectifier", '
                              f"got {json.dumps(activation)}")
        tensors = container.manifest_value(manifest, "tensors", dict, mpath)
        arrays = {}
        for name, rank in (("w0", 2), ("b0", 1), ("w1", 2), ("b1", 1)):
            file = root / container.manifest_value(tensors, name, str, mpath, "tensors")
            arr = arrays[name] = container.read_tensor(file)
            if arr.dtype not in FLOAT_DTYPES:
                raise FormatError(f"{file}: {name} has dtype {arr.dtype}, "
                                  f"expected float32 or float64")
            if arr.ndim != rank:
                raise FormatError(f"{file}: {name} has shape {arr.shape}, expected rank {rank}")
            expected = (len(arrays["w0"]),) * rank  # w0 gives the feature width
            if arr.shape != expected:
                raise FormatError(f"{file}: {name} has shape {arr.shape}, expected {expected}")
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise FormatError(f"{file}: non-finite value at index {tuple(bad[0].tolist())}")
        width = len(arrays["w0"])
        if feature_dim not in (None, width):
            raise FormatError(f"{mpath}: key feature_dim must be {width}, the width of w0, "
                              f"got {feature_dim}")
        return cls(**arrays)


@dataclass
class AffinityGrads:
    """Reverse-mode gradients; each entry has the shape of its primal."""

    d_psi: np.ndarray
    d_features: np.ndarray
    d_w0: np.ndarray
    d_b0: np.ndarray
    d_w1: np.ndarray
    d_b1: np.ndarray


@dataclass(frozen=True)
class CostReport:
    """Multiply-add and memory estimates for one applier configuration."""

    naive_flops: int
    factored_flops: int
    affinity_matrix_bytes: int
    reduction_percent: float
    projection_flops: int

    def to_dict(self) -> dict:
        return asdict(self)


def project_features(q: np.ndarray, params: AffinityParams) -> tuple[np.ndarray, np.ndarray]:
    """Apply both per-pixel projections: relu(q @ w + b) for each head."""
    q = _check_features(q, params)
    flat = q.reshape(-1, q.shape[2])
    return (_project(flat, params.w0, params.b0).reshape(q.shape),
            _project(flat, params.w1, params.b1).reshape(q.shape))


def apply_affinity_factored(psi: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Residual affinity aggregation in linear pixel complexity."""
    psi = require_tensor3(psi, "potential")
    q0 = require_tensor3(q0, "projected features (head 0)")
    q1 = require_tensor3(q1, "projected features (head 1)")
    if q0.shape != q1.shape:
        raise DimensionError(f"projection shapes differ: {q0.shape} vs {q1.shape}")
    if psi.shape[:2] != q0.shape[:2]:
        raise DimensionError(
            f"potential grid {psi.shape[:2]} does not match features {q0.shape[:2]}"
        )
    h, w, k = psi.shape
    c = q0.shape[2]
    psi_m = psi.reshape(-1, k)
    q0_m = q0.reshape(-1, c)
    q1_m = q1.reshape(-1, c)
    inner = q1_m.T @ psi_m  # (c, k): the only intermediate
    out = q0_m @ inner
    out += psi_m  # in place: same sum as psi_m + out, one (pixels, k) array fewer
    return out.reshape(h, w, k)


def _check_features(q: np.ndarray, params: AffinityParams) -> np.ndarray:
    q = require_tensor3(q, "features")
    params.validate()
    if q.shape[2] != params.feature_dim:
        raise DimensionError(
            f"features have width {q.shape[2]}, params expect {params.feature_dim}"
        )
    return q


def _project(flat: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    a = flat @ weight
    a += bias  # in place: one (pixels, c) array per head
    np.maximum(a, 0.0, out=a)
    return a


def logit_blocks(potential: DynamicPotential, features: np.ndarray,
                 params: AffinityParams | None) -> Iterator[tuple[int, np.ndarray]]:
    """The logits ``psi + Q0 (Q1^T psi)`` of one row block at a time.

    Yields (first pixel, (block pixels, n_channels) logits) down the grid.
    Without ``params`` the logits are psi itself. Pass 1 projects each block
    of features and adds to ``Q1^T psi`` the block's share of the slab and
    of each window crossing it; pass 2 forms each block's ``Q0 (Q1^T psi)``
    and adds the slab and those windows. Neither psi nor the logits exist
    whole. ``Q1^T psi`` is summed per block and per window instead of by
    one product over the whole grid, so it can differ from that product in
    the last bits.
    """
    h, w = potential.shape
    k, slab = potential.n_channels, potential.slab
    rows = max(1, BLOCK_PIXELS // w)
    blocks = [slice(top * w, min(h, top + rows) * w) for top in range(0, h, rows)]
    crossing: list[list[tuple]] = [[] for _ in blocks]  # each window's part of each block
    for ch, y0, y1, x0, x1, region in potential.windows:
        for b in range(y0 // rows, (y1 - 1) // rows + 1):
            top = b * rows
            ya, yb = max(y0, top), min(y1, top + rows)
            crossing[b].append((ch, ya - top, yb - top, x0, x1, region[ya - y0:yb - y0]))

    q0 = []
    if params is not None:
        features = _check_features(features, params)
        if features.shape[:2] != (h, w):
            raise DimensionError(f"potential grid {(h, w)} does not match "
                                 f"features {features.shape[:2]}")
        flat = features.reshape(h * w, -1)
        c = params.feature_dim
        inner = np.zeros((c, k), dtype=np.result_type(flat, params.w1, slab))
        for s, parts in zip(blocks, crossing):
            q0.append(_project(flat[s], params.w0, params.b0))
            q1 = _project(flat[s], params.w1, params.b1)
            inner[:, :len(slab)] += (slab[:, s] @ q1).T
            q1 = q1.reshape(-1, w, c)
            for ch, ya, yb, x0, x1, region in parts:
                inner[:, ch] += region.reshape(-1) @ q1[ya:yb, x0:x1].reshape(-1, c)

    for b, (s, parts) in enumerate(zip(blocks, crossing)):
        if params is None:
            logits = np.zeros((s.stop - s.start, k), dtype=slab.dtype)
        else:
            logits = q0[b] @ inner
        for ch, plane in enumerate(slab[:, s]):
            logits[:, ch] += plane
        grid = logits.reshape(-1, w, k)
        for ch, ya, yb, x0, x1, region in parts:
            grid[ya:yb, x0:x1, ch] += region
        yield s.start, logits


def fused_winners(potential: DynamicPotential, features: np.ndarray,
                  params: AffinityParams | None) -> np.ndarray:
    """Per-pixel winning channel (h, w) of the logits of ``logit_blocks``.

    Ties go to the lowest channel. Finite but huge features can overflow
    the affinity forward; that raises ``NumericError`` instead of warning.
    """
    winners = np.empty(potential.shape, dtype=np.intp).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, logits in logit_blocks(potential, features, params):
            # A sum over the block is finite when every logit is; only a
            # non-finite sum, which finite logits can also give, takes the
            # exact test.
            if (params is not None and not np.isfinite(logits.sum())
                    and not np.isfinite(logits).all()):
                raise NumericError("the affinity forward gave non-finite logits")
            winners[start:start + len(logits)] = logits.argmax(axis=1)
    return winners.reshape(potential.shape)


def affinity_map_for_pixel(q0: np.ndarray, q1: np.ndarray,
                           pixel: tuple[int, int]) -> np.ndarray:
    """Affinity of one pixel to every pixel: the corresponding row of the
    (never otherwise materialized) affinity matrix, for visualization."""
    q0 = require_tensor3(q0, "projected features (head 0)")
    q1 = require_tensor3(q1, "projected features (head 1)")
    row, col = pixel
    h, w, _ = q0.shape
    if not (0 <= row < h and 0 <= col < w):
        raise IndexError(f"pixel {pixel} outside {h}x{w} grid")
    return q1 @ q0[row, col]


def backward_affinity(psi: np.ndarray, q: np.ndarray, params: AffinityParams,
                      grad_p: np.ndarray) -> AffinityGrads:
    """Exact reverse-mode gradients of the residual affinity aggregation.

    Uses the same factored bracketing as the forward pass (no quadratic
    intermediate). The rectifier subgradient at exactly 0 is taken as 0.
    """
    psi = require_tensor3(psi, "potential")
    q = require_tensor3(q, "features")
    grad_p = require_tensor3(grad_p, "output gradient")
    if grad_p.shape != psi.shape:
        raise DimensionError(
            f"output gradient shape {grad_p.shape} does not match potential {psi.shape}"
        )
    if q.shape[:2] != psi.shape[:2]:
        raise DimensionError(
            f"features grid {q.shape[:2]} does not match potential {psi.shape[:2]}"
        )
    # Recompute the forward projections; this also checks params and width.
    q0, q1 = project_features(q, params)
    h, w, k = psi.shape
    c = q.shape[2]
    qm = q.reshape(-1, c)
    q0, q1 = q0.reshape(-1, c), q1.reshape(-1, c)
    psi_m = psi.reshape(-1, k)
    g = grad_p.reshape(-1, k)
    inner = q1.T @ psi_m  # (c, k)

    d_psi = g + q1 @ (q0.T @ g)
    d_q0 = g @ inner.T
    d_inner = q0.T @ g  # (c, k)
    d_q1 = psi_m @ d_inner.T
    # q > 0 exactly where the pre-activation is > 0 (NaN in neither).
    d_a0 = d_q0 * (q0 > 0.0)
    d_a1 = d_q1 * (q1 > 0.0)
    d_features = d_a0 @ params.w0.T + d_a1 @ params.w1.T
    return AffinityGrads(
        d_psi=d_psi.reshape(h, w, k),
        d_features=d_features.reshape(h, w, c),
        d_w0=qm.T @ d_a0,
        d_b0=d_a0.sum(axis=0),
        d_w1=qm.T @ d_a1,
        d_b1=d_a1.sum(axis=0),
    )


def estimate_costs(h: int, w: int, d: int, c: int, n_det: int, n_stuff: int,
                   bytes_per_scalar: int) -> CostReport:
    """Multiply-add counts (1 madd = 2 FLOPs) and affinity-matrix bytes.

    Counts cover only the two applier matrix products; the two 1x1
    projections are reported separately in ``projection_flops``.
    """
    for name, val in [("h", h), ("w", w), ("d", d), ("c", c), ("n_det", n_det),
                      ("n_stuff", n_stuff), ("bytes_per_scalar", bytes_per_scalar)]:
        if val < 1:
            raise DimensionError(f"{name} must be >= 1, got {val}")
    n = (h // d) * (w // d)
    if n == 0:
        raise DimensionError(f"d must be <= h and w, got d={d} on a {h}x{w} grid")
    k = n_det + n_stuff
    counts = {"naive_flops": 2 * n * n * c + 2 * n * n * k, "factored_flops": 4 * c * n * k,
              "affinity_matrix_bytes": n * n * bytes_per_scalar,
              "projection_flops": 4 * n * c * c}
    for name, count in counts.items():  # `panfuse costs` prints each as a float
        if count > sys.float_info.max:
            raise NumericError(f"{name} exceeds the float range ({sys.float_info.max:.3e})")
    reduction = 100.0 * (1.0 - counts["factored_flops"] / counts["naive_flops"])
    return CostReport(reduction_percent=reduction, **counts)
