"""Latent-factor model: dot-product scoring and regularized SGD training."""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionDataset, RatingTriples, finite_number, require_int

FUSION_ADDITIVE = "additive"
FUSION_CONVEX = "convex"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for SGD training.

    ``reg`` penalizes squared parameter norms; everything else is the usual
    SGD plumbing.  ``seed`` drives initialization and the per-epoch shuffle,
    so identical configs always reproduce identical models.
    """

    n_factors: int = 32
    learning_rate: float = 0.005
    reg: float = 0.02
    epochs: int = 30
    init_scale: float = 0.05
    seed: int = 42

    def __post_init__(self):
        require_int("n_factors", self.n_factors, 1)
        require_int("epochs", self.epochs, 1)
        require_int("seed", self.seed, 0)
        lr, reg, scale = self.learning_rate, self.reg, self.init_scale
        if not (finite_number(lr) and lr > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {lr}")
        if not (finite_number(reg) and reg >= 0):
            raise ValueError(f"reg must be finite and non-negative, got {reg}")
        if not (finite_number(scale) and scale >= 0):
            raise ValueError(f"init_scale must be finite and non-negative, got {scale}")


@dataclass
class FactorModel:
    """User and item latent factors; a prediction is their dot product."""

    user_factors: np.ndarray  # (n_users, n_factors)
    item_factors: np.ndarray  # (n_items, n_factors)

    def __post_init__(self):
        p, q = np.shape(self.user_factors), np.shape(self.item_factors)
        if not (len(p) == len(q) == 2 and p[1] == q[1]):
            raise ValueError(f"user factors {p} and item factors {q} must be 2-D and equally wide")

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def n_factors(self) -> int:
        return self.user_factors.shape[1]

    def score_items(self, u: int, items: np.ndarray) -> np.ndarray:
        """Scores for one user against item indices, or ``slice(None)`` for the catalogue.

        ``u`` may also be a column of user indices (one row per user) or pair up with ``items``.
        """
        _check_index(u, self.n_users, "user")
        if not isinstance(items, slice):
            _check_index(items, self.n_items, "item")
        return score_pairs(self, u, items)

    predict_pairs = score_items


def fusion_weights(alpha: float, fusion: str) -> tuple:
    """(cf_w, sem_w) of the fused score cf_w * cf + sem_w * sem; raises on bad alpha or mode."""
    if not (finite_number(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if fusion == FUSION_ADDITIVE:
        return 1.0, alpha
    if fusion == FUSION_CONVEX:
        return 1.0 - alpha, alpha
    raise ValueError(f"unknown fusion mode {fusion!r}")


def fused_factors(model: FactorModel, V, alpha: float, fusion: str) -> FactorModel:
    """The factor model (P, cf_w * Q + sem_w * V) of the fused score, V = E @ W.T.

    cf_w * P_u.Q_i + sem_w * P_u.V_i is the one dot product P_u.(cf_w * Q_i + sem_w * V_i).
    Without ``V``, or when sem_w is 0, this is ``model`` itself: its scores keep their bits.
    """
    cf_w, sem_w = fusion_weights(alpha, fusion)
    if V is None or sem_w == 0.0:
        return model
    return FactorModel(model.user_factors, cf_w * model.item_factors + sem_w * V)


# pairs per einsum when scoring a long pair list: temporaries of O(block * k), not O(N * k)
_PAIR_BLOCK = 1024


def _pair_blocks(n: int):
    """Slices that cover ``range(n)`` in order, ``_PAIR_BLOCK`` pairs at a time."""
    return [slice(lo, lo + _PAIR_BLOCK) for lo in range(0, n, _PAIR_BLOCK)]


def _row_dot(a, b, out=None) -> np.ndarray:
    """Row dot of every score, the plain SGD step's errors, V, the projection's gradient and the
    embedding norms: its bits follow no BLAS kernel."""
    return np.einsum("...j,...j->...", a, b, out=out)


def score_pairs(model: FactorModel, users, items) -> np.ndarray:
    """Score of each (user, item) pair: the dot product P_u.Q_i (``_row_dot``).

    This is the only scorer, and it checks no index: ``FactorModel.score_items``
    checks them first, as ``evaluate_model`` does for ``_top_lists``.  ``users`` may
    be one index, which broadcasts against ``items``.  Two 1-D index arrays
    of equal length longer than ``_PAIR_BLOCK`` are scored block by block
    into one output, with the same bits; any other input (broadcasting, a
    length mismatch) is one call.
    """
    P, Q = model.user_factors, model.item_factors
    if not (
        isinstance(users, np.ndarray) and isinstance(items, np.ndarray)
        and users.ndim == items.ndim == 1 and len(users) == len(items) > _PAIR_BLOCK
    ):
        return _row_dot(P[users], Q[items])
    out = np.empty(len(users), np.result_type(P, Q))
    for block in _pair_blocks(len(users)):
        _row_dot(P[users[block]], Q[items[block]], out=out[block])
    return out


def _check_index(idx, n, kind):
    """Raise a one-line IndexError unless ``idx`` (index or array) holds integers in [0, n)."""
    outside = np.asarray(idx)
    if outside.size and outside.dtype.kind not in "iu":  # a boolean array would read as a mask
        raise IndexError(f"{kind} indices must be integers, got dtype {outside.dtype}")
    outside = outside[(outside < 0) | (outside >= n)]
    if outside.size:
        raise IndexError(f"{kind} index {outside.flat[0]} out of range [0, {n})")


def init_factors(n_users: int, n_items: int, config: TrainConfig, rng=None) -> FactorModel:
    """Uniform [-init_scale, +init_scale] factors from a seeded generator.

    Passing an existing ``rng`` lets callers draw further parameters from the
    same stream (the user/item draws always come first, in that order).
    """
    if n_users < 1 or n_items < 1:
        raise ValueError(f"need positive counts, got {n_users} users, {n_items} items")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scale = config.init_scale
    return FactorModel(
        user_factors=rng.uniform(-scale, scale, (n_users, config.n_factors)),
        item_factors=rng.uniform(-scale, scale, (n_items, config.n_factors)),
    )


def predict_mf(model: FactorModel, u: int, i: int) -> float:
    """Dot product of user and item factors: for a ``HybridModel``, the fused score."""
    return float(model.score_items(u, [i])[0])


def loss_mse(pairs) -> float:
    """Mean squared error over (predicted, actual) pairs."""
    arr = np.asarray(list(pairs), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError("loss_mse needs at least one (predicted, actual) pair, "
                         f"got shape {arr.shape}")
    diff = arr[:, 0] - arr[:, 1]
    return float(np.mean(diff * diff))


def _projected_catalogue(model: FactorModel, embeddings, projection):
    """V = E @ W.T (``_row_dot``), or None without W; the one rule: E is (n_items, d), W (k, d)."""
    if projection is None:
        return None
    e, w = np.shape(embeddings), np.shape(projection)
    d = e[1] if len(e) == 2 else None
    if (e, w) != ((model.n_items, d), (model.n_factors, d)):
        raise ValueError(f"projection shape {w} and embeddings shape {e} do not match "
                         f"{model.n_factors} factors and {model.n_items} items")
    return _row_dot(embeddings[:, None, :], projection)


def loss_regularized(
    model: FactorModel,
    data: RatingTriples,
    reg: float,
    projection=None,
    embeddings=None,
    alpha: float = 0.0,
    fusion: str = FUSION_ADDITIVE,
) -> float:
    """Mean over interactions of (error^2 + reg * (||P_u||^2 + ||Q_i||^2 [+ ||W||_F^2])).

    Each interaction penalizes the rows it touches (plus the projection in
    hybrid mode), matching the per-touch decay the SGD updates apply.  With
    ``projection`` and dense ``embeddings`` present the error term uses fused
    predictions.
    """
    if len(data) == 0:
        raise ValueError("loss_regularized needs at least one interaction")
    fused = fused_factors(model, _projected_catalogue(model, embeddings, projection), alpha, fusion)
    err = fused.score_items(data.users, data.items) - data.ratings
    mse = float(np.mean(err * err))
    user_energy = np.sum(model.user_factors**2, axis=1)
    item_energy = np.sum(model.item_factors**2, axis=1)
    penalty = float(np.mean(user_energy[data.users] + item_energy[data.items]))
    if projection is not None:
        penalty += float(np.sum(projection**2))
    return mse + reg * penalty


def loss_gradients(
    model: FactorModel,
    data: RatingTriples,
    reg: float,
    projection=None,
    embeddings=None,
    alpha: float = 0.0,
    fusion: str = FUSION_ADDITIVE,
):
    """Analytic gradients of the regularized objective.

    Returns (grad_user_factors, grad_item_factors, grad_projection); the last
    is None without a projection.  These are the exact derivatives of
    ``loss_regularized``, suitable for checking against finite differences.
    """
    if len(data) == 0:
        raise ValueError("loss_gradients needs at least one interaction")
    P, Q = model.user_factors, model.item_factors
    us, its = data.users, data.items
    fused = fused_factors(model, _projected_catalogue(model, embeddings, projection), alpha, fusion)
    err = fused.score_items(us, its) - data.ratings
    # without a projection the prediction is the plain dot product
    cf_w, sem_w = (1.0, 0.0) if projection is None else fusion_weights(alpha, fusion)

    # per-interaction regularization: each row is penalized once per touch
    user_touches = np.bincount(us, minlength=model.n_users)
    item_touches = np.bincount(its, minlength=model.n_items)
    scale = 2.0 / len(data)
    grad_P = scale * reg * user_touches[:, None] * P
    grad_Q = scale * reg * item_touches[:, None] * Q

    # per item, the sum of err * P_u over its interactions: drives both Q's and W's gradients
    item_pull = np.zeros_like(Q)
    # block by block, each target takes its terms in interaction order: the bits of one add.at
    for block in _pair_blocks(len(data)):
        u, i, e = us[block], its[block], err[block, None]
        np.add.at(grad_P, u, scale * e * fused.item_factors[i])
        np.add.at(item_pull, i, e * P[u])
    grad_Q += scale * cf_w * item_pull
    if projection is None:
        return grad_P, grad_Q, None
    pull_E = _row_dot(item_pull.T[:, None, :], embeddings.T)  # sum_i outer(item_pull_i, E_i)
    return grad_P, grad_Q, 2.0 * reg * projection + scale * sem_w * pull_E


def epoch_shuffle(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic visiting order for one epoch, seeded by (seed, epoch)."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def conflict_free_levels(users, items, n_users: int, n_items: int) -> np.ndarray:
    """Level of each interaction in visit order, for conflict-free batched SGD.

    An interaction's level is one more than the highest level of any earlier
    interaction that shares its user or its item (1 if there is none).  So no
    user or item appears twice in one level, and every earlier touch of a row
    sits in a lower level: applying whole levels in increasing order replays
    the per-interaction order exactly (the stratification of DSGD, without
    its approximation).
    """
    user_level = [0] * n_users
    item_level = [0] * n_items
    levels = array("q")
    append = levels.append
    # memoryview yields one Python int at a time: no list copies of the inputs
    for u, i in zip(memoryview(users), memoryview(items)):
        a, b = user_level[u], item_level[i]
        level = (a if a > b else b) + 1
        user_level[u] = item_level[i] = level
        append(level)
    return np.frombuffer(levels, dtype=np.int64)


RUN_CAP = 64  # longest run of visits solved as one system in the fused step


def conflict_free_runs(
    users, items, n_users: int, n_items: int, cap: int = RUN_CAP
) -> np.ndarray:
    """Boundaries ``[0, ..., n]`` of the runs of the fused SGD step, in visit order.

    A run is a maximal stretch of consecutive visits in which no user and no
    item repeats, and at most ``cap`` long: a run ends just before the first
    visit whose user or item it already holds, or when it reaches ``cap``.
    Within a run every visit reads its factor rows at their run-start values.
    """
    user_run = [-1] * n_users
    item_run = [-1] * n_items
    bounds = array("q", [0])
    append = bounds.append
    run = start = 0
    for k, (u, i) in enumerate(zip(memoryview(users), memoryview(items))):
        if user_run[u] == run or item_run[i] == run or k - start == cap:
            run += 1
            start = k
            append(k)
        user_run[u] = item_run[i] = run
    if len(users):
        append(len(users))
    return np.frombuffer(bounds, dtype=np.int64)


def sgd_epochs(model: FactorModel, train: RatingTriples, config: TrainConfig, loss, head=None):
    """Per-interaction SGD in place; returns ``loss()`` after each epoch.

    ``head`` is ``(W, E, alpha, fusion)`` to train a projection W jointly over
    frozen dense embeddings E.  Each epoch visits ``train`` in a fresh
    deterministic shuffle; with error e, v = W @ E_i and (cf_w, sem_w) from
    ``fusion_weights``, the touched parameters move from their pre-update values as

        P_u <- P_u - lr * (e * (cf_w * Q_i + sem_w * v) + reg * P_u)
        Q_i <- Q_i - lr * (e * cf_w * P_u + reg * Q_i)
        W   <- W   - lr * (sem_w * e * outer(P_u, E_i) + reg * W)

    When sem_w is 0 (no head, or alpha=0) this is the plain factor step and W
    only decays, once per epoch in closed form.  The plain step runs one
    ``conflict_free_levels`` level at a time, vectorized over its rows, with
    its errors from ``_row_dot``; the result is bitwise that of the
    per-interaction order with that dot.

    The fused step, which shares W across all interactions, runs one
    ``conflict_free_runs`` run at a time.  Within a run of n visits every P_u
    and Q_i keeps its run-start value, and with c = 1 - lr * reg the visit t
    sees W_t = c^t W0 - lr * sem_w * sum_{m<t} c^(t-1-m) e_m outer(P_m, E_m).
    So the run's errors solve the unit lower-triangular system (I + K) e = r with

        r_t  = cf_w * P_t.Q_t + sem_w * c^t * P_t.(W0 E_t) - y_t
        K_tm = lr * sem_w^2 * c^(t-1-m) * (E_m.E_t) * (P_m.P_t)    (m < t)

    and one solve plus a few matrix products apply every visit of the run.
    That is the per-interaction sequence in exact arithmetic; only rounding
    differs (about 1e-13 relative).  Raises TrainingDiverged on a non-finite loss.
    """
    P, Q = model.user_factors, model.item_factors
    tu, ti, tr = train.users, train.items, train.ratings
    _check_index(tu, len(P), "user")
    _check_index(ti, len(Q), "item")
    lr, lam = config.learning_rate, config.reg
    c = 1.0 - lr * lam
    sem_w = 0.0
    if head is not None:
        W, E, alpha, fusion = head
        cf_w, sem_w = fusion_weights(alpha, fusion)

    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        if sem_w != 0.0:
            powers = c ** np.arange(RUN_CAP + 1)  # c^t
            lags = np.subtract.outer(np.arange(RUN_CAP), np.arange(RUN_CAP)) - 1
            # [t, m]: lr * sem_w^2 * c^(t-1-m) for m < t, else 0
            decay = np.where(lags >= 0, (lr * sem_w * sem_w) * c ** np.maximum(lags, 0), 0.0)
            sem_powers, w_steps = sem_w * powers, (lr * sem_w) * powers
        for epoch in range(config.epochs):
            order = epoch_shuffle(config.seed, epoch, len(tu))
            if sem_w == 0.0:
                levels = conflict_free_levels(tu[order], ti[order], len(P), len(Q))
                # a stable sort of uint16 keys is a radix sort: the same order, several times faster
                keys = levels.astype(np.uint16) if levels.max(initial=0) < 1 << 16 else levels
                order = order[np.argsort(keys, kind="stable")]
                bounds = np.cumsum(np.bincount(levels)).tolist()
                us, its, ys = tu[order], ti[order], tr[order]  # in level order
                del levels, keys, order
                for lo, hi in zip(bounds, bounds[1:]):
                    u, i = us[lo:hi], its[lo:hi]
                    pu, qi = P[u], Q[i]
                    err = (_row_dot(pu, qi) - ys[lo:hi])[:, None]
                    # in place, in the order of pu - lr * (err * qi + lam * pu): the same bits
                    step_p, step_q = err * qi, err * pu
                    step_p += lam * pu
                    step_q += lam * qi
                    step_p *= lr
                    step_q *= lr
                    pu -= step_p
                    qi -= step_q
                    P[u], Q[i] = pu, qi
                if head is not None:
                    W *= c ** len(tu)
            else:
                us, its, ys = tu[order], ti[order], tr[order]
                bounds = conflict_free_runs(us, its, len(P), len(Q)).tolist()
                for lo, hi in zip(bounds, bounds[1:]):
                    n = hi - lo
                    u, i = us[lo:hi], its[lo:hi]
                    pu, qi, ei = P[u], Q[i], E[i]
                    cq = cf_w * qi
                    sw = sem_powers[:n, None] * (ei @ W.T)  # row t: sem_w * c^t * W0 @ E_t
                    coupling = decay[:n, :n] * (ei @ ei.T)  # K without its P_m.P_t factor
                    system = coupling * (pu @ pu.T)
                    system.flat[:: n + 1] = 1.0
                    r = np.vecdot(pu, cq + sw) - ys[lo:hi]
                    try:
                        err = np.linalg.solve(system, r)
                    except np.linalg.LinAlgError:  # only once values have overflowed
                        err = np.full(n, np.nan)
                    sv = sw - (coupling * err) @ pu  # row t: sem_w * W_t @ E_t
                    step = (lr * err)[:, None]
                    P[u] = c * pu - step * (cq + sv)
                    Q[i] = c * qi - (cf_w * step) * pu
                    # W_n = c^n W0 - lr * sem_w * sum_m c^(n-1-m) e_m outer(P_m, E_m)
                    W *= powers[n]
                    W -= ((w_steps[n - 1 :: -1] * err)[:, None] * pu).T @ ei
            value = loss()
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"training loss became non-finite at epoch {epoch + 1}; "
                    f"try a smaller learning rate than {lr}"
                )
            losses.append(value)
    return losses


def train_mf(dataset: InteractionDataset, config: TrainConfig):
    """Train factors by per-interaction SGD on the squared error (``sgd_epochs``, no head).

    Returns the model and the regularized training loss after each epoch.
    """
    if len(dataset.train) == 0:
        raise ValueError("training split is empty")
    model = init_factors(dataset.n_users, dataset.n_items, config)
    losses = sgd_epochs(
        model, dataset.train, config, lambda: loss_regularized(model, dataset.train, config.reg)
    )
    return model, losses
