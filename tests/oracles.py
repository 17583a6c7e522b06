"""Independent brute-force oracles the tests compare the package against.

Everything here is written naively (explicit loops, no shared code with the
package) so a disagreement points at the implementation, not at a shared bug.
"""

import math

import numpy as np


def mse_resum(pairs):
    """Plain re-summation of mean squared error."""
    total = 0.0
    count = 0
    for predicted, actual in pairs:
        total += (predicted - actual) ** 2
        count += 1
    return total / count


def rmse_naive(predicted, actual):
    total = 0.0
    for p, y in zip(predicted, actual):
        total += (p - y) ** 2
    return math.sqrt(total / len(predicted))


def loss_eq6_naive(P, Q, triples, lam, W=None, E=None, alpha=0.0, fusion="additive"):
    """Regularized squared-error objective recomputed with explicit loops.

    Each interaction contributes its squared error plus lam times the squared
    norms of the rows it touches (and of W in hybrid mode); the total is
    averaged over interactions.
    """
    total = 0.0
    w_norm = sum(x * x for row in W for x in row) if W is not None else 0.0
    for u, i, y in triples:
        cf = sum(P[u][f] * Q[i][f] for f in range(len(P[u])))
        if W is None:
            pred = cf
        else:
            v = [sum(W[f][d] * E[i][d] for d in range(len(E[i]))) for f in range(len(W))]
            sem = sum(P[u][f] * v[f] for f in range(len(v)))
            if fusion == "additive":
                pred = cf + alpha * sem
            else:
                pred = (1.0 - alpha) * cf + alpha * sem
        penalty = (
            sum(x * x for x in P[u]) + sum(x * x for x in Q[i]) + w_norm
        )
        total += (pred - y) ** 2 + lam * penalty
    return total / len(triples)


def matvec_naive(matrix, vec):
    out = []
    for row in matrix:
        acc = 0.0
        for a, b in zip(row, vec):
            acc += a * b
        out.append(acc)
    return out


def dot_naive(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def central_differences(loss_fn, array, h=1e-5):
    """Central finite-difference gradient of loss_fn with respect to one array.

    ``loss_fn`` takes no arguments and reads ``array`` in place.
    """
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = loss_fn()
        array[idx] = orig - h
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def full_batch_gd(
    P, Q, triples, lam, lr, iters, W=None, E=None, alpha=0.0
):
    """Full-batch gradient descent on the regularized objective (additive fusion).

    Arrays are modified in place; returns the final objective value.  This is
    the reference trainer: loops only, gradient accumulated per interaction.
    """
    n = len(triples)
    k = P.shape[1]
    for _ in range(iters):
        grad_P = np.zeros_like(P)
        grad_Q = np.zeros_like(Q)
        grad_W = 2.0 * lam * W.copy() if W is not None else None
        for u, i, y in triples:
            if W is None:
                pred = float(P[u] @ Q[i])
            else:
                v = W @ E[i]
                pred = float(P[u] @ Q[i]) + alpha * float(P[u] @ v)
            err = pred - y
            for f in range(k):
                if W is None:
                    grad_P[u, f] += (2.0 / n) * (err * Q[i, f] + lam * P[u, f])
                else:
                    grad_P[u, f] += (2.0 / n) * (err * (Q[i, f] + alpha * v[f]) + lam * P[u, f])
                grad_Q[i, f] += (2.0 / n) * (err * P[u, f] + lam * Q[i, f])
            if W is not None:
                grad_W += (2.0 / n) * alpha * err * np.outer(P[u], E[i])
        P -= lr * grad_P
        Q -= lr * grad_Q
        if W is not None:
            W -= lr * grad_W
    rows = [(u, i, y) for u, i, y in triples]
    if W is None:
        return loss_eq6_naive(P.tolist(), Q.tolist(), rows, lam)
    return loss_eq6_naive(
        P.tolist(), Q.tolist(), rows, lam, W=W.tolist(), E=E.tolist(), alpha=alpha
    )


def sgd_sequential_reference(
    P, Q, users, items, ratings, lr, lam, seed, epochs, loss, head=None
):
    """Per-interaction SGD, in place; returns ``loss()`` after each epoch.

    Each epoch visits the interactions in the order
    ``default_rng([seed, epoch]).permutation(n)`` and updates one (P_u, Q_i)
    pair at a time from their pre-update values.  ``head`` is
    ``(W, E, alpha, fusion)`` to also train the projection W over the frozen
    embeddings E with the fused score, one interaction at a time (W is updated
    in place).  The package's level-batched plain step must reproduce the
    plain loop bit for bit; its run-batched fused step must match the fused
    loop to rounding.
    """
    if head is not None:
        W, E, alpha, fusion = head
        cf_w = 1.0 if fusion == "additive" else 1.0 - alpha
        sem_w = alpha
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for idx in np.random.default_rng([seed, epoch]).permutation(len(users)):
                u, i, y = users[idx], items[idx], ratings[idx]
                pu, qi = P[u], Q[i]
                if head is None:
                    # a row-wise einsum, as every package score; a 1-D ``pu @ qi`` is BLAS
                    # ddot, whose bits follow the CPU's kernel
                    err = np.einsum("...j,...j->...", pu, qi) - y
                    new_pu = pu - lr * (err * qi + lam * pu)
                    new_qi = qi - lr * (err * pu + lam * qi)
                else:
                    ei = E[i]
                    v = W @ ei
                    err = cf_w * (pu @ qi) + sem_w * (pu @ v) - y
                    new_pu = pu - lr * (err * (cf_w * qi + sem_w * v) + lam * pu)
                    new_qi = qi - lr * (err * cf_w * pu + lam * qi)
                    W -= lr * ((sem_w * err) * np.outer(pu, ei) + lam * W)
                P[u] = new_pu
                Q[i] = new_qi
            losses.append(loss())
    return losses


def topk_bruteforce(score_of, n_items, k, exclude=()):
    """Sort every candidate by (-score, index) and take the first k."""
    excluded = set(exclude)
    ranked = sorted(
        (i for i in range(n_items) if i not in excluded),
        key=lambda i: (-score_of(i), i),
    )
    return ranked[:k]


def topk_stable_sort(row, candidates, k):
    """The k best of the masked ``row`` by one stable sort of the negated scores.

    Candidates stay in ascending order, so ties go to the lower index; NaN
    scores, which ``topk_bruteforce``'s ``sorted`` cannot order, sort last.
    """
    pool = np.flatnonzero(candidates)
    return pool[np.argsort(-np.asarray(row)[pool], kind="stable")[:k]].tolist()


def precision_recall_bruteforce(recommendations, relevant_by_user):
    """Per-user hit counting over users that have at least one relevant item."""
    hits = 0
    n_rec = 0
    n_rel = 0
    for u, relevant in relevant_by_user.items():
        if not relevant:
            continue
        rec = recommendations.get(u, [])
        hits += sum(1 for item in rec if item in relevant)
        n_rec += len(rec)
        n_rel += len(relevant)
    precision = hits / n_rec if n_rec else 0.0
    recall = hits / n_rel
    return precision, recall


def coverage_bruteforce(recommendations, n_items):
    distinct = set()
    for rec in recommendations.values():
        for item in rec:
            distinct.add(item)
    return len(distinct) / n_items


def recommend_bruteforce(P, Q, u, k, counts, include_cold=False, head=None):
    """(item, score, label) rows for one user, every item scored by explicit loops.

    ``head`` is ``(W, E, alpha, fusion)`` for a hybrid model, with E dense
    (a zero row for an item without an embedding).  Warm items (count > 0)
    take the fused score; items with count 0 appear only with
    ``include_cold``, scored by the semantic term alone for a hybrid model
    and by the factor score otherwise.  Rows sort by (-score, item).
    """
    rows = []
    for i in range(len(Q)):
        warm = counts[i] > 0
        if not (warm or include_cold):
            continue
        cf = dot_naive(P[u], Q[i])
        if head is None:
            rows.append((i, cf, "cf"))
            continue
        W, E, alpha, fusion = head
        sem = dot_naive(P[u], matvec_naive(W, E[i]))
        if not warm:
            rows.append((i, sem, "cold-start"))
            continue
        cf_w = 1.0 if fusion == "additive" else 1.0 - alpha
        rows.append((i, cf_w * cf + alpha * sem, "cf+semantic"))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:k]


def build_dataset_reference(interactions, split_seed):
    """Per-row indexing and the seeded 70/15/15 split, as ``build_dataset`` once did it.

    Returns (user ids in index order, item ids in index order, [train,
    validation, test]) with each split as (users, items, ratings) arrays.
    """
    user_index, item_index = {}, {}
    for inter in interactions:
        user_index.setdefault(inter.user, len(user_index))
        item_index.setdefault(inter.item, len(item_index))
    u = np.array([user_index[inter.user] for inter in interactions], dtype=np.int64)
    i = np.array([item_index[inter.item] for inter in interactions], dtype=np.int64)
    r = np.array([inter.rating for inter in interactions], dtype=np.float64)
    n = len(u)
    perm = np.random.default_rng(split_seed).permutation(n)
    cuts = [0, 70 * n // 100, 85 * n // 100, n]
    splits = [
        (u[perm][lo:hi], i[perm][lo:hi], r[perm][lo:hi]) for lo, hi in zip(cuts, cuts[1:])
    ]
    return list(user_index), list(item_index), splits
