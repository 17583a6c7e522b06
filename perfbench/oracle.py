"""Brute-force oracles for every output the benchmark checks.

Scores are recomputed from the arrays stored in the saved model file, lists
are ranked by a stable sort of the negated scores (so the lower item index
wins a tie), and the metrics are recounted from those lists.  Nothing here
calls the package's scoring, ranking or metric code.  Each check returns a
list of human-readable mismatches; an empty list means the output agrees.
"""

import json
import math

import numpy as np

K = 10
THRESHOLD = 4.0
# Scores agree when they differ only in summation order.
TOL = 1e-9
CHUNK_USERS = 256


class ModelFile:
    """The arrays of a saved model file, read without the package."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.user_ids = doc["users"]
        self.item_ids = doc["items"]
        self.user_index = {uid: n for n, uid in enumerate(self.user_ids)}
        self.P = np.array(doc["user_factors"], dtype=np.float64)
        self.Q = np.array(doc["item_factors"], dtype=np.float64)
        self.train_counts = np.array(doc["item_train_counts"], dtype=np.int64)
        self.hybrid = doc["mode"] == "hybrid"
        self.cf_w, self.sem_w = 1.0, 0.0
        if self.hybrid:
            W = np.array(doc["projection"], dtype=np.float64)
            E = np.zeros((len(self.Q), W.shape[1]))
            for i, vec in enumerate(doc["embeddings"]):
                if vec is not None:
                    E[i] = vec
            self.S = E @ W.T  # projected item embeddings, (n_items, k)
            alpha = doc["alpha"]
            self.cf_w = 1.0 - alpha if doc["fusion"] == "convex" else 1.0
            self.sem_w = alpha

    @property
    def n_items(self):
        return len(self.Q)

    def fused(self, users):
        """(len(users), n_items) fused scores."""
        scores = self.cf_w * (self.P[users] @ self.Q.T)
        if self.hybrid:
            scores += self.sem_w * (self.P[users] @ self.S.T)
        return scores

    def semantic(self, users):
        return self.P[users] @ self.S.T

    def predict_pairs(self, users, items):
        pred = self.cf_w * np.sum(self.P[users] * self.Q[items], axis=1)
        if self.hybrid:
            pred += self.sem_w * np.sum(self.P[users] * self.S[items], axis=1)
        return pred


def ranked(scores, allowed, k=K):
    """Indices of the k best allowed items, lower index first among equal scores."""
    candidates = np.flatnonzero(allowed)
    order = np.argsort(-scores[candidates], kind="stable")[:k]
    return candidates[order].tolist()


def _close(a, b):
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def same_ranking(got, want, scores, allowed):
    """True when ``got`` is ``want`` up to swaps of items whose scores tie."""
    if len(got) != len(want) or len(set(got)) != len(got):
        return False
    for g, w in zip(got, want):
        if g != w and not (0 <= g < len(scores) and allowed[g] and _close(scores[g], scores[w])):
            return False
    return True


def check_recommendations(model, requests):
    """Check ``recommend_for_user`` rows against brute force.

    ``requests`` holds (external user id, include_cold, rows) with rows as
    the (item, score, path) tuples the package returned.
    """
    problems = []
    warm = model.train_counts > 0
    users = np.array([model.user_index[uid] for uid, _, _ in requests], dtype=np.int64)
    for start in range(0, len(requests), CHUNK_USERS):
        chunk = users[start:start + CHUNK_USERS]
        fused = model.fused(chunk)
        semantic = model.semantic(chunk) if model.hybrid else None
        for row, (uid, include_cold, rows) in enumerate(requests[start:start + CHUNK_USERS]):
            scores = fused[row]
            labels = np.full(model.n_items, "cf+semantic" if model.hybrid else "cf", dtype=object)
            if model.hybrid:
                scores = np.where(warm, scores, semantic[row])
                labels[~warm] = "cold-start"
            allowed = warm | include_cold
            want = ranked(scores, allowed)
            got = [item for item, _, _ in rows]
            if not same_ranking(got, want, scores, allowed):
                problems.append(f"recommend {uid} cold={include_cold}: got {got}, want {want}")
                continue
            for item, score, path in rows:
                if not _close(score, scores[item]) or path != labels[item]:
                    problems.append(
                        f"recommend {uid}: item {item} score {score!r} path {path!r}, "
                        f"want {scores[item]!r} {labels[item]!r}"
                    )
                    break
    return problems


def recount_report(model, train, test):
    """Precision/recall/coverage@K and RMSE recomputed from brute-force lists.

    ``train`` is (users, items) and ``test`` (users, items, ratings) as
    dense index arrays of the split the report was computed on.
    """
    relevant = {}
    keep = test[2] >= THRESHOLD
    for u, i in zip(test[0][keep].tolist(), test[1][keep].tolist()):
        relevant.setdefault(u, set()).add(i)
    seen = {}
    for u, i in zip(train[0].tolist(), train[1].tolist()):
        seen.setdefault(u, []).append(i)
    users = sorted(relevant)
    hits = n_listed = 0
    listed = set()
    for start in range(0, len(users), CHUNK_USERS):
        chunk = users[start:start + CHUNK_USERS]
        scores = model.fused(np.array(chunk, dtype=np.int64))
        for row, u in enumerate(chunk):
            allowed = np.ones(model.n_items, dtype=bool)
            allowed[seen.get(u, [])] = False
            top = ranked(scores[row], allowed)
            hits += sum(1 for i in top if i in relevant[u])
            n_listed += len(top)
            listed.update(top)
    n_relevant = sum(len(items) for items in relevant.values())
    err = model.predict_pairs(test[0], test[1]) - test[2]
    return {
        "precision": hits / n_listed if n_listed else 0.0,
        "recall": hits / n_relevant,
        "coverage": len(listed) / model.n_items,
        "rmse": math.sqrt(float(np.sum(err * err)) / len(err)),
        "n_users_evaluated": len(users),
    }


def check_report(report, model, train, test, item_ids):
    """Compare an evaluation report (a dict) with the brute-force recount."""
    if list(item_ids) != model.item_ids:
        return ["model item ids differ from the data split's item ids"]
    want = recount_report(model, train, test)
    problems = []
    for key, value in want.items():
        got = report.get(key)
        if key == "rmse":
            ok = got is not None and _close(got, value)
        else:
            ok = got == value
        if not ok:
            problems.append(f"report {key}: got {got!r}, want {value!r}")
    return problems


def mean_baseline_rmse(train_ratings, test_ratings):
    """RMSE on the test split of always predicting the training mean."""
    mean = float(np.mean(train_ratings))
    return math.sqrt(float(np.mean((test_ratings - mean) ** 2)))
