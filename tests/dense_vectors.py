"""Dense-list vector helpers, kept as the tests' oracles of sparse rows.

The package works on {index: value} rows; these are the dense operations
it used before, for checks such as U * A * V == D and for oracles that
sum dense vectors.
"""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def add_scaled(acc, vec, scale=1):
    """acc += scale * vec in place, skipping zero entries; returns acc."""
    if scale:
        for j, v in enumerate(vec):
            if v:
                acc[j] += scale * v
    return acc


def vec_mat(x, B):
    acc = [0] * (len(B[0]) if B else 0)
    for a, brow in zip(x, B):
        if a:
            add_scaled(acc, brow, a)
    return acc
