"""The per-centroid distance formula that `geometry.min_centroid_distances`
replaced, kept as an oracle.

It allocates a fresh (n, d) difference for each centroid. The kernel runs
in row blocks through one reused buffer and must give equal distances, bit
for bit.
"""

import numpy as np


def min_centroid_distances(points, centers):
    sq = np.full(len(points), np.inf)
    for c in centers:
        sq = np.minimum(sq, ((points - c) ** 2).sum(axis=1))
    return np.sqrt(sq)
