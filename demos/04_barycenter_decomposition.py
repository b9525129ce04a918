"""The covariance barycenter behind the avg aggregation, and the limits of
its decomposition.

The avg Gaussian-distance aggregate is minimized by the 2-Wasserstein
barycenter of the clients.  Splitting the aggregate into "distance to
the barycenter" plus a generator-independent constant is exact when the
client and generator covariances all commute (e.g. all diagonal); on
general covariances the split leaves a remainder
2 [T(C, G) - sum_i w_i T(C_i, G)] with T(A, B) = Tr((A^1/2 B A^1/2)^1/2),
and this demo measures how large it is.
"""

import numpy as np

from fedeval import (
    Client,
    ClientSet,
    GaussianModel,
    GaussianStats,
    barycenter,
    fid_avg,
    fid_avg_decomposition,
    psd_sqrt,
)

rng = np.random.default_rng(42)

# --- commuting case: closed form and exact split ---------------------------
diag_clients = ClientSet(
    [
        Client(id="a", weight=0.5, stats=GaussianStats(n=10, mean=[0.0, 0.0], cov=np.diag([1.0, 4.0]))),
        Client(id="b", weight=0.5, stats=GaussianStats(n=10, mean=[0.0, 0.0], cov=np.diag([9.0, 1.0]))),
    ]
)
solution = barycenter(diag_clients)
closed = (0.5 * psd_sqrt(np.diag([1.0, 4.0])) + 0.5 * psd_sqrt(np.diag([9.0, 1.0]))) ** 2
print("commuting barycenter:", np.diag(solution.cov), "closed form:", np.diag(closed))

g = GaussianModel(mean=[1.0, -1.0], cov=np.diag([2.0, 2.0]))
dec = fid_avg_decomposition(diag_clients, g)
avg = fid_avg(diag_clients, g).value
print(f"avg = {avg:.12f}")
print(f"barycenter part + const part = {dec.barycenter_part + dec.const_part:.12f} (exact here)")

# --- general covariances: the split deviates --------------------------------
def random_cov(d):
    a = rng.normal(size=(d, d + 2))
    return a @ a.T / (d + 2)

general = ClientSet(
    [
        Client(id=f"c{i}", stats=GaussianStats(n=10, mean=rng.normal(size=4), cov=random_cov(4)))
        for i in range(3)
    ]
)
g = GaussianModel(mean=rng.normal(size=4), cov=random_cov(4))
avg = fid_avg(general, g).value
dec = fid_avg_decomposition(general, g)
split = dec.barycenter_part + dec.const_part
print("\nnon-commuting covariances:")
print(f"avg aggregate        = {avg:.8f}")
print(f"barycenter split sum = {split:.8f}")
print(f"relative deviation   = {abs(avg - split) / avg:.2e}  (curvature term, not roundoff)")
print("solver residual:", dec.solution.residual, "iterations:", dec.solution.iterations)
