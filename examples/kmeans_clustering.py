"""Full k-means clustering through the host API.

Shows the `repro.host.Device` front door on a complete application: the
assignment step runs as a kernel on the simulated VGIW core (one thread
per point, loops over centres and dimensions with a running-minimum
branch — Rodinia kmeans' structure), the update step runs on the host,
and the loop iterates to convergence.  Every iteration is checked
against a straight numpy implementation.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.host import Device
from repro.ir import KernelBuilder

N_POINTS = 512
N_DIMS = 4
K = 3
ITERATIONS = 6


def assign_kernel():
    kb = KernelBuilder(
        "kmeans_assign", params=["points", "centers", "assign", "n", "k", "d"]
    )
    i = kb.tid()
    d = kb.param("d")
    with kb.if_(i < kb.param("n")):
        best = kb.var("best", 1e30)
        best_c = kb.var("best_c", 0)
        with kb.for_range(0, kb.param("k"), name="c") as c:
            dist = kb.var("dist", 0.0)
            with kb.for_range(0, d, name="j") as j:
                diff = kb.load(kb.param("points") + i * d + j) \
                    - kb.load(kb.param("centers") + c * d + j)
                kb.assign(dist, dist + diff * diff)
            with kb.if_(dist < best):
                kb.assign(best, dist)
                kb.assign(best_c, c)
        kb.store(kb.param("assign") + i, kb.i2f(best_c))
    return kb.build()


def numpy_assign(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def main():
    rng = np.random.default_rng(29)
    blobs = [
        rng.normal(loc=c, scale=0.4, size=(N_POINTS // K, N_DIMS))
        for c in (0.0, 3.0, -3.0)
    ]
    points = np.vstack(blobs)
    rng.shuffle(points)
    centers = points[rng.choice(len(points), K, replace=False)].copy()

    dev = Device("vgiw", memory_words=1 << 16)
    d_points = dev.array(points.ravel())
    d_centers = dev.array(centers.ravel())
    d_assign = dev.empty(len(points))
    kernel = assign_kernel()

    total = 0.0
    print(f"{'iter':>4s} {'cycles':>9s} {'moved':>6s} {'inertia':>10s}")
    prev = None
    for it in range(ITERATIONS):
        d_centers.write(centers.ravel())
        result = dev.launch(
            kernel, len(points),
            points=d_points, centers=d_centers, assign=d_assign,
            n=len(points), k=K, d=N_DIMS,
        )
        total += result.cycles
        assign = d_assign.to_numpy().astype(int)
        np.testing.assert_array_equal(assign, numpy_assign(points, centers))

        moved = int((assign != prev).sum()) if prev is not None else len(points)
        inertia = sum(
            ((points[assign == c] - centers[c]) ** 2).sum() for c in range(K)
        )
        print(f"{it:4d} {result.cycles:9.0f} {moved:6d} {inertia:10.2f}")
        prev = assign
        for c in range(K):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        if moved == 0:
            break

    print(f"\nconverged; {total:.0f} total VGIW cycles; assignments match "
          f"numpy every iteration")


if __name__ == "__main__":
    main()
