"""Reference kernels: fixed work that calls no kamtori code, timed after
every pass of a workload so that its pass times can be given in units of it.

The host the benchmark runs on is shared, and the speed it gives one process
drifts by tens of percent over minutes. Work of different kinds drifts
differently: pure-Python and small-array code slows by up to 1.7x where a
memory-bound sweep slows by 1.1x. So each workload names the kernel of its
own kind (``Workload.reference``):

- ``compute``: batched short and long FFTs, batched 2x2 inverses and a
  pure-Python loop, like the Newton and jet layers (about 25 ms);
- ``memory``: a broadcast distance-and-argmax sweep over preallocated 24 MB
  arrays, like the atlas classification (about 27 ms).

On a 2-vCPU x86-64 host, over 30 s windows, breakdown pass time / compute
kernel time spread by 1.6% where the raw pass time spread by 9%, and atlas
pass time / memory kernel time by 1% across processes.
"""

from __future__ import annotations

import time


def compute_kernel(np):
    """Returns a function that runs the compute kernel once and gives its
    wall time."""
    rng = np.random.default_rng(0)
    short, long_ = rng.random((8, 256)), rng.random((16, 8192))
    mats = rng.random((3000, 2, 2)) + 3.0 * np.eye(2)

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            np.fft.rfft(short, axis=1)
        for _ in range(5):
            np.fft.irfft(np.fft.rfft(long_, axis=1), axis=1)
        for _ in range(10):
            np.linalg.inv(mats)
        total = 0
        for i in range(15000):
            total += i
        return time.perf_counter() - t0

    return run


def memory_kernel(np):
    """Returns a function that runs the memory kernel once and gives its wall
    time. Its buffers are allocated once, so the time holds no page faults."""
    rng = np.random.default_rng(0)
    roots = rng.random(4096) + 1j * rng.random(4096)
    points = rng.random(256) + 1j * rng.random(256)
    weight = rng.random(4096)
    diff = np.empty((points.size, roots.size), dtype=complex)
    dist = np.empty((points.size, roots.size))

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.subtract(roots[None, :], points[:, None], out=diff)
            np.abs(diff, out=dist)
            np.divide(weight[None, :], dist, out=dist)
            np.argmax(dist, axis=1)
        return time.perf_counter() - t0

    return run


KERNELS = {"compute": compute_kernel, "memory": memory_kernel}
