"""Time one cold start of qmcrisk in this fresh interpreter.

Imports the package, builds the SAN model and finishes the lazy set-up the
workloads need (direction numbers, the scramble and shift paths, one model
evaluation and one estimate), then prints the elapsed seconds.

usage: python3 bench/setup_probe.py SRC_DIR
"""

import sys
import time


def warm_up(q) -> None:
    """Run every code path the workloads use once, on two points."""
    model = q.SanModel()
    q.sample_points("rqmc-shift", 2, model.dim, seed=0)
    q.sample_points("mc", 2, model.dim, seed=0)
    batch = q.SampleBatch(model.evaluate(q.sample_points("rqmc-owen", 2, model.dim, seed=0)))
    q.shortfall_estimate(batch, 0.5)


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import qmcrisk

    warm_up(qmcrisk)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
