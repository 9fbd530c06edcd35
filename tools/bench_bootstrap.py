"""Time the bootstrap stream build: numpy's spawn loop against diffreg's derivation.

    python tools/bench_bootstrap.py [--repeats K] [--number R] [--out FILE]

For each (n, B) in CASES it builds the (B, n) block of wild multipliers of a
bootstrap test twice: by the reference loop
``wild_multipliers(n, default_rng(s)) for s in SeedSequence(seed).spawn(B)``
and by ``diffreg.gof.bootstrap_multipliers``.  It asserts that the two blocks
are equal bit for bit, then reports the minimum over K repeats of the mean
time of R calls, the two routes taking turns within each repeat, with BLAS
pinned to one thread, and writes the figures and the environment to FILE
(default BENCH_bootstrap_streams.json).
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from benchkit import best_ms, write_bench  # noqa: E402
from diffreg.gof import bootstrap_multipliers, wild_multipliers  # noqa: E402

CASES = ((200, 200), (2000, 200))
SEED = 20250101


def reference_multipliers(n: int, B: int, seed: int) -> np.ndarray:
    streams = np.random.SeedSequence(seed).spawn(B)
    return np.stack([wild_multipliers(n, np.random.default_rng(s)) for s in streams])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--number", type=int, default=20)
    parser.add_argument("--out", default="BENCH_bootstrap_streams.json")
    args = parser.parse_args(argv)

    cases = []
    for n, B in CASES:
        if not np.array_equal(reference_multipliers(n, B, SEED), bootstrap_multipliers(n, B, SEED)):
            raise SystemExit(f"n={n}, B={B}: the derived block differs from the spawned one")
        ref, new = best_ms(
            [lambda: reference_multipliers(n, B, SEED), lambda: bootstrap_multipliers(n, B, SEED)],
            args.repeats,
            args.number,
        )
        cases.append({
            "n": n,
            "B": B,
            "spawn_loop_ms": round(ref, 3),
            "derived_ms": round(new, 3),
            "speedup": round(ref / new, 2),
            "blocks_equal": True,
        })
        print(f"n={n:5d} B={B}: spawn loop {ref:.3f} ms, derived {new:.3f} ms, x{ref / new:.2f}")

    write_bench(args.out, {
        "label": "bootstrap_streams",
        "what": "build the (B, n) wild-multiplier block of one bootstrap test",
        "protocol": f"min of {args.repeats} alternating repeats of the mean of {args.number} calls, "
        f"seed {SEED}",
    }, cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
