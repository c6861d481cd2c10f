"""How much the host's two speed levels slow each kind of work, against the yardstick.

Usage, from the root of a checkout (not part of a benchmark run)::

    python3 perfbench/calibrate.py --seconds 60

Times short pieces of coarsebell's work, each right after a timed pass of
the interp kernel, and sorts every piece by that pass: fast if it took less
than FAST x the shortest pass seen, slow if more than SLOW x.  For each piece
it prints the median time at each level and their ratio, beside the interp
kernel's own ratio over the same pieces.  A piece that slows by the ratio of
the kernel that rescales it is rescaled right whatever level the host is in
(README.md, "Rescaling").  The pieces run with one BLAS thread, as in a
benchmark run; a run needs the host to visit both levels.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import yardstick  # noqa: E402

FAST, SLOW = 1.3, 1.6


def pieces() -> dict:
    from coarsebell import (
        GenericParams,
        PhotonParams,
        SpinParams,
        build_psi_n,
        corr_fuzzy_detector,
        corr_spin_parity,
        loss_channel,
        optimized_point,
        photon_correlator,
        rotate_polarization,
    )

    gp, sp = GenericParams(n=3, delta=0.7), SpinParams(j=10.5, Delta=0.5)
    corr = photon_correlator(PhotonParams(n=2, eta=0.95, Delta=0.5))
    rho = build_psi_n(3)
    return {
        "interp kernel": yardstick.kernel,
        "dense kernel": yardstick.dense_kernel,
        "optimiser (generic-ref, 1 start)": lambda: optimized_point("generic-ref", {"n": 2, "V": 0.3}, starts=1),
        "corr_fuzzy_detector x150": lambda: [corr_fuzzy_detector(0.01 * k, 0.3, gp) for k in range(150)],
        "corr_spin_parity x40": lambda: [corr_spin_parity(0.01 * k, sp) for k in range(40)],
        "photon correlator x150": lambda: [corr(0.01 * k, 0.3) for k in range(150)],
        "loss_channel n=3": lambda: loss_channel(rho, 1, 0.93),
        "rotate_polarization n=3": lambda: rotate_polarization(rho, "a", 0.37, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    work = pieces()
    rows = {name: [] for name in work}
    end = time.time() + args.seconds
    while time.time() < end:
        for name, fn in work.items():
            yardstick.kernel()
            t0 = time.thread_time()
            yardstick.kernel()
            k = time.thread_time() - t0
            fn()
            t0 = time.thread_time()
            fn()
            rows[name].append((k, time.thread_time() - t0))
    shortest = min(k for r in rows.values() for k, _ in r)
    print(f"{'piece':34s} {'n fast':>6s} {'n slow':>6s} {'fast ms':>9s} {'slow ms':>9s} {'ratio':>6s} {'kernel':>6s}")
    for name, r in rows.items():
        fast = [(k, t) for k, t in r if k < FAST * shortest]
        slow = [(k, t) for k, t in r if k > SLOW * shortest]
        if not fast or not slow:
            print(f"{name:34s} {len(fast):6d} {len(slow):6d}  (the host did not visit both levels)")
            continue
        tf, ts = (statistics.median(t for _, t in s) for s in (fast, slow))
        kf, ks = (statistics.median(k for k, _ in s) for s in (fast, slow))
        print(f"{name:34s} {len(fast):6d} {len(slow):6d} {tf * 1e3:9.3f} {ts * 1e3:9.3f} {ts / tf:6.2f} {ks / kf:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
