"""Per-point spans of a sweep, and the per-layer microbenchmarks of the traced run.

``PointHook`` wraps ``maximize_chsh`` and ``maximize_lg`` where
``coarsebell.sweep`` looks them up, so that while ``run_sweep`` runs, each
optimiser call ends one point.  A point runs from the end of the previous
point (or the start of the sweep) to the end of its optimiser call, and so
holds everything ``run_sweep`` does for it.  It is split into two stretches:

* build: from the point's start to the optimiser's entry (the parameter
  checks and the model's construction, where the cold Fock fit is paid); in
  the traced run also one timed evaluation of the correlator, so that lazy
  caches paid at the first evaluation count as build too, and
* optimise: the maximisation itself, with its evaluation count.

``microbenchmarks`` times single layers directly at seeded inputs.  Every
time here comes from the yardstick's sampler, with the time its handler
spent inside the span taken out, like the end-to-end units.
"""

from __future__ import annotations

import math
import random

import yardstick

_FIRST_ARGS = {"maximize_chsh": (0.3, 0.7), "maximize_lg": (0.9,)}


class PointHook:
    def __init__(self, clock: yardstick.Sampler, traced: bool) -> None:
        self.clock = clock
        self.traced = traced
        self.points: list[dict] = []
        self._last = None

    def install(self) -> None:
        import coarsebell.sweep as sweep_module

        for name in _FIRST_ARGS:
            setattr(sweep_module, name, self._wrap(name, getattr(sweep_module, name)))

    def _wrap(self, name, fn):
        first_args = _FIRST_ARGS[name]

        def hooked(correlator, starts=None):
            if self.traced:
                correlator(*first_args)
            built = self.clock.mark()
            res = fn(correlator, starts=starts)
            end = self.clock.mark()
            build = self.clock.between(self._last, built)
            optimize = self.clock.between(built, end)
            self.points.append({
                "raw": build["raw"] + optimize["raw"],
                "wall": build["wall"] + optimize["wall"],
                "build": build,
                "optimize": optimize,
                "value": res.value,
                "argmax": list(res.argmax),
                "evaluations": res.evaluations,
                "converged": res.converged,
            })
            self._last = end
            return res

        return hooked

    def start(self) -> None:
        """Begin a sweep: the first point starts here."""
        self.points = []
        self._last = self.clock.mark()


def _per_call(clock, fn, arg_list, reps: int) -> dict:
    """Seconds per call of ``fn`` over ``arg_list`` (already warm), as one sample."""
    for args in arg_list:
        fn(*args)

    def block():
        for _ in range(reps):
            for args in arg_list:
                fn(*args)

    _, sample = clock.time(block)
    sample["raw"] /= reps * len(arg_list)
    return sample


def _timed(clock, fn, *args) -> dict:
    return clock.time(fn, *args)[1]


def microbenchmarks(clock, seed: int, short: bool = False) -> dict:
    """Raw samples for every single-layer metric; run.py rescales and reduces them."""
    from coarsebell import (
        EcsParams,
        FockDensityMatrix,
        GenericParams,
        PhotonParams,
        SpinParams,
        build_psi_n,
        corr_ecs_efficiency,
        corr_fuzzy_detector,
        corr_spin_parity,
        homodyne_angle_average,
        loss_channel,
        photon_correlator,
        rotate_polarization,
    )

    rng = random.Random(f"micro:{seed}")
    samples = 3 if short else 5
    angle_pairs = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)) for _ in range(200)]
    gaps = [(rng.uniform(0.0, 2.0 * math.pi),) for _ in range(200)]
    out = {}

    gp = GenericParams(n=3, delta=math.sqrt(rng.uniform(0.5, 3.0)))
    out["generic.call"] = [
        _per_call(clock, lambda a, b: corr_fuzzy_detector(a, b, gp), angle_pairs, 30)
        for _ in range(samples)
    ]
    ep = EcsParams(alpha=5.0, eta=rng.uniform(0.2, 1.0))
    out["ecs.call"] = [
        _per_call(clock, lambda a, b: corr_ecs_efficiency(a, b, ep), angle_pairs, 30)
        for _ in range(samples)
    ]
    sp = SpinParams(j=10.5, Delta=math.sqrt(rng.uniform(0.2, 1.2)))
    out["leggett_garg.call"] = [
        _per_call(clock, lambda t: corr_spin_parity(t, sp), gaps, 30) for _ in range(samples)
    ]
    corr = photon_correlator(PhotonParams(n=2, eta=rng.uniform(0.9, 1.0), Delta=0.5))
    out["photon.call"] = [_per_call(clock, corr, angle_pairs, 30) for _ in range(samples)]

    out["ecs.homodyne"] = [
        _timed(clock, homodyne_angle_average, rng.uniform(5.0, 30.0), math.sqrt(rng.uniform(0.05, 0.64)))
        for _ in range(samples)
    ]
    out["photon.fit"] = [
        _timed(clock, photon_correlator, PhotonParams(n=3, eta=rng.uniform(0.9, 1.0)))
        for _ in range(1 if short else 3)
    ]
    rho = build_psi_n(3)
    out["photon.rotate"] = [
        _timed(clock, rotate_polarization, rho, "a", rng.uniform(0.0, math.pi), 3) for _ in range(samples)
    ]
    out["photon.loss"] = [
        _timed(clock, loss_channel, rho, k % 4, rng.uniform(0.9, 1.0)) for k in range(samples)
    ]
    out["photon.state_check"] = [
        _timed(clock, FockDensityMatrix, rho.entries, 3) for _ in range(samples)
    ]
    return out
