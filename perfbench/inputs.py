"""Seeded inputs for the three workloads, as coarsebell job-file texts.

A run is a fixed number of rounds; a round is a list of jobs, each parsed,
swept point by point and emitted like a ``coarsebell sweep`` job.  The
series parameters are those of the shipped ``jobs/*.job`` files; the swept
values come from the seed.  Every swept value is drawn by stratified
sampling across the run's rounds (each round takes its own stratum of the
range, in a seeded order), so every run covers each range evenly and the
work in a run does not drift with the seed.  Nothing here imports
coarsebell: the program receives only the generated texts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("chsh-sweep", "lg-sweep", "photon-fock")

# Points in one round.
POINTS_PER_ROUND = {"chsh-sweep": 10, "lg-sweep": 11, "photon-fock": 11}

# A run has at least this many points, so that its tail percentile has ten
# points beyond it.  This, not --seconds, sets the length of a run: 4 rounds
# of every workload.
MIN_POINTS = 40

# Multistart lattice size for photon-fock: 16 starts keep the optimiser's
# share small, so the cold Fock fits dominate that workload.
PHOTON_STARTS = 16

# Cold n = 3 photon fits in one photon-fock round (see _photon_round).
COLD_N3_PER_ROUND = 3


@dataclass(frozen=True)
class Job:
    text: str
    starts: int | None = None


def rounds_for(workload: str, short: bool = False) -> int:
    """Number of rounds in a run: the fewest that give MIN_POINTS points (one if ``short``)."""
    if short:
        return 1
    return math.ceil(MIN_POINTS / POINTS_PER_ROUND[workload])


class _Draws:
    """Seeded draws for round ``r`` of a run of ``rounds`` rounds."""

    def __init__(self, workload: str, seed: int, r: int, rounds: int) -> None:
        self._key = f"{workload}:{seed}"
        self._r = r
        self._rounds = rounds
        self._rng = random.Random(f"{self._key}:round:{r}")

    def stratified(self, name: str, lo: float, hi: float) -> float:
        """A value in [lo, hi) from this round's stratum of the range for ``name``."""
        order = list(range(self._rounds))
        random.Random(f"{self._key}:{name}").shuffle(order)
        u = random.Random(f"{self._key}:{name}:{self._r}").random()
        return lo + (hi - lo) * (order[self._r] + u) / self._rounds

    def choice(self, options):
        return self._rng.choice(options)

    def sample(self, options, k: int):
        return self._rng.sample(options, k)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)


def _job(system: str, vmin: float, vmax: float, steps: int, series: list[tuple[str, dict]]) -> str:
    lines = [
        f"# generated input for the {system} system",
        f"system = {system}",
        f"sweep.min = {vmin!r}",
        f"sweep.max = {vmax!r}",
        f"sweep.steps = {steps}",
    ]
    for i, (label, params) in enumerate(series):
        lines.append(f"series[{i}].label = {label}")
        for name, value in params.items():
            lines.append(f"series[{i}].params.{name} = {value!r}")
    return "\n".join(lines) + "\n"


def _chsh_round(d: _Draws) -> list[Job]:
    n1, n2 = sorted(d.sample(range(1, 6), 2))
    v_delta = d.stratified("generic-delta.V", 0.0, 6.0)
    v_ref = d.stratified("generic-ref.V", 0.0, 0.5)
    n_ref = d.choice((2, 3, 5))
    eta = d.stratified("ecs-eta.eta", 0.0, 1.0)
    v_ecs = d.stratified("ecs-ref.V", 0.0, 1.0)
    alpha_ref = d.choice((10.0, 30.0))
    v_hom = d.stratified("ecs-homodyne.V", 0.0, 0.32)
    alpha_hom = d.choice((5.0, 10.0, 30.0))
    return [
        Job(_job("generic-delta", v_delta, v_delta, 1,
                 [(f"n={n1}", {"n": n1}), (f"n={n2}", {"n": n2})])),
        Job(_job("generic-ref", v_ref, v_ref + 0.5, 3, [(f"n={n_ref}", {"n": n_ref})])),
        Job(_job("ecs-eta", eta, eta, 1,
                 [(f"alpha={a:g}", {"alpha": a}) for a in (5.0, 30.0)])),
        Job(_job("ecs-ref", v_ecs, v_ecs, 1, [(f"alpha={alpha_ref:g}", {"alpha": alpha_ref})])),
        Job(_job("ecs-homodyne", v_hom, v_hom + 0.32, 2,
                 [(f"alpha={alpha_hom:g}", {"alpha": alpha_hom})])),
    ]


def _half_integer(d: _Draws, lo: float, hi: float) -> float:
    return d.choice([k / 2.0 for k in range(round(2 * lo), round(2 * hi) + 1)])


# lg-spin at j = 5/2, V = 0 is a row of the shipped lg_spin.job.  The 27-start
# optimiser returns 2.0806 there while the correlator reaches 2.4770, so this
# point fails its check every time; it is kept, seed-independent, so the
# benchmark shows the fault until it is mended.
KNOWN_FAILING_LG = ("lg-spin", 2.5, 0.0)


def _lg_round(d: _Draws) -> list[Job]:
    js = [0.5, _half_integer(d, 1.0, 5.0), _half_integer(d, 5.5, 15.0), _half_integer(d, 15.5, 50.0)]
    v_spin = d.stratified("lg-spin.V", 0.2, 0.7)
    v_nc = d.stratified("lg-nonclassical.V", 0.0, 0.75)
    system, j_fail, v_fail = KNOWN_FAILING_LG
    return [
        Job(_job("lg-spin", v_spin, v_spin + 0.5, 2, [(f"j={j:g}", {"j": j}) for j in js])),
        Job(_job("lg-nonclassical", v_nc, v_nc + 0.75, 2, [("any j", {"j": 0.5})])),
        Job(_job(system, v_fail, v_fail, 1, [(f"j={j_fail:g}", {"j": j_fail})])),
    ]


def _photon_round(d: _Draws) -> list[Job]:
    """A job at n = 1, 2, 3 over three V, then one at n = 3 alone, every series with its own eta.

    A photon correlator is fitted once per (n, eta), so every series pays one
    cold fit at its first point.  A cold n = 3 fit costs several times an
    optimised point, and a round has COLD_N3_PER_ROUND of them; over a run
    that is more than the ten points beyond the tail percentile, so
    ``point_s.tail`` is a cold n = 3 point while the median stays among the
    warm ones.
    """
    v_min = d.stratified("photon.V", 0.0, 0.5)
    mixed = []
    for n in (1, 2, 3):
        eta = d.uniform(0.9, 1.0)
        mixed.append((f"n={n} eta={eta:.6f}", {"n": n, "eta": eta}))
    v_cold = d.stratified("photon-cold.V", 0.0, 1.0)
    cold = []
    for _ in range(COLD_N3_PER_ROUND - 1):
        eta = d.uniform(0.9, 1.0)
        cold.append((f"n=3 eta={eta:.6f}", {"n": 3, "eta": eta}))
    return [
        Job(_job("photon", v_min, v_min + 0.5, 3, mixed), starts=PHOTON_STARTS),
        Job(_job("photon", v_cold, v_cold, 1, cold), starts=PHOTON_STARTS),
    ]


_ROUNDS = {"chsh-sweep": _chsh_round, "lg-sweep": _lg_round, "photon-fock": _photon_round}


def make_round(workload: str, seed: int, r: int, rounds: int) -> list[Job]:
    """The jobs of round ``r`` (0-based) of a run with ``rounds`` rounds."""
    return _ROUNDS[workload](_Draws(workload, seed, r, rounds))
