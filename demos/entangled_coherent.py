"""Entangled coherent states: where amplitude helps and where it does not.

The sign of a homodyne position quadrature, read on each of a pair of
entangled coherent beams, gives a CHSH correlation E = A cos 2(a - b).  The
demo contrasts three readings of the amplitude alpha:

* detector efficiency eta: growing alpha compensates arbitrarily poor
  detectors (A -> 1 even at eta = 0.05),
* reference jitter V: the optimized value is exactly 2 sqrt(2) exp(-4V)
  for every alpha -- no compensation at all,
* homodyne-angle averaging: a Gaussian spread of the measured quadrature
  angle interpolates between the two, with the erf response flattening
  the penalty at large alpha.
"""

import math
from pathlib import Path

from scipy.special import erf

from coarsebell import (
    Correlator,
    EcsParams,
    corr_ecs_efficiency,
    corr_ecs_homodyne_angle,
    corr_ecs_reference,
    homodyne_angle_average,
    maximize_chsh,
)
from coarsebell.sweep import SweepSpec, SeriesSpec, emit_csv, emit_svg, run_sweep

OUT = Path(__file__).resolve().parent / "out"
STARTS = 16
ALPHAS = (5.0, 10.0, 30.0)


def optimized(corr_fn) -> float:
    return maximize_chsh(Correlator(fn=corr_fn), starts=STARTS).value


def main() -> None:
    OUT.mkdir(exist_ok=True)

    eta = 0.05
    print(f"= amplitude beats inefficiency (eta = {eta}) =")
    for alpha in ALPHAS:
        p = EcsParams(alpha=alpha, eta=eta)
        got = optimized(lambda a, b: corr_ecs_efficiency(a, b, p))
        closed = (
            2.0
            * math.sqrt(2.0)
            * erf(math.sqrt(2.0 * eta) * alpha) ** 2
            / (1.0 + math.exp(-4.0 * alpha * alpha))
        )
        print(f"  alpha={alpha:5.1f}: B = {got:.9f} (closed form {closed:.9f})")

    print()
    print("= amplitude cannot beat reference jitter =")
    V = 0.25
    for alpha in ALPHAS:
        p = EcsParams(alpha=alpha, Delta=math.sqrt(V))
        got = optimized(lambda a, b: corr_ecs_reference(a, b, p))
        print(f"  alpha={alpha:5.1f}, V={V}: B = {got:.9f}")
    print(f"  2*sqrt(2)*exp(-4V)     = {2 * math.sqrt(2) * math.exp(-4 * V):.9f}")

    print()
    print("= homodyne-angle averaging sits in between =")
    for alpha in (5.0, 30.0):
        for V in (0.09, 0.36):
            p = EcsParams(alpha=alpha, Delta=math.sqrt(V))
            got = optimized(lambda a, b: corr_ecs_homodyne_angle(a, b, p))
            avg = homodyne_angle_average(alpha, math.sqrt(V))
            print(f"  alpha={alpha:5.1f}, V={V:.2f}: B = {got:.6f} (angle response {avg:.6f})")

    spec = SweepSpec(
        system="ecs-eta",
        variable="eta",
        vmin=0.0,
        vmax=1.0,
        steps=11,
        series=tuple(
            SeriesSpec(label=f"alpha={a:g}", params={"alpha": a}) for a in ALPHAS
        ),
    )
    result = run_sweep(spec, starts=STARTS)
    emit_csv(result, OUT / "ecs_efficiency.csv")
    emit_svg(result, OUT / "ecs_efficiency.svg", title="ECS vs detector efficiency")
    print()
    print(f"wrote {OUT / 'ecs_efficiency.csv'} and .svg")


if __name__ == "__main__":
    main()
