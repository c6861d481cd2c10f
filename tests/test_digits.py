"""Every printed digit of the closed-form rows against a 40-digit reference.

Each row's optimum is recomputed with mpmath at 40 digits from its model's
closed form, and the 12 significant digits the CSV prints,
``f"{value:.12g}"``, must be that reference correctly rounded.  A CHSH
correlator floor - scale cos 2(a + b) or amp cos 2(a - b) has the maximum
B* = 2 floor + 2 sqrt(2) scale (with floor = 0, scale = amp for the second),
and the two-level LG probe has 2 sqrt(2) e^(-V/2).

Every row of the ECS efficiency and reference jobs and of the lg-nonclassical
job is checked.  The generic-ref and photon rows run the CHSH lattice, so
only the first and last V of each of their series are, each as a
single-point sweep.
"""

import decimal
from pathlib import Path

import mpmath
import pytest

from coarsebell.sweep import parse_job, run_sweep

JOBS = Path(__file__).resolve().parents[1] / "jobs"
mp = mpmath.mp


def tsirelson(floor, scale):
    return 2 * floor + 2 * mp.sqrt(2) * scale


def ecs_overlap(alpha):
    return 1 + mp.exp(-4 * alpha**2)


def photon_optimum(params, V):
    miss = (1 - params["eta"]) ** int(params["n"])
    return tsirelson(miss**2, (1 - miss) ** 2 * mp.exp(-4 * V))


# system -> (series params as mpf, sweep value as mpf) -> the exact optimum
REFERENCE = {
    "ecs-eta": lambda p, eta: tsirelson(
        0, mp.erf(mp.sqrt(2 * eta) * p["alpha"]) ** 2 / ecs_overlap(p["alpha"])
    ),
    "ecs-ref": lambda p, V: tsirelson(
        0, mp.exp(-4 * V) * mp.erf(mp.sqrt(2) * p["alpha"]) ** 2 / ecs_overlap(p["alpha"])
    ),
    "lg-nonclassical": lambda p, V: 2 * mp.sqrt(2) * mp.exp(-V / 2),
    "generic-ref": lambda p, V: tsirelson(0, mp.exp(-4 * V)),
    "photon": photon_optimum,
}

# the jobs whose every row is checked, and those checked at the ends of each series
EVERY_ROW = ("ecs_efficiency.job", "ecs_reference.job", "lg_nonclassical.job")
END_ROWS = ("generic_reference.job", "photon_n1.job")


def optimised_rows(spec, every_row: bool):
    """(series params, sweep value, optimum) of each row of ``spec`` that is checked."""
    if every_row:
        params = {s.label: s.params for s in spec.series}
        return [(params[r.series], r.sweep_value, r.value) for r in run_sweep(spec).rows]
    rows = []
    for series in spec.series:
        for v in (spec.vmin, spec.vmax):
            point = spec._replace(vmin=v, vmax=v, steps=1, series=(series,))
            rows.append((series.params, v, run_sweep(point).rows[0].value))
    return rows


def rounded_reference(system: str, params: dict, value: float) -> decimal.Decimal:
    """The optimum at 40 digits, correctly rounded to 12 significant digits."""
    with mp.workdps(40):
        exact = REFERENCE[system]({k: mp.mpf(v) for k, v in params.items()}, mp.mpf(value))
        digits = mpmath.nstr(exact, 35)
    return decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN).plus(decimal.Decimal(digits))


@pytest.mark.parametrize("name", EVERY_ROW + END_ROWS)
def test_every_printed_digit_of_a_closed_form_row_is_right(name):
    spec = parse_job((JOBS / name).read_text())
    every_row = name in EVERY_ROW
    rows = optimised_rows(spec, every_row)
    assert len(rows) == len(spec.series) * (spec.steps if every_row else 2)
    wrong = []
    for params, v, value in rows:
        want = rounded_reference(spec.system, params, v)
        if decimal.Decimal(f"{value:.12g}") != want:
            wrong.append((params, v, f"{value:.12g}", str(want)))
    assert wrong == []
