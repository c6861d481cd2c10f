"""Every printed digit of the closed-form rows against a 40-digit reference.

Each row's optimum is recomputed with mpmath at 40 digits from its model's
closed form, and the 12 significant digits the CSV prints,
``f"{value:.12g}"``, must be that reference correctly rounded.  A CHSH
correlator floor - scale cos 2(a + b) or amp cos 2(a - b) has the maximum
B* = 2 floor + 2 sqrt(2) scale (with floor = 0, scale = amp for the second),
and the two-level LG probe has 2 sqrt(2) e^(-V/2).  For generic-delta,
floor = S^2 and scale = A^2, with S and A the even and odd parts of the
smeared signs of +n and -n over the renormalised discrete Gaussian of
variance V on the code's window, max(1, ceil(8 sqrt(V))) integers either side
of zero.  For lg-spin, the maximum of K over the three gaps is a stationary
point of K on the torus of its period; Newton's method finds it from the best
point of a 3-D lattice scan, so the program's own argmax plays no part.

Every row of the ECS efficiency and reference jobs and of the lg-nonclassical
job is checked.  The generic-delta, generic-ref, photon and lg-spin rows run
a search, so only the first and last V of each of their series are, each as a
single-point sweep.

Every row of the ecs-homodyne job is checked too, in double precision and
without the package's quadrature: its amplitude is I^2 / (1 + e^(-4 alpha^2))
with I(alpha, V) = sum over odd h of c_h(alpha) e^(-h^2 V / 2), the Gaussian
average of the Fourier series of erf(sqrt(2) alpha cos lambda) = sum c_h cos h lambda.
"""

import decimal
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

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


def generic_delta_optimum(params, V):
    n = int(params["n"])
    if V == 0:
        weights = {0: mp.mpf(1)}
    else:
        k_max = max(1, math.ceil(8.0 * math.sqrt(float(V))))
        raw = {k: mp.exp(-k * k / (2 * V)) for k in range(-k_max, k_max + 1)}
        total = mp.fsum(raw.values())
        weights = {k: w / total for k, w in raw.items()}

    def smeared_sign(m):
        return mp.fsum(w if m - k >= 1 else -w for k, w in weights.items())

    up, down = smeared_sign(n), smeared_sign(-n)
    return tsirelson(((up + down) / 2) ** 2, ((up - down) / 2) ** 2)


def lg_spin_optimum(params, V):
    """max K, K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3), by Newton on grad K = 0.

    C(tau) = sum_m a_m cos(w_m tau) over m = -j..j, with a_m = exp(-2 m^2 V) / (2j + 1)
    and w_m = 2 m omega, has period 2 pi / omega in tau, so K has it in each gap.
    The Newton solve starts from the best of the 64^3 lattice points of one
    period per gap, evaluated in floats.
    """
    scan = 64
    j, omega = params["j"], params.get("omega", mp.mpf(1))
    ms = [k - j for k in range(int(2 * j) + 1)]
    amps = [mp.exp(-2 * m * m * V) / (2 * j + 1) for m in ms]
    freqs = [2 * m * omega for m in ms]

    def deriv(tau, order):  # the order-th derivative of C
        shift = order * mp.pi / 2
        return mp.fsum(a * w**order * mp.cos(w * tau + shift) for a, w in zip(amps, freqs))

    tau = np.arange(scan) * (2 * math.pi / float(omega) / scan)
    c = np.cos(np.multiply.outer(tau, np.array(freqs, dtype=float))) @ np.array(amps, dtype=float)
    i = np.arange(scan)
    lattice = c[:, None, None] + c[None, :, None] + c[None, None, :]
    lattice -= c[(i[:, None, None] + i[None, :, None] + i[None, None, :]) % scan]
    gaps = [mp.mpf(float(tau[k])) for k in np.unravel_index(np.argmax(lattice), lattice.shape)]
    for _ in range(30):
        total = mp.fsum(gaps)
        grad = mp.matrix([deriv(g, 1) - deriv(total, 1) for g in gaps])
        curv = deriv(total, 2)
        hess = mp.matrix(
            [[(deriv(g, 2) if r == s else 0) - curv for s in range(3)] for r, g in enumerate(gaps)]
        )
        step = mp.lu_solve(hess, grad)
        gaps = [g - dg for g, dg in zip(gaps, step)]
        if mp.norm(step) < mp.mpf(10) ** (5 - mp.dps):
            break
    else:
        raise AssertionError(f"Newton did not converge from the scan at j={j}, V={V}")
    value = mp.fsum(deriv(g, 0) for g in gaps) - deriv(mp.fsum(gaps), 0)
    # a saddle or a lesser maximum would lie below the scan's best point
    assert value >= lattice.max() - 1e-12
    return value


# system -> (series params as mpf, sweep value as mpf) -> the exact optimum
REFERENCE = {
    "ecs-eta": lambda p, eta: tsirelson(
        0, mp.erf(mp.sqrt(2 * eta) * p["alpha"]) ** 2 / ecs_overlap(p["alpha"])
    ),
    "ecs-ref": lambda p, V: tsirelson(
        0, mp.exp(-4 * V) * mp.erf(mp.sqrt(2) * p["alpha"]) ** 2 / ecs_overlap(p["alpha"])
    ),
    "lg-nonclassical": lambda p, V: 2 * mp.sqrt(2) * mp.exp(-V / 2),
    "generic-delta": generic_delta_optimum,
    "generic-ref": lambda p, V: tsirelson(0, mp.exp(-4 * V)),
    "photon": photon_optimum,
    "lg-spin": lg_spin_optimum,
}

# the jobs whose every row is checked, and those checked at the ends of each series
EVERY_ROW = ("ecs_efficiency.job", "ecs_reference.job", "lg_nonclassical.job")
END_ROWS = (
    "generic_final_resolution.job", "generic_reference.job", "photon_n1.job", "photon_n2.job",
    "photon_n3.job", "lg_spin.job",
)


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


def ecs_homodyne_optimum(alpha: float, V: float) -> float:
    """B* = 2 sqrt(2) I^2 / (1 + e^(-4 alpha^2)), with I from an FFT of the sharp response."""
    n = 2 ** math.ceil(math.log2(64 * alpha + 64))
    sharp = scipy.special.erf(math.sqrt(2) * alpha * np.cos(2 * np.pi * np.arange(n) / n))
    h = np.arange(1, n // 2, 2)
    c = 2 * np.fft.rfft(sharp).real[h] / n
    average = math.fsum(c * np.exp(-h * h * V / 2))
    return 2 * math.sqrt(2) * average**2 / (1 + math.exp(-4 * alpha**2))


def test_every_printed_digit_of_an_ecs_homodyne_row_is_right():
    spec = parse_job((JOBS / "ecs_homodyne_angle.job").read_text())
    alphas = {s.label: s.params["alpha"] for s in spec.series}
    rows = run_sweep(spec).rows
    assert len(rows) == len(spec.series) * spec.steps == 27
    for row in rows:
        want = ecs_homodyne_optimum(alphas[row.series], row.sweep_value)
        assert f"{row.value:.12g}" == f"{want:.12g}", (row, want)
        assert abs(row.value - want) <= 1e-14 * want, (row, want)
