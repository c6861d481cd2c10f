"""Tests for job parsing, sweep execution, and the CSV/SVG emitters."""

import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsebell import ecs, oracles
from coarsebell.cli import EXIT_VALIDATION, main
from coarsebell.ecs import (
    EcsParams,
    corr_ecs_efficiency,
    corr_ecs_homodyne_angle,
    corr_ecs_reference,
)
from coarsebell.generic import (
    GenericParams,
    corr_coarse_reference,
    corr_fuzzy_detector,
    discrimination_error,
)
from coarsebell.kernels import discrete_gaussian
from coarsebell.leggett_garg import (
    OMEGA_MAX,
    OMEGA_MIN,
    SpinParams,
    corr_nonclassical,
    corr_spin_parity,
)
from coarsebell.optimize import MAX_STARTS, ChshSettings, Correlator, LgTimes, maximize_chsh
from coarsebell.photon import PhotonParams, photon_correlator
from coarsebell.sweep import (
    MAX_STEPS,
    SYSTEMS,
    JobError,
    SeriesSpec,
    SweepRow,
    SweepResult,
    SweepSpec,
    emit_csv,
    emit_svg,
    optimized_point,
    parse_job,
    run_sweep,
)

JOB_TEXT = """\
# two outcome sizes under reference coarsening
system = generic-ref
sweep.variable = V
sweep.min = 0.0
sweep.max = 0.5
sweep.steps = 3

series[0].label = n=2
series[0].params.n = 2
series[1].label = n=3
series[1].params.n = 3
"""


@pytest.fixture(scope="module")
def small_result():
    spec = parse_job(JOB_TEXT)
    return run_sweep(spec, starts=16)


# ---------------------------------------------------------------------------
# parsing


def test_parse_job_happy_path():
    spec = parse_job(JOB_TEXT)
    assert spec.system == "generic-ref"
    assert spec.variable == "V"
    assert (spec.vmin, spec.vmax, spec.steps) == (0.0, 0.5, 3)
    assert [s.label for s in spec.series] == ["n=2", "n=3"]
    assert spec.series[0].params == {"n": 2.0}
    assert list(spec.grid()) == [0.0, 0.25, 0.5]


def test_parse_job_defaults_variable_and_labels():
    spec = parse_job(
        "system = lg-spin\nsweep.min = 0\nsweep.max = 1\nsweep.steps = 2\n"
        "series[3].params.j = 1.5\n"
    )
    assert spec.variable == "V"
    assert spec.series[0].label == "series3"


@pytest.mark.parametrize(
    "series,needle",
    [
        ((SeriesSpec(3, {"alpha": 2.0}),), "must be a string XML can carry, got 3"),
        ((SeriesSpec("same", {"alpha": 2.0}), SeriesSpec("same", {"alpha": 3.0})), "two series"),
        ((SeriesSpec("a\x01b", {"alpha": 2.0}),), "XML can carry, got 'a\\x01b'"),
        ((SeriesSpec("a\x1f", {"alpha": 2.0}),), "XML can carry, got 'a\\x1f'"),
        ((SeriesSpec("a\ud800", {"alpha": 2.0}),), "XML can carry, got 'a\\ud800'"),
        ((SeriesSpec("a\ufffe", {"alpha": 2.0}),), "XML can carry, got 'a\\ufffe'"),
        ((SeriesSpec("a\uffff", {"alpha": 2.0}),), "XML can carry, got 'a\\uffff'"),
    ],
    ids=["not-a-str", "repeated", "not-an-xml-char", "U+001F", "U+D800", "U+FFFE", "U+FFFF"],
)
def test_a_label_that_would_break_the_output_is_refused(series, needle):
    # emit_svg cannot escape an int, two series under one label merge in the CSV and the SVG,
    # and no XML document may hold \x01 or a code point just outside XML 1.0's Char ranges
    with pytest.raises(JobError, match=re.escape(needle)):
        SweepSpec(system="ecs-ref", variable="V", vmin=0.0, vmax=0.5, steps=2, series=series)


@pytest.mark.parametrize("char", ["\x20", "\ud7ff", "\ue000", "\ufffd", "\U00010000"],
                         ids=["U+0020", "U+D7FF", "U+E000", "U+FFFD", "U+10000"])
def test_a_label_at_the_edge_of_xml_chars_is_kept(char):
    spec = SweepSpec(system="ecs-ref", variable="V", vmin=0.0, vmax=0.5, steps=2,
                     series=(SeriesSpec("a" + char, {"alpha": 2.0}),))
    assert spec.series[0].label == "a" + char


def test_a_label_that_repeats_a_default_label_is_refused(tmp_path, capsys):
    # the file gives 'series1' once; series[1] takes it by default, and the error says so
    text = (
        "system = lg-spin\nsweep.min = 0\nsweep.max = 1\nsweep.steps = 2\n"
        "series[0].label = series1\nseries[1].params.j = 1.5\n"
    )
    needle = "'series1' is given to two series: series[1] has no label and defaults to 'series1'"
    with pytest.raises(JobError, match=re.escape(needle)):
        parse_job(text)
    job = tmp_path / "clash.job"
    job.write_text(text)
    assert main(["sweep", str(job), "--csv", str(tmp_path / "out.csv")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize(
    "text,needle",
    [
        ("system = warp\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n", "unknown system"),
        ("sweep.min = 0\nsweep.max = 1\nsweep.steps = 2\n", "missing the 'system' key"),
        ("system = photon\nsweep.max = 1\nsweep.steps = 2\n", "sweep.min"),
        ("system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\nbogus.key = 1\n", "unrecognized key"),
        ("system = photon\nsystem = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n", "duplicate key"),
        ("system = photon\nsweep.min=zero\nsweep.max=1\nsweep.steps=2\n", "not a number"),
        ("system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2.5\n", "must be an integer"),
        ("system = photon\nsweep.variable = eta\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n", "sweeps 'V'"),
        ("system = photon\nsweep.min=1\nsweep.max=0\nsweep.steps=2\n", "sweep.min < sweep.max"),
        ("system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=0\n", "steps must be >= 1"),
        ("system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=1\n", "single-point"),
        (
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n"
            "series[0].params.V = 1\n",
            "is the sweep variable",
        ),
        (
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n"
            "series[0].params.alpha = 1\n",
            "unknown parameter",
        ),
        ("system = photon\nnot a key value line\n", "expected 'key = value'"),
        ("system = photon\nsweep.min =\nsweep.max=1\nsweep.steps=2\n", "empty value"),
        pytest.param(
            "system = photon\nsweep.min=0.5\nsweep.max=0.5\nsweep.steps=2\n",
            "sweep grid needs sweep.min < sweep.max, got [0.5, 0.5]",
            id="equal-ends",
        ),
        pytest.param(
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n"
            "series[0].label = a\nseries[0].label = b\n",
            "line 6: duplicate key 'series[0].label'",
            id="repeated-label",
        ),
        pytest.param(
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n"
            "series[0].params.n = 1\nseries[0].params.n = 2\n",
            "line 6: duplicate key 'series[0].params.n'",
            id="repeated-parameter",
        ),
        pytest.param(
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\nseries[0].params.n = x\n",
            "line 5: value for 'series[0].params.n' is not a number: 'x'",
            id="parameter-not-a-number",
        ),
    ],
)
def test_parse_job_diagnostics(text, needle):
    with pytest.raises(JobError, match=re.escape(needle)):
        parse_job(text)


def test_single_point_grid_is_allowed():
    spec = parse_job(
        "system = generic-ref\nsweep.min = 0.25\nsweep.max = 0.25\nsweep.steps = 1\n"
        "series[0].label = only\nseries[0].params.n = 1\n"
    )
    assert list(spec.grid()) == [0.25]


def test_comments_and_blank_lines_are_ignored():
    spec = parse_job("# header\n\n  # indented comment\nsystem = ecs-ref\n" "sweep.min=0\nsweep.max=1\nsweep.steps=2\n")
    assert spec.system == "ecs-ref"


def test_integer_parameters_reject_fractions():
    with pytest.raises(JobError, match="must be an integer"):
        parse_job(
            "system = photon\nsweep.min=0\nsweep.max=1\nsweep.steps=2\n"
            "series[0].params.n = 2.5\n"
        )
    with pytest.raises(JobError, match="must be an integer"):
        SweepSpec("photon", "V", 0.0, 1.0, 2, (SeriesSpec("a", {"n": True}),))


def test_eta_grid_domain_is_validated_at_run_time():
    spec = SweepSpec(
        system="ecs-eta",
        variable="eta",
        vmin=0.5,
        vmax=1.5,
        steps=3,
        series=(SeriesSpec(label="a10", params={"alpha": 10.0}),),
    )
    with pytest.raises(JobError, match=r"eta must lie in \[0, 1\]"):
        run_sweep(spec, starts=16)


def test_a_negative_variance_is_reported_at_its_point_before_the_square_root():
    spec = SweepSpec("generic-ref", "V", -0.5, 0.5, 3, (SeriesSpec("n2", {"n": 2}),))
    with pytest.raises(JobError, match=r"^series 'n2' at V=-0\.5: V must be >= 0, got -0\.5$"):
        run_sweep(spec, starts=1)
    with pytest.raises(JobError, match=r"^V must be >= 0, got -1\.0$"):
        optimized_point("generic-ref", {"V": -1.0}, starts=1)


# ---------------------------------------------------------------------------
# execution


def test_run_sweep_matches_the_closed_form(small_result):
    rows = small_result.sorted_rows()
    assert len(rows) == 6
    for row in rows:
        want = 2.0 * math.sqrt(2.0) * math.exp(-4.0 * row.sweep_value)
        assert row.value == pytest.approx(want, abs=1e-6)
        assert row.converged
    # lexicographic (series, sweep_value) ordering
    keys = [(r.series, r.sweep_value) for r in rows]
    assert keys == sorted(keys)


def test_optimized_point_accepts_the_sweep_variable_as_parameter():
    res = optimized_point("generic-ref", {"n": 2, "V": 0.25}, starts=16)
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), abs=1e-6)
    sharp = optimized_point("generic-ref", {"n": 2}, starts=16)
    assert sharp.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)


def test_optimized_point_rejects_bad_input():
    with pytest.raises(JobError, match="unknown system"):
        optimized_point("warp", {})
    with pytest.raises(JobError, match=r"^unknown system \['x'\] \(valid: "):
        optimized_point(["x"], {})  # a name that cannot be hashed raised TypeError
    with pytest.raises(JobError, match="unknown parameter"):
        optimized_point("photon", {"alpha": 3})
    with pytest.raises(JobError, match=r"eta must lie in \[0, 1\]"):
        optimized_point("ecs-eta", {"eta": 1.2})
    with pytest.raises(JobError, match="must be an integer"):
        optimized_point("photon", {"n": 1.5})
    with pytest.raises(JobError, match="must be an integer"):
        optimized_point("generic-ref", {"n": True})  # float(True) == int(True), yet no integer
    with pytest.raises(JobError):
        optimized_point("photon", {"n": 0})  # the range comes from the model


@pytest.mark.parametrize(
    "series,message",
    [
        # a list as the parameters raised AttributeError on its missing .items()
        ((SeriesSpec("a", [1]),), "parameters must be a mapping of names to numbers, got [1]"),
        # a plain tuple as a series raised AttributeError on its missing .label
        ((("a", {}),), "a series must be a SeriesSpec, got ('a', {})"),
        # None as the series raised TypeError: it is not iterable
        (None, "series must be a tuple of SeriesSpec, got None"),
    ],
    ids=["list-parameters", "plain-tuple-series", "no-series"],
)
def test_series_parameters_that_are_not_a_mapping_are_a_job_error(series, message):
    with pytest.raises(JobError, match=f"^{re.escape(message)}$"):
        SweepSpec("ecs-ref", "V", 0.0, 1.0, 3, series)


@pytest.mark.parametrize(
    "call",
    [
        lambda: optimized_point("lg-spin", {"V": math.nan}, starts=1),
        lambda: optimized_point("generic-ref", {"V": math.inf}, starts=1),
        lambda: optimized_point("photon", {"n": math.inf}, starts=1),
        lambda: run_sweep(
            SweepSpec(
                system="ecs-ref",
                variable="V",
                vmin=0.0,
                vmax=0.5,
                steps=2,
                series=(SeriesSpec(label="a", params={"alpha": math.nan}),),
            ),
            starts=1,
        ),
        lambda: optimized_point("generic-ref", {"n": BIG}, starts=1),
        lambda: optimized_point("generic-ref", {"V": BIG}, starts=1),
        lambda: run_sweep(
            SweepSpec("generic-ref", "V", 0.0, 0.5, 2, (SeriesSpec(label="a", params={"n": BIG}),)),
            starts=1,
        ),
    ],
    ids=["point-V-nan", "point-V-inf", "point-n-inf", "sweep-alpha-nan",
         "point-n-big", "point-V-big", "sweep-n-big"],
)
def test_library_api_rejects_non_finite_numbers(call):
    with pytest.raises(JobError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: optimized_point("generic-ref", {"n": "2"}, starts=1), "parameter 'n'"),
        (lambda: optimized_point("generic-ref", {"n": None}, starts=1), "parameter 'n'"),
        (lambda: optimized_point("generic-ref", {"V": "0.5"}, starts=1), "parameter 'V'"),
        (lambda: optimized_point("generic-ref", {"V": None}, starts=1), "parameter 'V'"),
        (lambda: SweepSpec("generic-ref", "V", "0", 1.0, 3), "sweep.min"),
        (lambda: SweepSpec("generic-ref", "V", 0.0, None, 3), "sweep.max"),
        (lambda: SweepSpec("ecs-ref", "V", 0.0, 1.0, 3, (SeriesSpec("a", {"alpha": "10"}),)),
         "parameter 'alpha'"),
    ],
    ids=["point-n-str", "point-n-none", "point-V-str", "point-V-none", "sweep-min-str",
         "sweep-max-none", "sweep-alpha-str"],
)
def test_library_api_rejects_non_numbers_by_name(call, name):
    with pytest.raises(JobError, match=f"^{re.escape(name)} must be a number, got "):
        call()


def test_a_fixed_parameter_out_of_its_domain_fails_when_the_spec_is_built():
    with pytest.raises(JobError, match=r"^series 'a': alpha must be > 0, got -1\.0$"):
        SweepSpec("ecs-ref", "V", 0.0, 1.0, 3, (SeriesSpec("a", {"alpha": -1.0}),))


# an int too large for a float: math.isfinite raises OverflowError on it
BIG = 10**400


def _spec(vmin=0.0, vmax=0.5, steps=2):
    return SweepSpec(system="generic-ref", variable="V", vmin=vmin, vmax=vmax, steps=steps)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: PhotonParams(n=2, Delta=math.nan), "Delta"),
        (lambda: PhotonParams(n=1, eta=math.nan), "eta"),
        (lambda: GenericParams(n=1, delta=math.nan), "delta"),
        (lambda: GenericParams(n=1, Delta=math.inf), "Delta"),
        (lambda: SpinParams(j=0.5, omega=math.nan), "omega"),
        (lambda: SpinParams(j=math.inf), "j"),
        (lambda: SpinParams(j=0.5, Delta=-math.inf), "Delta"),
        (lambda: EcsParams(alpha=math.nan), "alpha"),
        (lambda: EcsParams(alpha=10.0, eta=math.inf), "eta"),
        (lambda: _spec(vmin=math.nan), "sweep.min"),
        (lambda: _spec(vmax=math.inf), "sweep.max"),
        (lambda: _spec(vmin=-math.inf, steps=1), "sweep.min"),
        pytest.param(lambda: GenericParams(n=BIG), "n", id="generic-n-big"),
        pytest.param(lambda: GenericParams(n=1, delta=BIG), "delta", id="generic-delta-big"),
        pytest.param(lambda: PhotonParams(n=BIG), "n", id="photon-n-big"),
        pytest.param(lambda: EcsParams(alpha=BIG), "alpha", id="ecs-alpha-big"),
        pytest.param(lambda: SpinParams(j=BIG), "j", id="spin-j-big"),
        pytest.param(lambda: SpinParams(j=1, omega=BIG), "omega", id="spin-omega-big"),
        pytest.param(lambda: _spec(vmin=-BIG, vmax=1.0, steps=3), "sweep.min", id="sweep-min-big"),
    ],
)
def test_models_and_sweep_specs_reject_non_finite_numbers(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: ChshSettings(math.nan, 0.0, 0.0, 0.0), "theta_a"),
        (lambda: ChshSettings(0.0, math.inf, 0.0, 0.0), "theta_a_prime"),
        (lambda: LgTimes((math.nan, 0.0, 0.0)), "gaps"),
        (lambda: LgTimes((0.0, 0.0, math.inf)), "gaps"),
        (lambda: discrete_gaussian(math.nan, 5), "sigma"),
        (lambda: discrete_gaussian(math.inf, 5), "sigma"),
        (lambda: discrimination_error(1, math.nan), "delta"),
        (lambda: ecs.homodyne_angle_average(math.nan, 0.3), "alpha"),
        (lambda: ecs.homodyne_angle_average(5.0, math.nan), "Delta"),
        (lambda: ecs.homodyne_angle_average(5.0, -0.3), "Delta"),
        (lambda: _spec(steps=2.5), "sweep.steps"),
        (lambda: _spec(steps=True), "sweep.steps"),
        (lambda: ChshSettings(BIG, 0, 0, 0), "theta_a"),
        (lambda: LgTimes((BIG, 0, 0)), "gaps"),
        (lambda: discrete_gaussian(BIG, 5), "sigma"),
        (lambda: discrete_gaussian(1.0, BIG), "k_max"),
        (lambda: ecs.homodyne_angle_average(BIG, 0.1), "alpha"),
        (lambda: maximize_chsh(Correlator(fn=lambda a, b: 0.0, period=BIG)), "period"),
    ],
    ids=[
        "chsh-settings-nan", "chsh-settings-inf", "lg-times-nan", "lg-times-inf",
        "kernel-nan", "kernel-inf", "discrimination-nan", "homodyne-alpha-nan",
        "homodyne-Delta-nan", "homodyne-Delta-negative", "sweep-steps-2.5", "sweep-steps-bool",
        "chsh-settings-big", "lg-times-big", "kernel-big", "kernel-k_max-big", "homodyne-alpha-big",
        "chsh-period-big",
    ],
)
def test_value_types_and_functions_reject_bad_numbers_by_name(call, name):
    # a ValueError naming the field, not a silent NaN, a TypeError or exit 3
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def numpy_grid(vmin, vmax, steps):
    """The sweep grid as numpy computed it: one point is ``vmin`` itself, as before."""
    if steps == 1:
        return np.array([vmin])
    # near the float range numpy's last point, steps - 1 times the step, can
    # overflow before linspace replaces it with vmax
    with np.errstate(over="ignore"):
        return np.linspace(vmin, vmax, steps)


TINY = 5e-324  # the smallest subnormal
HUGE = 2.0**1022  # a quarter of the float range: two such ends of opposite sign may overflow
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# any sign and width whose width is itself a float (wider ones are rejected)
WIDE = (
    st.tuples(FINITE, FINITE)
    .filter(lambda ends: ends[0] != ends[1])
    .map(sorted)
    .filter(lambda ends: math.isfinite(ends[1] - ends[0]))
)
# ends whose width overflows to inf
OVERFLOWING = st.tuples(
    st.floats(max_value=-HUGE, allow_infinity=False),
    st.floats(min_value=HUGE, allow_infinity=False),
).filter(lambda ends: math.isinf(ends[1] - ends[0]))
# a few subnormals wide, so the step often underflows to 0
SUBNORMAL = st.tuples(st.integers(-1000, 1000), st.integers(1, 3 * MAX_STEPS)).map(
    lambda e: (e[0] * TINY, (e[0] + e[1]) * TINY)
)


@settings(max_examples=400, deadline=None)
@given(
    ends=st.one_of(WIDE, SUBNORMAL),
    steps=st.one_of(st.sampled_from([2, MAX_STEPS]), st.integers(2, MAX_STEPS)),
)
@example(ends=(0.0, TINY), steps=3)  # width / 2 is 0: numpy's i / div * width branch
@example(ends=(0.0, 2 * TINY), steps=6)
@example(ends=(-3.0, -1.0), steps=5)
@example(ends=(-0.5, 0.25), steps=MAX_STEPS)
@example(ends=(-8e307, 8e307), steps=MAX_STEPS)  # the widest ranges still pass
def test_grid_is_numpy_linspace_bit_for_bit(ends, steps):
    vmin, vmax = ends
    grid = _spec(vmin, vmax, steps).grid()
    assert all(type(v) is float for v in grid)
    assert np.array(grid).tobytes() == numpy_grid(vmin, vmax, steps).tobytes()


@given(ends=OVERFLOWING, steps=st.integers(2, MAX_STEPS))
@example(ends=(-1e308, 1e308), steps=3)
@example(ends=(-1.7976931348623157e308, 1.7976931348623157e308), steps=MAX_STEPS)
def test_a_sweep_width_that_overflows_is_rejected(ends, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic can warn
        with pytest.raises(JobError, match=r"^sweep\.max - sweep\.min overflows a float, got \["):
            _spec(*ends, steps)


@given(value=FINITE)
@example(value=-0.0)  # np.linspace(-0.0, -0.0, 1) is [0.0]; the grid keeps vmin
def test_single_point_grid_is_vmin_bit_for_bit(value):
    grid = _spec(value, value, 1).grid()
    assert type(grid[0]) is float
    assert np.array(grid).tobytes() == numpy_grid(value, value, 1).tobytes()


def test_a_step_that_underflows_to_zero_still_spreads_the_points():
    # the step 2 TINY / 5 is 0, yet i / 5 * 2 TINY rounds to TINY from i = 2 on
    assert 2 * TINY / 5 == 0.0
    assert _spec(0.0, 2 * TINY, 6).grid() == [0.0, 0.0, TINY, TINY, 2 * TINY, 2 * TINY]


def test_documented_limits_hold_at_both_ends():
    assert len(_spec(steps=MAX_STEPS).grid()) == MAX_STEPS == 10_000
    with pytest.raises(JobError, match="sweep.steps must be <= 10000"):
        _spec(steps=MAX_STEPS + 1)
    with pytest.raises(JobError, match="sweep.steps must be >= 1"):
        _spec(steps=0)
    for omega in (OMEGA_MIN, OMEGA_MAX):
        res = optimized_point("lg-spin", {"j": 2.5, "omega": omega})
        assert res.converged
        assert res.value == pytest.approx(2.49501191608, abs=1e-10)
        assert all(0.0 <= g < 2.0 * math.pi / omega for g in res.argmax)
    for omega in (0.99 * OMEGA_MIN, 1.01 * OMEGA_MAX, 1e-300, 1e300):
        with pytest.raises(JobError, match=r"omega must lie in \[0.0001, 100\]"):
            optimized_point("lg-spin", {"omega": omega})
    # the smearing window spans 8 delta alone, so the size n has no upper limit
    for n in (100_001, 1e18, 1e300):
        res = optimized_point("generic-delta", {"n": n, "V": 1.0}, starts=1)
        assert res.converged and res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_photon_sweep_reaches_large_n_through_the_closed_form():
    spec = parse_job(
        "system = photon\nsweep.min = 0.0\nsweep.max = 0.5\nsweep.steps = 3\n"
        "series[0].label = n5\nseries[0].params.n = 5\nseries[0].params.eta = 0.9\n"
        "series[1].label = n64\nseries[1].params.n = 64\nseries[1].params.eta = 0.05\n"
    )
    rows = run_sweep(spec, starts=16).sorted_rows()
    assert len(rows) == 6
    for row in rows:
        n, eta = (5, 0.9) if row.series == "n5" else (64, 0.05)
        m = (1.0 - eta) ** n
        damping = math.exp(-4.0 * row.sweep_value)
        want = 2.0 * m * m + 2.0 * math.sqrt(2.0) * (1.0 - m) ** 2 * damping
        assert abs(row.value - want) <= 1e-9
        assert row.converged


# one point per system; the photon point is a lossy n = 3 pair
ORACLE_FREE_POINTS = {
    name: {"n": 3, "eta": 0.9, "V": 0.5} if name == "photon" else {sysdef.variable: 0.5}
    for name, sysdef in SYSTEMS.items()
}


@pytest.mark.parametrize("system", sorted(ORACLE_FREE_POINTS))
def test_sweep_points_never_run_an_oracle(system, monkeypatch):
    def oracle_only(*args, **kwargs):
        raise AssertionError("an oracle ran on the sweep path")

    patched = set()
    for name, obj in vars(oracles).items():
        if callable(obj) and getattr(obj, "__module__", None) == oracles.__name__:
            monkeypatch.setattr(oracles, name, oracle_only)
            patched.add(name)
    assert {"_corr_sharp", "angle_average", "gauss_hermite", "FockDensityMatrix"} <= patched
    res = optimized_point(system, ORACLE_FREE_POINTS[system], starts=1)
    assert math.isfinite(res.value)


# ---------------------------------------------------------------------------
# system table

# Each case: system, fixed parameters, sweep value, the params object the
# system's model must receive, and that model's correlation function.  The
# variances are chosen so that sqrt(V) is exact.
TABLE_CASES = [
    ("generic-delta", {"n": 3}, 0.25, GenericParams(n=3, delta=0.5), corr_fuzzy_detector),
    ("generic-ref", {"n": 2}, 0.5625, GenericParams(n=2, Delta=0.75), corr_coarse_reference),
    ("ecs-eta", {"alpha": 1.5}, 0.8, EcsParams(alpha=1.5, eta=0.8), corr_ecs_efficiency),
    ("ecs-ref", {"alpha": 1.5}, 0.0625, EcsParams(alpha=1.5, Delta=0.25), corr_ecs_reference),
    (
        "ecs-homodyne",
        {"alpha": 1.5},
        0.0625,
        EcsParams(alpha=1.5, Delta=0.25),
        corr_ecs_homodyne_angle,
    ),
    (
        "lg-spin",
        {"j": 1.5, "omega": 2.0},
        0.25,
        SpinParams(j=1.5, omega=2.0, Delta=0.5),
        corr_spin_parity,
    ),
    (
        "lg-nonclassical",
        {"j": 0.5, "omega": 0.5},
        0.0625,
        SpinParams(j=0.5, omega=0.5, Delta=0.25),
        corr_nonclassical,
    ),
    (
        "photon",
        {"n": 2, "eta": 0.9},
        0.25,
        PhotonParams(n=2, eta=0.9, Delta=0.5),
        lambda a, b, p: photon_correlator(p)(a, b),
    ),
]
ANGLE_PAIRS = [(0.0, 0.0), (0.3, 1.1), (2.0, 0.7), (-0.4, 2.9)]
GAPS = [0.0, 0.4, 1.9, 5.0]


def test_table_cases_cover_every_system():
    assert {case[0] for case in TABLE_CASES} == set(SYSTEMS)


@pytest.mark.parametrize("system,fixed,value,want,model", TABLE_CASES)
def test_system_row_builds_the_model_correlator(system, fixed, value, want, model):
    sysdef = SYSTEMS[system]
    assert sysdef.model_params(fixed, value) == want
    corr = sysdef.correlator(sysdef.model_params(fixed, value))
    if sysdef.kind == "lg":
        assert corr.period == 2.0 * math.pi / want.omega
        for tau in GAPS:
            assert corr(tau) == model(tau, want)
    else:
        for a, b in ANGLE_PAIRS:
            assert corr(a, b) == model(a, b, want)


@pytest.mark.parametrize("system,fixed,value", [case[:3] for case in TABLE_CASES])
def test_system_closures_return_built_in_floats(system, fixed, value):
    # numpy scalars would make every optimiser call do numpy arithmetic
    sysdef = SYSTEMS[system]
    fn = sysdef.correlator(sysdef.model_params(fixed, value))
    for args in ([(0.3, 1.1), (2.0, 0.7)] if sysdef.kind == "chsh" else [(0.4,), (1.9,)]):
        assert type(fn(*args)) is float


def test_each_point_binds_its_correlator_and_homodyne_average_once(monkeypatch):
    factory_calls: dict[str, int] = {}
    for name, sysdef in list(SYSTEMS.items()):
        def counted(mp, name=name, factory=sysdef.correlator):
            factory_calls[name] = factory_calls.get(name, 0) + 1
            return factory(mp)

        monkeypatch.setitem(SYSTEMS, name, sysdef._replace(correlator=counted))
    averages = []
    average = ecs.homodyne_angle_average

    def counted_average(alpha, Delta):
        averages.append((alpha, Delta))
        return average(alpha, Delta)

    monkeypatch.setattr("coarsebell.ecs.homodyne_angle_average", counted_average)
    for name, sysdef in SYSTEMS.items():
        series = (SeriesSpec("a", {}), SeriesSpec("b", {}))
        spec = SweepSpec(name, sysdef.variable, 0.25, 0.5, 2, series)
        assert len(run_sweep(spec, starts=1).rows) == 4
        assert factory_calls[name] == 4, name
    alpha = SYSTEMS["ecs-homodyne"].params["alpha"]
    assert averages == [(alpha, 0.5), (alpha, math.sqrt(0.5))] * 2


@pytest.mark.parametrize("starts", [0, MAX_STARTS + 1, True], ids=["zero", "above-max", "bool"])
def test_a_bad_start_count_fails_before_any_correlator_is_built(starts, monkeypatch):
    factory_calls = []
    for name, sysdef in list(SYSTEMS.items()):
        def counted(mp, name=name, factory=sysdef.correlator):
            factory_calls.append(name)
            return factory(mp)

        monkeypatch.setitem(SYSTEMS, name, sysdef._replace(correlator=counted))
    spec = SweepSpec("generic-ref", "V", 0.0, 0.5, 2, (SeriesSpec("a", {}),))
    with pytest.raises(JobError, match="^starts must be"):
        run_sweep(spec, starts=starts)
    with pytest.raises(JobError, match="^starts must be"):
        optimized_point("generic-ref", {}, starts=starts)
    assert factory_calls == []


def test_sweep_variable_defaults_are_the_sharp_or_ideal_values():
    for name, sysdef in SYSTEMS.items():
        assert sysdef.variable_default == (1.0 if sysdef.variable == "eta" else 0.0), name


# ---------------------------------------------------------------------------
# CSV


def test_csv_layout_and_round_trip(tmp_path, small_result):
    path = tmp_path / "out.csv"
    emit_csv(small_result, str(path))
    data = path.read_bytes().decode()
    lines = data.split("\n")
    assert lines[0] == "series,sweep_value,value,converged"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 8  # header + 6 rows + trailing empty
    assert "\r" not in data
    for line, row in zip(lines[1:], small_result.sorted_rows()):
        series, sv, value, conv = line.split(",")
        assert series == row.series
        assert abs(float(sv) - row.sweep_value) <= 1e-11 * max(1.0, abs(row.sweep_value))
        assert abs(float(value) - row.value) <= 1e-11 * max(1.0, abs(row.value))
        assert conv == ("true" if row.converged else "false")


def test_csv_emits_header_only_without_series(tmp_path):
    spec = SweepSpec(system="generic-ref", variable="V", vmin=0.0, vmax=1.0, steps=3)
    result = run_sweep(spec, starts=16)
    path = tmp_path / "empty.csv"
    emit_csv(result, str(path))
    assert path.read_text() == "series,sweep_value,value,converged\n"


def test_csv_bytes_are_deterministic(tmp_path, small_result):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(small_result, str(p1))
    emit_csv(small_result, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# SVG


def test_svg_structure(tmp_path, small_result):
    path = tmp_path / "plot.svg"
    emit_svg(small_result, str(path), title="demo")
    raw = path.read_text()
    root = ET.fromstring(raw)  # well-formed XML
    assert root.tag.endswith("svg")
    assert root.attrib["viewBox"] == "0 0 800 600"
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2  # one per series
    dashed = [e for e in root.iter(f"{ns}line") if "stroke-dasharray" in e.attrib]
    assert len(dashed) == 1
    texts = [e.text for e in root.iter(f"{ns}text")]
    assert "n=2" in texts and "n=3" in texts and "demo" in texts


def test_svg_points_are_affine_in_the_data(tmp_path, small_result):
    path = tmp_path / "plot.svg"
    emit_svg(small_result, str(path))
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    poly = root.findall(f"{ns}polyline")[0]
    pts = [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split()]
    assert len(pts) == 3
    xs = [p[0] for p in pts]
    # a uniform sweep grid lands on uniformly spaced pixel columns
    assert xs[1] - xs[0] == pytest.approx(xs[2] - xs[1], abs=2e-3)
    assert xs == sorted(xs)
    # the dashed rule sits at the pixel row of value 2.0, inside the frame
    dashed = [e for e in root.iter(f"{ns}line") if "stroke-dasharray" in e.attrib][0]
    y_rule = float(dashed.attrib["y1"])
    assert dashed.attrib["y1"] == dashed.attrib["y2"]
    ys = [p[1] for p in pts]
    rows = [r for r in small_result.sorted_rows() if r.series == "n=2"]
    above = [p for p, r in zip(ys, rows) if r.value > 2.0]
    below = [p for p, r in zip(ys, rows) if r.value < 2.0]
    assert all(y < y_rule for y in above)  # larger value = higher = smaller y
    assert all(y > y_rule for y in below)


def test_svg_bytes_are_deterministic(tmp_path, small_result):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(small_result, str(p1), title="t")
    emit_svg(small_result, str(p2), title="t")
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_escapes_markup_in_labels(tmp_path):
    rows = (
        SweepRow(series="a<b>&", sweep_value=0.0, value=1.0, converged=True),
        SweepRow(series="a<b>&", sweep_value=1.0, value=0.5, converged=True),
    )
    spec = SweepSpec(system="generic-ref", variable="V", vmin=0.0, vmax=1.0, steps=2)
    path = tmp_path / "esc.svg"
    emit_svg(SweepResult(spec=spec, rows=rows), str(path))
    root = ET.fromstring(path.read_text())
    assert any((e.text or "") == "a<b>&" for e in root.iter())


def _svg_columns(tmp_path, vmin, vmax, steps):
    """The polyline's pixel columns and the x-axis tick labels of a one-series sweep."""
    spec = SweepSpec(system="generic-ref", variable="V", vmin=vmin, vmax=vmax, steps=steps)
    rows = tuple(SweepRow(series="a", sweep_value=v, value=2.5, converged=True) for v in spec.grid())
    path = tmp_path / "cols.svg"
    emit_svg(SweepResult(spec=spec, rows=rows), str(path))
    text = path.read_text()
    columns = [p.split(",")[0] for p in re.search(r'<polyline points="([^"]*)"', text)[1].split()]
    ticks = re.findall(r'font-size="12" text-anchor="middle">([^<]*)</text>', text)
    return columns, ticks


def test_svg_columns_span_the_frame_from_the_first_sweep_value_to_the_last(tmp_path):
    # a sweep that does not start at 0 pins the offset in the pixel column and the tick values
    columns, ticks = _svg_columns(tmp_path, 0.5, 1.5, 3)
    assert columns == ["70.000", "315.000", "560.000"]
    assert ticks == ["0.5", "0.7", "0.9", "1.1", "1.3", "1.5"]


def test_a_one_point_svg_is_centred_in_a_unit_wide_axis(tmp_path):
    columns, ticks = _svg_columns(tmp_path, 0.25, 0.25, 1)
    assert columns == ["315.000"]
    assert ticks == ["-0.25", "-0.05", "0.15", "0.35", "0.55", "0.75"]
