"""Parameter sweeps of optimised inequality violations, with CSV/SVG output.

A sweep is described by a small flat job file (``key = value`` lines, ``#``
comments), for example::

    system = generic-ref
    sweep.variable = V
    sweep.min = 0.0
    sweep.max = 1.0
    sweep.steps = 21
    series[0].label = n=2
    series[0].params.n = 2
    series[1].label = n=3
    series[1].params.n = 3

Recognised keys: ``system``, ``sweep.variable``, ``sweep.min``, ``sweep.max``,
``sweep.steps``, ``series[i].label`` and ``series[i].params.<name>``.

Limits: every number must be finite; ``sweep.steps`` lies in [1, 10000]
(``MAX_STEPS``); ``omega`` of the LG systems lies in [1e-4, 100]
(``leggett_garg.OMEGA_MIN``/``OMEGA_MAX``), the range over which the
optimiser's absolute gap tolerance of 1e-8 resolves a period; ``j`` of the
LG systems is at most 256 (``leggett_garg.J_MAX``), the largest spin whose
sharp correlator the LG grid resolves; the detector width of
``generic-delta`` is at most 1e4 (``generic.DELTA_MAX``, V <= 1e8), which
keeps its smearing window, 8 delta either side of zero whatever ``n``, small
and one point under ~1 s; and series labels are distinct strings that XML
can carry.  Each limit is a validation error that names it (exit code 2 on
the command line).  The model records and ``_System.model_params`` hold the
domains.  ``SweepSpec`` builds each series' record once, at the sweep
variable's default, so a fixed parameter out of its domain (``n = 0``,
``alpha = -1``) fails with its series' label before any point runs.  The
sweep variable's own domain is checked per point: an ``eta`` outside [0, 1]
or a negative ``V`` on the grid is reported when its point is reached, with
the series and the value.

Systems and their sweep variable / fixed parameters:

================  ==========  ======================  =====================
system            variable    meaning of variable     fixed parameters
================  ==========  ======================  =====================
generic-delta     V           detector variance       n
generic-ref       V           reference variance      n
photon            V           reference variance      n, eta
ecs-eta           eta         detector efficiency     alpha
ecs-ref           V           reference variance      alpha
ecs-homodyne      V           homodyne-angle var.     alpha
lg-spin           V           reference variance      j, omega
lg-nonclassical   V           reference variance      j, omega
================  ==========  ======================  =====================

Every grid point binds the system's correlator once, through the factory in
its ``SYSTEMS`` row, which computes the point's constants (smeared signs,
dampings, the homodyne-angle average's Bessel series), and passes the result as it
is to ``maximize_chsh`` or ``maximize_lg``, by the row's ``kind``.  Every
row returns a form of ``kernels``: each CHSH row a ``CosineForm``,
lg-nonclassical a ``Harmonic`` and lg-spin a ``CosineSeries``, which samples
the LG grid in numpy.  The ECS forms and the ``Harmonic`` take their maxima
in closed form from four calls; the lattice calls the ``closure`` of the
other three CHSH forms ~1e5 times a point.  A CHSH correlator is searched
over the period pi; each LG form carries its own, 2 pi / omega.  No sweep
point imports scipy or runs anything of ``oracles``.  Rows are emitted in
lexicographic (series, sweep_value) order with 12 significant digits.  Both
the CSV and the SVG renderings are byte-deterministic.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from operator import attrgetter
from typing import Mapping

from . import ecs, generic, leggett_garg, photon
from .kernels import Validated, as_int, is_finite
from .optimize import OptimizationResult, _check_search, maximize_chsh, maximize_lg

__all__ = [
    "JobError",
    "SeriesSpec",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "SYSTEMS",
    "parse_job",
    "run_sweep",
    "optimized_point",
    "emit_csv",
    "emit_svg",
]


class JobError(ValueError):
    """A job file or parameter set failed validation."""


# Largest sweep grid, per series.  A point on the CHSH lattice or the LG grid
# takes ~5-50 ms, so this is minutes of work per series; a closed-form ECS
# point takes ~20 us, and ecs-homodyne up to ~0.2 ms more for its Bessel series
# (30-180 us at alpha = 20-30), so 10000 of them take at most ~2 s on a 2-vCPU
# Xeon.  The grid itself stays small.
MAX_STEPS = 10_000


def _xml_text(text: str) -> bool:
    """Whether every character of ``text`` is in XML 1.0's ``Char`` production."""
    return all(" " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c > "\uffff" or c in "\t\n\r"
               for c in text)


class SeriesSpec(namedtuple("SeriesSpec", "label params")):
    """One curve of a sweep: its ``label`` and fixed ``params`` (a new empty dict by default)."""

    __slots__ = ()

    def __new__(cls, label: str, params: Mapping[str, float] | None = None):
        return tuple.__new__(cls, (label, {} if params is None else params))


class SweepSpec(
    Validated, namedtuple("SweepSpec", "system variable vmin vmax steps series", defaults=((),))
):
    """A validated sweep description (see module docstring for the format)."""

    __slots__ = ()

    def __new__(
        cls,
        system: str,
        variable: str,
        vmin: float,
        vmax: float,
        steps: int,
        series: tuple[SeriesSpec, ...] = (),
    ):
        sysdef = _system(system)
        if variable != sysdef.variable:
            raise JobError(
                f"system {system!r} sweeps {sysdef.variable!r}, "
                f"got sweep.variable = {variable!r}"
            )
        for key, value in (("sweep.min", vmin), ("sweep.max", vmax)):
            _check_number(key, value)
        count = as_int(steps)
        if count is None:
            raise JobError(f"sweep.steps must be an integer, got {steps!r}")
        if count < 1:
            raise JobError(f"sweep.steps must be >= 1, got {count}")
        if count > MAX_STEPS:
            raise JobError(f"sweep.steps must be <= {MAX_STEPS}, got {count}")
        if count == 1:
            if vmin != vmax:
                raise JobError("a single-point sweep requires sweep.min == sweep.max")
        elif not vmin < vmax:
            raise JobError(f"sweep grid needs sweep.min < sweep.max, got [{vmin}, {vmax}]")
        elif not is_finite(vmax - vmin):
            raise JobError(f"sweep.max - sweep.min overflows a float, got [{vmin}, {vmax}]")
        labels: set[str] = set()
        for s in series:
            if not isinstance(s.label, str) or not _xml_text(s.label):
                raise JobError(f"a series label must be a string XML can carry, got {s.label!r}")
            if s.label in labels:
                raise JobError(f"series label {s.label!r} is given to two series")
            labels.add(s.label)
            merged = _validate_params(system, s.params)
            try:  # a fixed parameter out of its record's domain fails here, before any point
                sysdef.model_params(merged, sysdef.variable_default)
            except ValueError as exc:
                raise JobError(f"series {s.label!r}: {exc}") from exc
        return tuple.__new__(cls, (system, variable, vmin, vmax, count, series))

    def grid(self) -> list[float]:
        """The sweep values, bit for bit those of ``np.linspace(vmin, vmax, steps)``.

        Point i is ``i * step + vmin`` and the last is ``vmax``; when the step
        underflows to 0, point i is ``i / div * width + vmin``, as numpy has it.
        """
        vmin, vmax = float(self.vmin), float(self.vmax)
        if self.steps == 1:
            return [vmin]
        div = self.steps - 1
        width = vmax - vmin
        step = width / div
        if step == 0.0:
            values = [i / div * width + vmin for i in range(div)]
        else:
            values = [i * step + vmin for i in range(div)]
        return values + [vmax]


class SweepRow(namedtuple("SweepRow", "series sweep_value value converged")):
    """One optimised point: series label, sweep value, optimum and its convergence flag."""

    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "spec rows")):
    """A ``SweepSpec`` and its tuple of ``SweepRow`` in evaluation order."""

    __slots__ = ()

    def sorted_rows(self) -> list[SweepRow]:
        return sorted(self.rows, key=attrgetter("series", "sweep_value"))


# ---------------------------------------------------------------------------
# system registry


class _System(
    namedtuple("_System", "kind variable variable_default params model swept correlator")
):
    """One row of the system table; an ``int`` default marks an integer parameter.

    ``kind`` is "chsh" or "lg".  The sweep value, or its square root (a
    width) when it is the variance ``V``, sets the ``swept`` field of the
    model's params class ``model``; ``correlator(mp)`` binds that
    configuration ``mp`` once and returns the form the optimiser maximises
    (``(ta, tb) -> E`` or ``tau -> C``).
    """

    __slots__ = ()

    def model_params(self, fixed: Mapping[str, float], value: float) -> object:
        if self.variable == "V" and value < 0.0:
            raise ValueError(f"V must be >= 0, got {value}")
        x = math.sqrt(value) if self.variable == "V" else value
        return self.model(**fixed, **{self.swept: x})


SYSTEMS: dict[str, _System] = {
    name: _System(*row)
    for name, *row in (
        # name, kind, variable, its default, fixed parameters with defaults,
        # model params class, the field the sweep value sets, correlator factory
        ("generic-delta", "chsh", "V", 0.0, {"n": 1},
         generic.GenericParams, "delta", generic.fuzzy_detector_correlator),
        ("generic-ref", "chsh", "V", 0.0, {"n": 1},
         generic.GenericParams, "Delta", generic.coarse_reference_correlator),
        ("photon", "chsh", "V", 0.0, {"n": 1, "eta": 1.0},
         photon.PhotonParams, "Delta", photon.photon_correlator),
        ("ecs-eta", "chsh", "eta", 1.0, {"alpha": 10.0},
         ecs.EcsParams, "eta", ecs.ecs_efficiency_correlator),
        ("ecs-ref", "chsh", "V", 0.0, {"alpha": 10.0},
         ecs.EcsParams, "Delta", ecs.ecs_reference_correlator),
        ("ecs-homodyne", "chsh", "V", 0.0, {"alpha": 10.0},
         ecs.EcsParams, "Delta", ecs.ecs_homodyne_correlator),
        ("lg-spin", "lg", "V", 0.0, {"j": 0.5, "omega": 1.0},
         leggett_garg.SpinParams, "Delta", leggett_garg.spin_parity_correlator),
        ("lg-nonclassical", "lg", "V", 0.0, {"j": 0.5, "omega": 1.0},
         leggett_garg.SpinParams, "Delta", leggett_garg.nonclassical_correlator),
    )
}


def _system(name: str) -> _System:
    try:
        return SYSTEMS[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed, such as a list
        raise JobError(
            f"unknown system {name!r} (valid: {', '.join(sorted(SYSTEMS))})"
        ) from None


def _check_number(name: str, value: float) -> None:
    """Raise ``JobError`` naming ``name`` unless ``value`` is a finite real number."""
    try:
        finite = is_finite(value)
    except TypeError:  # a string, None or other non-number
        raise JobError(f"{name} must be a number, got {value!r}") from None
    if not finite:
        raise JobError(f"{name} must be finite, got {value!r}")


def _validate_params(system: str, params: Mapping[str, float]) -> dict[str, float]:
    sysdef = _system(system)
    if not isinstance(params, Mapping):
        raise JobError(f"parameters must be a mapping of names to numbers, got {params!r}")
    merged = dict(sysdef.params)
    for key, value in params.items():
        _check_number(f"parameter {key!r}", value)
        if key == sysdef.variable:
            raise JobError(
                f"parameter {key!r} is the sweep variable of system {system!r}"
            )
        if key not in sysdef.params:
            raise JobError(
                f"unknown parameter {key!r} for system {system!r} "
                f"(valid: {', '.join(sorted(sysdef.params))})"
            )
        if isinstance(sysdef.params[key], int):
            if isinstance(value, bool) or float(value) != int(value):
                raise JobError(f"parameter {key!r} must be an integer, got {value!r}")
            merged[key] = int(value)
        else:
            merged[key] = float(value)
    return merged


def _search_starts(starts: int | None) -> int | None:
    """``starts`` checked by the optimiser's own rule (any valid period does), as a JobError."""
    try:
        return _check_search(math.pi, starts)
    except ValueError as exc:
        raise JobError(str(exc)) from None


# ---------------------------------------------------------------------------
# execution


def _optimum(
    sysdef: _System, fixed: Mapping, value: float, starts: int | None, where: str
) -> OptimizationResult:
    """Build one configuration's correlator and maximise its figure of merit.

    Only the build is guarded: its ``ValueError`` becomes a ``JobError``
    (exit 2) that begins with ``where``, while a ``NonFiniteObjectiveError``
    from the maximiser, a ``ValueError`` too, propagates (exit 3).
    """
    try:
        corr = sysdef.correlator(sysdef.model_params(fixed, value))
    except ValueError as exc:
        raise JobError(f"{where}{exc}") from exc
    if sysdef.kind == "lg":
        return maximize_lg(corr, starts=starts)
    return maximize_chsh(corr, starts=starts)


def run_sweep(spec: SweepSpec, *, starts: int | None = None) -> SweepResult:
    """Run every (series, grid point) optimisation of a sweep, sequentially.

    The evaluation order is fixed and no randomness is involved, so repeated
    runs produce identical rows bit for bit.  Per-point optimizer
    non-convergence is recorded in the row rather than aborting the sweep.
    """
    starts = _search_starts(starts)
    sysdef = _system(spec.system)
    grid = spec.grid()
    rows: list[SweepRow] = []
    for series in spec.series:
        merged = _validate_params(spec.system, series.params)
        for v in grid:
            where = f"series {series.label!r} at {spec.variable}={v}: "
            res = _optimum(sysdef, merged, v, starts, where)
            rows.append(
                SweepRow(
                    series=series.label,
                    sweep_value=v,
                    value=res.value,
                    converged=res.converged,
                )
            )
    return SweepResult(spec=spec, rows=tuple(rows))


def optimized_point(
    system: str,
    params: Mapping[str, float],
    *,
    starts: int | None = None,
) -> OptimizationResult:
    """Optimise a single configuration given as a flat parameter mapping.

    The system's sweep variable may be supplied as an ordinary parameter
    (``V`` or ``eta``); it falls back to the sharp/ideal default otherwise.
    """
    starts = _search_starts(starts)
    sysdef = _system(system)
    supplied = dict(params)
    value = supplied.pop(sysdef.variable, sysdef.variable_default)
    _check_number(f"parameter {sysdef.variable!r}", value)
    return _optimum(sysdef, _validate_params(system, supplied), float(value), starts, "")


# ---------------------------------------------------------------------------
# job files


_SERIES_KEY = re.compile(r"^series\[(\d+)\]\.(label|params\.([A-Za-z_][A-Za-z0-9_]*))$")


def parse_job(text: str) -> SweepSpec:
    """Parse the flat ``key = value`` job format into a validated SweepSpec."""
    top: dict[str, str] = {}
    series_raw: dict[int, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise JobError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise JobError(f"line {lineno}: empty value for key {key!r}")
        m = _SERIES_KEY.match(key)
        if m:
            idx = int(m.group(1))
            entry = series_raw.setdefault(idx, {"label": None, "params": {}})
            if m.group(2) == "label":
                if entry["label"] is not None:
                    raise JobError(f"line {lineno}: duplicate key {key!r}")
                entry["label"] = value
            else:
                pname = m.group(3)
                if pname in entry["params"]:
                    raise JobError(f"line {lineno}: duplicate key {key!r}")
                entry["params"][pname] = _parse_number(value, key, lineno)
        elif key in ("system", "sweep.variable", "sweep.min", "sweep.max", "sweep.steps"):
            if key in top:
                raise JobError(f"line {lineno}: duplicate key {key!r}")
            top[key] = value
        else:
            raise JobError(f"line {lineno}: unrecognized key {key!r}")

    if "system" not in top:
        raise JobError("job file is missing the 'system' key")
    system = top["system"]
    sysdef = _system(system)
    variable = top.get("sweep.variable", sysdef.variable)
    missing = [k for k in ("sweep.min", "sweep.max", "sweep.steps") if k not in top]
    if missing:
        raise JobError(f"job file is missing {', '.join(repr(m) for m in missing)}")
    vmin = _parse_number(top["sweep.min"], "sweep.min", None)
    vmax = _parse_number(top["sweep.max"], "sweep.max", None)
    steps_f = _parse_number(top["sweep.steps"], "sweep.steps", None)
    if steps_f != int(steps_f):
        raise JobError(f"sweep.steps must be an integer, got {top['sweep.steps']!r}")

    series = []
    given = {entry["label"] for entry in series_raw.values()}
    for idx in sorted(series_raw):
        entry = series_raw[idx]
        label = entry["label"]
        if label is None:
            label = f"series{idx}"
            if label in given:
                raise JobError(f"series label {label!r} is given to two series: "
                               f"series[{idx}] has no label and defaults to {label!r}")
        series.append(SeriesSpec(label=label, params=entry["params"]))
    return SweepSpec(
        system=system,
        variable=variable,
        vmin=vmin,
        vmax=vmax,
        steps=int(steps_f),
        series=tuple(series),
    )


def _parse_number(text: str, key: str, lineno: int | None) -> float:
    where = f"line {lineno}: " if lineno is not None else ""
    try:
        value = float(text)
    except ValueError:
        raise JobError(f"{where}value for {key!r} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise JobError(f"{where}value for {key!r} must be finite, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# output


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write rows as CSV (12 significant digits, LF endings, sorted order)."""
    import csv

    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "sweep_value", "value", "converged"])
        for row in result.sorted_rows():
            writer.writerow(
                [
                    row.series,
                    _fmt(row.sweep_value),
                    _fmt(row.value),
                    "true" if row.converged else "false",
                ]
            )


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_VIEW_W, _VIEW_H = 800, 600
_PLOT = (70.0, 40.0, 560.0, 540.0)  # left, top, right, bottom
_BOUND = 2.0  # the classical CHSH and LG bound, drawn as a dashed rule
_TICK_STYLE = 'stroke="black" stroke-width="1"'


def _svg_line(x1: float, y1: float, x2: float, y2: float, style: str = _TICK_STYLE) -> str:
    return f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" {style}/>'


def _svg_text(
    x: float | str, y: float | str, size: int, body: str, attrs: str = ' text-anchor="middle"'
) -> str:
    """A ``<text>`` element; a coordinate given as a string is written as it is."""
    x, y = (v if isinstance(v, str) else f"{v:.3f}" for v in (x, y))
    return (
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{attrs}>'
        f"{_xml_escape(body)}</text>"
    )


def emit_svg(result: SweepResult, path: str, *, title: str | None = None) -> None:
    """Render the sweep as a small self-contained SVG line plot.

    One polyline per series, axis ticks, a dashed horizontal rule at the
    classical bound 2, and a legend.  All coordinates are emitted with fixed
    decimal formatting, so identical results yield identical bytes.
    """
    rows = result.sorted_rows()
    labels = sorted({r.series for r in rows})
    xs = [r.sweep_value for r in rows]
    ys = [r.value for r in rows]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    span = ys + [_BOUND] if ys else [0.0, _BOUND]
    y_lo, y_hi = min(span), max(span)
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    left, top, right, bottom = _PLOT
    mid_x, mid_y = (left + right) / 2, (top + bottom) / 2

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def py(v: float) -> float:
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'width="{_VIEW_W}" height="{_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
    ]
    if title:
        out.append(_svg_text(mid_x, "24", 16, title))
    out.append(
        f'<rect x="{left:.3f}" y="{top:.3f}" width="{right - left:.3f}" '
        f'height="{bottom - top:.3f}" fill="none" stroke="black" stroke-width="1"/>'
    )
    n_ticks = 6
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = px(xv)
        out.append(_svg_line(xp, bottom, xp, bottom + 6))
        out.append(_svg_text(xp, bottom + 22, 12, f"{xv:.4g}"))
        yv = y_lo + frac * (y_hi - y_lo)
        yp = py(yv)
        out.append(_svg_line(left - 6, yp, left, yp))
        out.append(_svg_text(left - 10, yp + 4, 12, f"{yv:.4g}", ' text-anchor="end"'))
    out.append(_svg_text(mid_x, bottom + 45, 14, result.spec.variable))
    rotate = f' text-anchor="middle" transform="rotate(-90 22 {mid_y:.3f})"'
    out.append(_svg_text("22", mid_y, 14, "optimized value", rotate))
    bound_y = py(_BOUND)
    dashed = 'stroke="#555555" stroke-width="1" stroke-dasharray="6,4"'
    out.append(_svg_line(left, bound_y, right, bound_y, dashed))
    for k, label in enumerate(labels):
        stroke = f'stroke="{_SVG_PALETTE[k % len(_SVG_PALETTE)]}" stroke-width="1.5"'
        pts = [(r.sweep_value, r.value) for r in rows if r.series == label]
        coords = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" {stroke}/>')
        ly = top + 16 + 20 * k
        out.append(_svg_line(right + 15, ly, right + 45, ly, stroke))
        out.append(_svg_text(right + 52, ly + 4, 12, label, ""))
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )
