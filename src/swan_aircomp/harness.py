"""Monte-Carlo experiment harness: specs, runner, aggregation, and outputs.

An ExperimentSpec fully determines every output byte: user drops are seeded
per drop from the master seed, optimizers are deterministic, and CSV/SVG
emission uses fixed number formats.  Wall-clock timings are therefore kept
out of the default CSV output and reported on stderr instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union, get_type_hints

import numpy as np

from . import svgplot
from .channel import SPEED_OF_LIGHT, RadioConfig, dbm_to_watts, require_feasible
from .geometry import (
    ARCHITECTURES,
    Placement,
    Scene,
    ServiceRegion,
    UserDrop,
    build_layout,
    sample_users,
)
from .optimizers import (
    MAX_JOINT_TUPLES,
    DropGrids,
    RunRecord,
    drop_search_bytes,
    evaluate_placement,
    pass_baseline,
    random_init,
    sa1_ao,
    sa1_joint_exhaustive,
    sa2_ao,
    sa2_joint_exhaustive,
    ss_two_stage,
)
from .rng import derive_seed

# Seed-derivation tag separating restart streams from drop streams.
_RESTART_TAG = 7001


class Kind(NamedTuple):
    """One experiment kind: its CLI subcommand, plot x-axis, defaults and cells.

    ``scene`` maps (spec, sweep value) to its (M, L, K); a kind without one
    runs one cell per drop, with sweep (0,), on the spec's own.  ``oracles``
    pairs each AO run with its joint oracle; ``traces`` emits MSE traces.
    """

    command: str
    x_label: str
    defaults: dict
    scene: Optional[Callable[[ExperimentSpec, float], tuple[int, float, int]]] = None
    oracles: bool = False
    traces: bool = False

    @property
    def swept(self) -> bool:
        return self.scene is not None


KINDS = {
    "sweep-m-fixed-L": Kind("sweep-m", "number of segments M", {"sweep": tuple(range(1, 11))},
                            lambda spec, v: (int(v), spec.seg_length, spec.k_users)),
    "sweep-m-fixed-span": Kind("sweep-m-span", "number of segments M (span fixed)",
                               {"sweep": (1, 2, 5, 10, 20)},
                               lambda spec, v: (int(v), spec.d_x / int(v), spec.k_users)),
    "sweep-k": Kind("sweep-k", "number of users K", {"sweep": tuple(range(2, 21, 2)), "d_x": 50.0},
                    lambda spec, v: (spec.m_segments, spec.seg_length, int(v))),
    "convergence": Kind("convergence", "iteration",
                        {"sweep": (0,), "d_x": 50.0, "schemes": ("SA1", "SA2")}, traces=True),
    "oracle-check": Kind("oracle-check", "instance", {
        "sweep": (0,), "m_segments": 2, "q_grid": 20, "k_users": 3, "n_drops": 20,
        "schemes": ("SA1", "SA2"), "seg_length": 1.0,
    }, oracles=True),
}

# The most bytes a drop's search may hold (optimizers.drop_search_bytes): its
# grid table for every run config and, when SA1 or SA2 runs, the AO state.
MAX_TABLE_BYTES = 2 << 30

# Integer fields and their minimums (None: any integer).
_INT_MINIMUMS = {
    "n_drops": 1, "master_seed": None, "k_users": 1, "m_segments": 1, "q_grid": 2, "restarts": 0,
}


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, bad value, bad units)."""


def _whole_number(name: str, value) -> int:
    """The one integer rule: ``value`` as an int if it is a whole number, never truncated."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment: what to sweep, over what scene, how often.

    Powers are stored in dBm and converted to watts only when building radio
    configs; kappa values are dB per meter.  ``delta_m`` of None resolves to
    half a carrier wavelength.
    """

    kind: str
    sweep: tuple = ()
    n_drops: int = 100
    master_seed: int = 1
    k_users: int = 10
    m_segments: int = 5
    seg_length: float = 1.0
    d_x: float = 100.0
    d_y: float = 20.0
    height: float = 3.0
    f_c_hz: float = 28e9
    n_eff: float = 1.4
    delta_m: Optional[float] = None
    p_dbm: float = 10.0
    noise_dbm: float = -90.0
    kappa_db_per_m: tuple = (0.0,)
    q_grid: int = 1000
    schemes: tuple = ARCHITECTURES
    restarts: int = 0
    design_kappa: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}, expected one of {tuple(KINDS)}"
            )
        for name, minimum in _INT_MINIMUMS.items():
            value = _whole_number(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if minimum is not None and value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        if len(self.sweep) == 0:
            raise ConfigError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError(f"sweep values must be strictly increasing, got {self.sweep}")
        bad = [s for s in self.schemes if s not in ARCHITECTURES]
        if bad or not self.schemes:
            raise ConfigError(f"schemes must be a non-empty subset of {ARCHITECTURES}, got {self.schemes}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must not repeat, got {self.schemes}")
        # RadioConfig checks each kappa's range when _check_scenes builds the run configs
        if not self.kappa_db_per_m:
            raise ConfigError("kappa list must be non-empty")
        if len(set(self.kappa_db_per_m)) < len(self.kappa_db_per_m):
            raise ConfigError(f"kappa values must not repeat, got {self.kappa_db_per_m}")
        # -0 is the attenuation 0; + 0.0 stores it as 0.0, so outputs print it alike
        object.__setattr__(self, "kappa_db_per_m", tuple(k + 0.0 for k in self.kappa_db_per_m))
        if self.design_kappa is not None:
            object.__setattr__(self, "design_kappa", self.design_kappa + 0.0)
        if not KINDS[self.kind].swept:
            if any(s not in ("SA1", "SA2") for s in self.schemes):
                raise ConfigError(f"{self.kind} experiments support only SA1 and SA2 schemes")
            if self.restarts > 0 or self.design_kappa is not None or self.sweep != (0,):
                raise ConfigError(
                    f"{self.kind} experiments take no restarts, design_kappa or sweep, got "
                    f"restarts={self.restarts}, design_kappa={self.design_kappa}, sweep={self.sweep}"
                )
        if KINDS[self.kind].oracles:
            if self.m_segments != 2:
                raise ConfigError(f"{self.kind} experiments require m_segments = 2")
            # each segment's candidates are its q_grid points and its midpoint
            n_tuples = (self.q_grid + 1) ** self.m_segments
            if n_tuples > MAX_JOINT_TUPLES:
                raise ConfigError(f"{self.kind}'s joint grid of {n_tuples} tuples exceeds the "
                                  f"oracles' cap of {MAX_JOINT_TUPLES}; lower q_grid")
        self._check_scenes()

    def _check_scenes(self) -> None:
        """Fail now on a sweep value whose scene, radio config or AO start a run would refuse.

        It checks each distinct layout ``_sweep_layouts`` gives the run once,
        naming the first sweep value that uses it, and the configs of
        ``run_configs``, whose ``RadioConfig`` refuses a kappa or design
        kappa that is not finite and non-negative.  SA1 and SA2 start from
        every PA at its segment midpoint, so that start must pass
        ``require_feasible`` under the spec's ``delta_min``, the check the
        run makes.  Before any layout is built, a sweep value whose drop
        search would hold more than ``MAX_TABLE_BYTES`` is refused.
        """
        if KINDS[self.kind].swept and not all(
            float(v).is_integer() and v >= 1 for v in self.sweep
        ):
            raise ConfigError(
                f"{self.kind} sweep values must be integers >= 1, got {self.sweep}"
            )
        ao = bool({"SA1", "SA2"} & set(self.schemes))
        try:
            configs = self.run_configs()
            for value in self.sweep:
                m, _, k = _sweep_scene_params(self, value)
                # floats, as M, Q and K may reach 1e308; exact while below 2**53 bytes
                need = drop_search_bytes(float(m), float(self.q_grid), float(k), len(configs), ao)
                if need > MAX_TABLE_BYTES:
                    raise ValueError(
                        f"a drop's gain table at sweep value {value:g} would hold {need / 2**30:.6g} GiB "
                        f"(M = {m:g}, Q = {self.q_grid:g}, K = {k:g}, run configs = {len(configs)}"
                        f"{', with the AO index table' if ao else ''}), over the bound of "
                        f"{MAX_TABLE_BYTES / 2**30:g} GiB; lower M, Q or K")
            layouts: dict = {}  # each distinct layout once, with the first sweep value using it
            for v, (lay, _) in _sweep_layouts(self, ServiceRegion(self.d_x, self.d_y)).items():
                layouts.setdefault(id(lay), (v, lay))
            for value, layout in layouts.values():
                lo, hi = layout.span
                # every user-to-PA squared distance is at most this sum
                reach = max(hi, self.d_x) - min(lo, 0.0)
                far = reach * reach + self.d_y * self.d_y + self.height * self.height
                if not math.isfinite(far):
                    raise ValueError(f"scene at sweep value {value:g} is too large: "
                                     "its squared distances overflow")
            if ao:  # every run config has the spec's delta_min, all that the check reads
                for value, layout in layouts.values():
                    try:
                        require_feasible(next(iter(configs)), layout, Placement("SA1", layout.midpoints))
                    except ValueError as exc:
                        raise ValueError(f"the SA midpoint start at sweep value {value:g} "
                                         f"is an {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except ArithmeticError as exc:  # a dBm power too large to convert, or f_c_hz of 0
            raise ConfigError(f"a config value is out of range: {exc}") from exc

    def radio_config(self, kappa: float) -> RadioConfig:
        return RadioConfig(
            f_c=self.f_c_hz,
            n_eff=self.n_eff,
            kappa=kappa,
            delta_min=SPEED_OF_LIGHT / self.f_c_hz / 2.0 if self.delta_m is None else self.delta_m,
            p_tx=dbm_to_watts(self.p_dbm),
            noise_var=dbm_to_watts(self.noise_dbm),
        )

    def run_configs(self) -> dict[RadioConfig, tuple[tuple[float, RadioConfig], ...]]:
        """Each config an optimizer runs under, mapped to the (kappa, config) rows it serves.

        In kappa order, each kappa's config serves itself.  With
        ``design_kappa`` set, the design config alone is run and serves every
        kappa, whose rows re-evaluate its placements under their own configs.
        """
        scenarios = tuple((kappa, self.radio_config(kappa)) for kappa in self.kappa_db_per_m)
        if self.design_kappa is None:
            return {cfg: ((kappa, cfg),) for kappa, cfg in scenarios}
        try:
            design = self.radio_config(self.design_kappa)
        except ValueError as exc:  # RadioConfig names the field kappa
            raise ValueError(f"design_kappa: {exc}") from None
        return {design: scenarios}


@dataclass(frozen=True)
class ResultRow:
    """One optimizer run scored under one kappa (or, for convergence kinds, one trace point)."""

    experiment: str
    scheme: str
    kappa: float
    sweep_value: float
    drop: int
    final_mse: float
    iterations: int
    evaluations: int
    seed: int
    elapsed: float


@dataclass(frozen=True)
class AggregateRow:
    """Per-(scheme, kappa, sweep value) mean MSE and its standard error."""

    experiment: str
    scheme: str
    kappa: float
    sweep_value: float
    mean_mse: float
    stderr: float
    n_drops: int


_FIELD_TYPES = get_type_hints(ExperimentSpec)


def _parse_units(units: tuple, value) -> float:
    """A float, from a string that may end in one of ``units``' (suffix, scale) pairs."""
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, scale in units:
            if text.endswith(suffix):
                return float(text[: -len(suffix)].strip()) * scale
        return float(text)
    return float(value)


def _parse_list(value, item) -> tuple:
    """``item`` of each of a string's comma- or space-separated parts, of one number, or of a list."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    elif isinstance(value, numbers.Real):
        value = (value,)
    return tuple(item(v) for v in value)


def _scheme_name(item) -> str:
    name = str(item).strip().upper()
    return {"PASS-BASELINE": "PASS"}.get(name, name)


# Fields with unit or list syntax; every other field parses by its type.
_VALUE_PARSERS = {
    "sweep": functools.partial(_parse_list, item=float),
    "f_c_hz": functools.partial(
        _parse_units, (("ghz", 1e9), ("mhz", 1e6), ("khz", 1e3), ("hz", 1.0))
    ),
    "p_dbm": functools.partial(_parse_units, (("dbm", 1.0),)),
    "noise_dbm": functools.partial(_parse_units, (("dbm", 1.0),)),
    "kappa_db_per_m": functools.partial(_parse_list, item=float),
    "schemes": functools.partial(_parse_list, item=_scheme_name),
}
_TYPE_PARSERS = {
    str: str,
    int: int,  # a string's digits; _parse_values gives a number to _whole_number
    float: float,
    Optional[float]: lambda v: None if v is None else float(v),
}


def _parse_values(values: dict, origin: str) -> dict:
    out = {}
    for key, value in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown {origin} key: {key!r}")
        if isinstance(value, bool) or (
            isinstance(value, list) and any(isinstance(v, bool) for v in value)
        ):
            raise ConfigError(f"bad value for {key!r}: {value!r} (a boolean is not a number)")
        if isinstance(value, dict):
            raise ConfigError(f"bad value for {key!r}: {value!r} (a JSON object is not a value)")
        if key in _INT_MINIMUMS and isinstance(value, numbers.Real):
            # checked here too: a later source may override it before the spec sees it
            out[key] = _whole_number(key, value)
            continue
        try:
            parse = _VALUE_PARSERS.get(key) or _TYPE_PARSERS[_FIELD_TYPES[key]]
            out[key] = parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return out


def parse_config(
    path: Optional[Union[str, Path]] = None,
    kind: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat JSON file and/or override values.

    Precedence, lowest to highest: built-in defaults, per-kind defaults, the
    JSON file, then ``overrides`` (the CLI flags).  Keys must match
    ExperimentSpec field names exactly; unknown keys are rejected.  File and
    override values parse alike, strings included: a field parses by its
    type, except for the unit conveniences: f_c_hz accepts strings like
    "28 GHz"; p_dbm and noise_dbm accept "10 dBm"; kappa_db_per_m, sweep
    and schemes accept one value, a list, or a comma- or space-separated
    string.  A file or an override naming a kind other than one named
    before it is an error.
    """
    file_values: dict = {}
    if path is not None:
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        file_values = _parse_values(loaded, "config")
    override_values = _parse_values(overrides or {}, "override")

    resolved_kind = kind
    for origin, named in ((f"config file {path}", file_values.get("kind")),
                          ("the overrides", override_values.get("kind"))):
        if resolved_kind is not None and named is not None and named != resolved_kind:
            raise ConfigError(f"{origin} names kind {named!r}, not {resolved_kind!r}")
        resolved_kind = resolved_kind or named
    if resolved_kind is None:
        raise ConfigError("no experiment kind given")

    kind_defaults = KINDS[resolved_kind].defaults if resolved_kind in KINDS else {}
    return ExperimentSpec(
        **{**kind_defaults, **file_values, **override_values, "kind": resolved_kind}
    )


def _sweep_scene_params(spec: ExperimentSpec, sweep_value: float) -> tuple[int, float, int]:
    """Resolve (m_segments, seg_length, k_users) for one sweep value."""
    scene = KINDS[spec.kind].scene
    return scene(spec, sweep_value) if scene else (spec.m_segments, spec.seg_length, spec.k_users)


def _sweep_layouts(spec: ExperimentSpec, region: ServiceRegion) -> dict:
    """Each sweep value's (layout, k_users), with one layout object per distinct (M, L)."""
    layouts: dict = {}
    out = {}
    for value in spec.sweep:
        m, seg_len, k = _sweep_scene_params(spec, value)
        if (m, seg_len) not in layouts:
            layouts[m, seg_len] = build_layout(m, seg_len, region, spec.height)
        out[value] = layouts[m, seg_len], k
    return out


def _run(
    tag: str, cfg: RadioConfig, scene: Scene, spec: ExperimentSpec, drop: int, grids: DropGrids
) -> tuple[RunRecord, int]:
    """One optimizer run on a drop, and the seed its row records.

    That seed is the drop's, or, when a random restart beats the midpoint
    start, the seed that drew the winning restart's init.  An "-oracle" tag
    runs its AO scheme's joint brute-force oracle, whose candidates are each
    segment's grid and its midpoint, the AO start an AO run may keep.
    It looks up every optimizer (SS, PASS, both AOs and both oracles) as a
    module global at call time, so a wrapper swapped in for one of these
    names (perfbench's probe does so) is the one called.
    """
    seed = derive_seed(spec.master_seed, drop)
    q = spec.q_grid
    if tag == "SS":
        return ss_two_stage(cfg, scene, q, grids=grids), seed
    if tag == "PASS":
        return pass_baseline(cfg, scene, q, grids=grids), seed
    if tag.endswith("-oracle"):
        oracle = sa1_joint_exhaustive if tag == "SA1-oracle" else sa2_joint_exhaustive
        return oracle(cfg, scene, q, grids=grids), seed
    runner = sa1_ao if tag == "SA1" else sa2_ao
    run = functools.partial(runner, cfg, scene, q, grids=grids)
    best = run()
    for r in range(spec.restarts):
        r_seed = derive_seed(spec.master_seed, drop, _RESTART_TAG + r)
        rec = run(init=random_init(scene, tag, r_seed, cfg.delta_min))
        if rec.final_mse < best.final_mse:
            best, seed = rec, r_seed
    return best, seed


def _cells(spec: ExperimentSpec) -> Iterator[tuple[ResultRow, RunRecord]]:
    """One (ResultRow, RunRecord) per (optimizer run, kappa it serves), in experiment order.

    Runs nest as (drop, sweep value, scheme, run config), and each run's
    rows follow it in kappa order, so rows nest as (drop, sweep value,
    scheme, kappa).  A drop's users are drawn once, from (master_seed,
    drop) alone, at the sweep's largest K, and each sweep value sees the
    first K of them: ``sample_users`` draws a user's position from the
    stream ahead of any later user's, so that scene is the one a draw of
    K users gives, and every sweep value, scheme, and kappa sees the same
    drops.  ``spec.run_configs()`` decides the runs: one per kappa, or
    with ``design_kappa`` set one under the design config whose placement
    each kappa's row re-evaluates.  For oracle-check (``oracles``) every AO
    run is followed by its joint oracle run, whose scheme name is suffixed
    "-oracle".  Every run on a (drop, sweep value) reads one grid table,
    built for the run configs.  When consecutive sweep values share a
    layout (sweep-k's K), the next table takes over the last one's blocks,
    which gain only the new users' columns when a run first reads them.
    A row's ``elapsed`` is its own re-evaluation, plus, on the first row
    of a run, the run (with any block building it caused), so per-drop
    sums count each run once.
    """
    region = ServiceRegion(spec.d_x, spec.d_y)
    serves = spec.run_configs()
    layouts = _sweep_layouts(spec, region)
    k_max = max(k for _, k in layouts.values())
    for drop in range(spec.n_drops):
        users = sample_users(region, k_max, derive_seed(spec.master_seed, drop)).positions
        grids = None
        for sweep_value, (layout, k) in layouts.items():
            scene = Scene(layout, UserDrop(users[:k]))
            prior = grids if grids is not None and grids.scene.layout is layout else None
            grids = DropGrids(scene, spec.q_grid, tuple(serves), prior)
            for scheme in spec.schemes:
                tags = (scheme, scheme + "-oracle") if KINDS[spec.kind].oracles else (scheme,)
                for run_cfg, scenarios in serves.items():
                    for tag in tags:
                        t0 = time.perf_counter()
                        rec, seed = _run(tag, run_cfg, scene, spec, drop, grids)
                        for kappa, cfg in scenarios:
                            final = (
                                rec.final_mse if cfg is run_cfg
                                else evaluate_placement(cfg, scene, rec.placement)
                            )
                            row = ResultRow(
                                experiment=spec.kind,
                                scheme=tag,
                                kappa=kappa,
                                sweep_value=float(sweep_value),
                                drop=drop,
                                final_mse=final,
                                iterations=rec.iterations,
                                evaluations=rec.evaluations,
                                seed=seed,
                                elapsed=time.perf_counter() - t0,
                            )
                            yield row, rec
                            t0 = time.perf_counter()


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every cell of the experiment, one row per optimizer run and kappa it serves.

    Rows nest as (drop, sweep value, scheme, kappa); for oracle-check each
    AO row is followed by its "-oracle" row.  Sweep-k draws each drop's
    users once and reuses their gain columns from one K to the next.  For
    convergence (``traces``) the rows are per-iteration MSE traces, emitted
    iteration-major with sweep_value carrying the iteration index and
    ``elapsed`` only on iteration 0.  Traces shorter than the longest one
    are padded with their final value (the optimizer would hold that MSE if
    swept further), keeping every iteration's aggregate over the same
    number of drops.
    """
    if not KINDS[spec.kind].traces:
        return [row for row, _ in _cells(spec)]
    runs = list(_cells(spec))
    max_len = max(len(rec.mse_trace) for _, rec in runs)
    return [
        dataclasses.replace(
            row,
            sweep_value=float(it),
            final_mse=rec.mse_trace[min(it, len(rec.mse_trace) - 1)],
            elapsed=row.elapsed if it == 0 else 0.0,
        )
        for it in range(max_len)
        for row, rec in runs
    ]


def aggregate(rows: Sequence[ResultRow]) -> list[AggregateRow]:
    """Mean and standard error of final_mse per (scheme, kappa, sweep value).

    Groups appear in first-appearance order; the standard error uses the
    sample standard deviation (ddof = 1) over drops, 0 for a single drop.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    groups: dict[tuple, list[float]] = {}
    experiments: dict[tuple, str] = {}
    for row in rows:
        key = (row.scheme, row.kappa, row.sweep_value)
        groups.setdefault(key, []).append(row.final_mse)
        experiments.setdefault(key, row.experiment)
    out = []
    for key, values in groups.items():
        scheme, kappa, sweep_value = key
        n = len(values)
        arr = np.asarray(values)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out.append(
            AggregateRow(
                experiment=experiments[key],
                scheme=scheme,
                kappa=kappa,
                sweep_value=sweep_value,
                mean_mse=mean,
                stderr=stderr,
                n_drops=n,
            )
        )
    return out


def _csv_number(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRow) if f.name != "elapsed")
_AGG_FIELDS = tuple(f.name for f in dataclasses.fields(AggregateRow))


def emit_csv(
    rows: Sequence[Union[ResultRow, AggregateRow]],
    path: Union[str, Path],
    include_elapsed: bool = False,
) -> None:
    """Write result or aggregate rows as RFC-4180-style CSV with LF endings.

    Floats are printed with 17 significant digits so they round-trip exactly.
    The wall-clock ``elapsed`` column is only written on request because it
    would break byte-for-byte reproducibility of repeated runs.
    """
    import csv as _csv

    path = Path(path)
    if rows and isinstance(rows[0], AggregateRow):
        fields = _AGG_FIELDS
    else:
        fields = _RESULT_FIELDS + (("elapsed",) if include_elapsed else ())
    with open(path, "w", newline="") as f:
        writer = _csv.writer(f, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow(_csv_number(getattr(row, name)) for name in fields)


def emit_plot(aggregates: Sequence[AggregateRow], path: Union[str, Path], log_y: bool = False) -> None:
    """Plot mean MSE per (scheme, kappa) series against the sweep axis.

    Raises on an empty aggregate list before touching the filesystem.
    """
    if not aggregates:
        raise ValueError("no aggregates to plot")
    kappas = sorted({a.kappa for a in aggregates})
    series_map: dict[tuple, tuple[list, list]] = {}
    for agg in aggregates:
        key = (agg.scheme, agg.kappa)
        xs, ys = series_map.setdefault(key, ([], []))
        xs.append(agg.sweep_value)
        ys.append(agg.mean_mse)
    series = []
    for (scheme, kappa), (xs, ys) in series_map.items():
        label = scheme if len(kappas) == 1 else f"{scheme} kappa={kappa:g}"
        series.append((label, xs, ys))
    x_label = KINDS[aggregates[0].experiment].x_label
    text = svgplot.render_line_chart(series, x_label=x_label, y_label="mean MSE", log_y=log_y)
    Path(path).write_text(text)


def write_metadata(spec: ExperimentSpec, out_dir: Union[str, Path], files: Sequence[str]) -> Path:
    """Write the fully resolved run parameters and seeds as deterministic JSON."""
    from . import __version__

    cfg = spec.radio_config(spec.kappa_db_per_m[0])
    meta = {
        "spec": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in dataclasses.asdict(spec).items()},
        "derived": {
            "wavelength_m": cfg.wavelength,
            "delta_min_m": cfg.delta_min,
            "p_tx_w": cfg.p_tx,
            "noise_var_w": cfg.noise_var,
        },
        "drop_seeds": [derive_seed(spec.master_seed, d) for d in range(spec.n_drops)],
        "outputs": list(files),
        "version": __version__,
    }
    path = Path(out_dir) / "metadata.json"
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def execute(
    spec: ExperimentSpec,
    out_dir: Union[str, Path],
    quiet: bool = False,
    log_y: bool = False,
    include_elapsed: bool = False,
) -> dict[str, Path]:
    """Run the experiment and write results.csv, aggregates.csv, plot.svg."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_experiment(spec)
    aggs = aggregate(rows)
    paths = {
        "results": out / "results.csv",
        "aggregates": out / "aggregates.csv",
        "plot": out / "plot.svg",
    }
    # the plot first: it is the one output whose rendering can refuse (a log
    # scale of a zero MSE), and it refuses before any file is written
    emit_plot(aggs, paths["plot"], log_y=log_y)
    emit_csv(rows, paths["results"], include_elapsed=include_elapsed)
    emit_csv(aggs, paths["aggregates"])
    paths["metadata"] = write_metadata(
        spec, out, [p.name for p in paths.values()]
    )
    elapsed = time.perf_counter() - t0
    if not quiet:
        for agg in aggs:
            print(
                f"{agg.scheme:12s} kappa={agg.kappa:<6g} sweep={agg.sweep_value:<8g} "
                f"mean_mse={agg.mean_mse:.6g} stderr={agg.stderr:.3g} n={agg.n_drops}"
            )
        print(f"wrote {', '.join(str(p) for p in paths.values())}", file=sys.stderr)
        print(f"total wall time: {elapsed:.2f} s", file=sys.stderr)
    return paths
