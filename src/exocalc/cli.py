"""Command-line surface: single evaluations, sweeps, identity batches, CSV/SVG.

Exit codes: 0 ok, 2 config error, 3 degenerate parameters, 4 numerical
instability.  Every CSV starts with a ``# schema=1`` comment line and a
fixed header; identical config + seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import cartan as cartan_mod
from . import metric as metric_mod
from .core import ThetaField
from .dispersion import (
    BoxRegion,
    ComplexMomentum,
    DegenerateParameterError,
    constrained_spectrum,
    delta_sigma,
    spectrum_reference_approx,
)
from .forms import (
    d_squared_check,
    dilated_connection,
    exotic_d,
    field_strength,
    homotopy_lemma_check,
    leibniz_check,
    random_form,
    random_linear_theta,
)
from .pde import InstabilityError, SimGrid, WavePacket, fit_decay_rate, simulate_time_domain

SCHEMA_LINE = "# schema=1"
# the float format of every CSV cell but ``delta_diag`` (``fmt6``); ``fmt`` and the
# snapshot blocks use it
FLOAT_SPEC = "%.12e"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------- utils


def fmt(x) -> str:
    """Canonical float formatting shared by implementation and fixture paths."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_SPEC % float(x)


def fmt6(x) -> str:
    return format(float(x), ".6e")


def write_csv(path: Path, header: str, rows) -> Path:
    """Write the schema line, ``header`` and ``rows``.

    Each item of ``rows`` is a list of cell strings or a text block of whole
    lines.  Items are written as they arrive, so a generator of blocks is
    streamed to the file without the table being held in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(row) + "\n")
    return path


def write_svg_line(path: Path, xs, ys, title: str, x_label: str, y_label: str) -> Path:
    """Minimal static line chart; no plotting dependency, deterministic bytes."""
    width, height, pad = 640, 420, 50
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v):
        return pad + (v - x_lo) / x_span * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y_lo) / y_span * (height - 2 * pad)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="14" y="{height/2:.0f}" font-size="12" transform="rotate(-90 14 {height/2:.0f})" text-anchor="middle">{y_label}</text>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="end">{x_hi:.4g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" font-size="10" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" font-size="10" text-anchor="end">{y_hi:.4g}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _finite(value, where: str) -> float:
    """``value`` as a float; it must be a finite JSON number (not a bool)."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def sweep_values(spec) -> list:
    """A sweep axis is a number, a list of numbers or {start, stop, count} (inclusive)."""
    if isinstance(spec, list):
        if not spec:
            raise ConfigError("empty sweep range")
        return [_finite(v, "sweep value") for v in spec]
    if not isinstance(spec, dict):
        return [_finite(spec, "sweep value")]
    if spec.keys() != {"start", "stop", "count"}:
        raise ConfigError(f"bad sweep spec: {spec!r}")
    start, stop = _finite(spec["start"], "sweep start"), _finite(spec["stop"], "sweep stop")
    count = spec["count"]
    if type(count) is not int or count < 1:
        raise ConfigError(f"sweep count must be an integer >= 1, got {count!r}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [_finite(start + i * step, "sweep value") for i in range(count)]


# ------------------------------------------------------------------- config


DEFAULTS = {
    "metric": {
        "theta_grad": [0.0, 0.01, 0.0, 0.0],
        "points": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
        "probe": [1.0, 1.0, 1.0, 1.0],
    },
    "lightcone": {
        "theta_dot": 0.0,
        "theta_prime": 0.01,
        "c": 1.0,
        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    },
    "spectrum": {
        "theta_dot": {"start": 0.01, "stop": 0.05, "count": 5},
        "grad_norm": {"start": 0.0, "stop": 0.004, "count": 5},
        "m": [1.0],
        "box": {"t0": 0.0, "t1": 1.0, "spatial": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]},
    },
    "simulate": {
        "grid": {
            "x_min": 0.0,
            "x_max": 200.0,
            "n_x": 512,
            "dt": 0.3,
            "n_t": 1024,
            "bc": "periodic",
            "snapshot_stride": 32,
        },
        "m": 1.0,
        "theta_dot": 0.02,
        "theta_prime": 0.0,
        "include_x_term": False,
        "packet": {"center": 100.0, "width": 12.0, "wavenumber": 0.5, "amplitude": 1.0},
        "fit_window": None,
    },
    "forms-check": {"seeds": 20, "dimension": 3, "degree": 2},
    "cartan": {"samples": 1000},
}


# spectrum's sweep axes take several forms; ``sweep_values`` checks them
SWEEP_AXES = ("theta_dot", "grad_norm", "m")


def _typed(value, default, where: str):
    """``value`` typed as ``default`` is (README, "Config types"); a ``None``
    default (``fit_window``) is left to its command's parser."""
    if default is None or (type(default) in (bool, int, str) and type(value) is type(default)):
        return value
    if type(default) is float:
        return _finite(value, where)
    if isinstance(default, dict) and isinstance(value, dict):
        return {key: _typed(value[key], sub, f"{where}.{key}") for key, sub in default.items()}
    if isinstance(default, list) and isinstance(value, list):
        if isinstance(default[0], list):
            return [_typed(row, default[0], f"{where}[{i}]") for i, row in enumerate(value)]
        if len(value) == len(default):
            return [_typed(v, d, f"{where}[{i}]") for i, (v, d) in enumerate(zip(value, default))]
    raise ConfigError(f"{where} must be typed like its default {default!r}, got {value!r}")


def load_config(command: str, path: str | None, overrides: list) -> dict:
    """The merged config of ``command``, typed against ``DEFAULTS[command]``."""
    cfg = copy.deepcopy(DEFAULTS[command])

    def merge(node: dict, key: str, value, where: str):
        """Set ``node[key]``; a dict given for a dict section merges key by key."""
        if key not in node:
            raise ConfigError(f"unknown config key {where!r} for {command!r}")
        if isinstance(node[key], dict) and isinstance(value, dict):
            for sub, sub_value in value.items():
                merge(node[key], sub, sub_value, f"{where}.{sub}")
        else:
            node[key] = value

    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in data.items():
            merge(cfg, key, value, key)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"unknown config key {key!r} for {command!r}")
            node = node[part]
        merge(node, leaf, value, key)
    own_parser = SWEEP_AXES if command == "spectrum" else ()
    return {k: v if k in own_parser else _typed(v, DEFAULTS[command][k], k) for k, v in cfg.items()}


# ------------------------------------------------------------------ commands


METRIC_HEADER = (
    "idx,t,x,y,z,eta_00,eta_01,eta_02,eta_03,eta_11,eta_12,eta_13,eta_22,eta_23,"
    "eta_33,witness_norm,validity_ratio"
)


def metric_rows(cfg: dict):
    theta = ThetaField.linear(tuple(cfg["theta_grad"]))
    probe = tuple(cfg["probe"])
    rows = []
    for idx, point in enumerate(cfg["points"]):
        x = tuple(point)
        g = metric_mod.metric_full(x, theta)
        witness = metric_mod.degeneracy_witness(probe, x, theta)
        w_norm = math.sqrt(sum(float(w) ** 2 for w in witness))
        ratio = metric_mod.validity_ratio(x, theta)
        row = [str(idx)] + [fmt(c) for c in x]
        row += [fmt(g[a, b]) for a in range(4) for b in range(a, 4)]
        row += [fmt(w_norm), fmt(ratio)]
        rows.append(row)
    return METRIC_HEADER, rows


LIGHTCONE_HEADER = "t,x,theta_dot,theta_prime,c,u_plus,u_minus,residual_plus,residual_minus"


def lightcone_rows(cfg: dict):
    td, tp, c = cfg["theta_dot"], cfg["theta_prime"], cfg["c"]
    if not c > 0:
        raise ConfigError(f"light speed c must be positive, got {c!r}")
    rows = []
    for t, x in cfg["points"]:
        u_plus, u_minus = metric_mod.lightcone_velocity(t, x, td, tp, c)
        res_p = metric_mod.interval_2d(1.0, u_plus, t, x, td, tp, c)
        res_m = metric_mod.interval_2d(1.0, u_minus, t, x, td, tp, c)
        rows.append(
            [fmt(t), fmt(x), fmt(td), fmt(tp), fmt(c), fmt(u_plus), fmt(u_minus), fmt(res_p), fmt(res_m)]
        )
    return LIGHTCONE_HEADER, rows


SPECTRUM_HEADER = (
    "theta_dot,grad_norm,m,reE_plus,imE_plus,reE_minus,imE_minus,"
    "reE_paper,imE_paper,delta_diag"
)


def _box_from_config(spec: dict) -> BoxRegion:
    try:
        return BoxRegion(spec["t0"], spec["t1"], tuple(map(tuple, spec["spatial"])))
    except ValueError as exc:
        raise ConfigError(f"bad box spec: {spec!r}") from exc


def spectrum_rows(cfg: dict, spectrum_fn=None, delta_fn=None):
    """Rows of the aligned-spectrum sweep.

    ``spectrum_fn`` and ``delta_fn`` default to the implementation; the
    fixture generator passes the oracle routes instead.
    """
    spectrum_fn = spectrum_fn or constrained_spectrum
    delta_fn = delta_fn or delta_sigma
    box = _box_from_config(cfg["box"])
    axes = [sweep_values(cfg[axis]) for axis in SWEEP_AXES]

    def one(td, gn, m):
        v = (td, gn, 0.0, 0.0)
        e_plus, e_minus = spectrum_fn(v, m)
        ref = spectrum_reference_approx(td, gn, m)
        p = ComplexMomentum.constrained(v, e_plus)
        v_norm = math.hypot(td, gn)
        diag = v_norm * abs(delta_fn(p, box))
        return [
            fmt(td),
            fmt(gn),
            fmt(m),
            fmt(e_plus.real),
            fmt(e_plus.imag),
            fmt(e_minus.real),
            fmt(e_minus.imag),
            fmt(ref[0].real),
            fmt(ref[0].imag),
            fmt6(diag),
        ]

    return SPECTRUM_HEADER, [one(*point) for point in itertools.product(*axes)]


FORMS_HEADER = "identity,seed,dimension,degree,residual_grade,pass"

FORMS_IDENTITIES = ("leibniz", "d_squared", "d_cubed", "homotopy", "field_strength")

# residual-grade contract per identity: exact zero, or the stated minimal grade
_FORMS_PASS_GRADE = {
    "leibniz": math.inf,
    "d_squared": 2,
    "d_cubed": 2,
    "homotopy": 1,
    "field_strength": 2,
}


def forms_identity_rows(seed: int, n_max: int, deg_max: int, d_fn=None):
    """Residual grades of the five identity checks for one seeded draw.

    ``d_fn`` selects the deformed-derivative route (defaults to the sparse
    engine; the fixture generator passes the dense oracle route).  Only
    ``d_cubed`` and the field strength have no :mod:`exocalc.forms` check.
    """
    from .poly import random_multipoly

    # passed explicitly: the checks' default binds exotic_d at definition time
    d_fn = d_fn or exotic_d
    rng = random.Random(seed)
    dim = rng.randint(2, max(2, n_max))
    deg = rng.randint(0, min(deg_max, dim - 1))
    theta = random_linear_theta(rng, dim)

    w = random_form(rng, dim, deg, max_poly_degree=deg_max)
    other = random_form(rng, dim, rng.randint(0, min(deg_max, dim - 1)), max_poly_degree=deg_max)

    leib = leibniz_check(w, other, theta, d_fn=d_fn)
    d_squared, dd = d_squared_check(w, theta, d_fn=d_fn)
    ddd = d_fn(dd, theta)

    ext = random_form(rng, dim + 1, rng.randint(1, dim), max_poly_degree=deg_max, lambda_active=True)
    hom = homotopy_lemma_check(ext, theta, d_fn=d_fn)

    a_comps = [random_multipoly(rng, dim, min(deg_max, 2)) for _ in range(dim)]
    fs = field_strength(a_comps, theta) - d_fn(dilated_connection(a_comps, theta), theta)

    residuals = {
        "leibniz": leib,
        "d_squared": d_squared,
        "d_cubed": ddd,
        "homotopy": hom,
        "field_strength": fs,
    }
    rows = []
    for name in FORMS_IDENTITIES:
        grade = residuals[name].eps_grade()
        ok = grade >= _FORMS_PASS_GRADE[name]
        rows.append([name, str(seed), str(dim), str(deg), fmt_grade(grade), "1" if ok else "0"])
    return rows


def fmt_grade(grade) -> str:
    return "inf" if math.isinf(grade) else str(int(grade))


def forms_check_rows(cfg: dict, seed: int, d_fn=None):
    n_max, deg_max, count = cfg["dimension"], cfg["degree"], cfg["seeds"]
    if not 2 <= n_max <= 4:
        raise ConfigError("dimension must be between 2 and 4")
    if not 0 <= deg_max <= 3:
        raise ConfigError("degree must be between 0 and 3")
    if count < 1:
        raise ConfigError(f"seeds must be >= 1, got {count}")
    rows = [
        row
        for s in range(seed, seed + count)
        for row in forms_identity_rows(s, n_max, deg_max, d_fn)
    ]
    return FORMS_HEADER, rows


CARTAN_HEADER = "idx,roundtrip_err,nullity_residual,det_residual"


def cartan_rows(cfg: dict, seed: int):
    n = cfg["samples"]
    if n < 0:
        raise ConfigError(f"samples must be >= 0, got {n}")
    rng = random.Random(seed)
    rows = []
    for idx in range(n):
        s = (
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
        )
        v = cartan_mod.spinor_to_point(s)
        scale = max(1.0, v[0] * v[0])
        nullity = abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2) / scale
        if v[0] > 1e-12:
            back = cartan_mod.spinor_to_point(cartan_mod.point_to_spinor(v))
            roundtrip = max(abs(a - b) for a, b in zip(v, back)) / max(1.0, abs(v[0]))
        else:
            roundtrip = 0.0
        lam = np.array(
            [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                for _ in range(2)
            ]
        )
        det = np.linalg.det(lam)
        if abs(det) < 1e-8:
            lam = lam + np.eye(2)
            det = np.linalg.det(lam)
        lam = lam / np.sqrt(abs(det))
        vm = cartan_mod.outer_matrix(s)
        out = cartan_mod.sl2c_act(lam, vm)
        det_res = abs(np.linalg.det(out) - np.linalg.det(vm))
        rows.append([str(idx), fmt(roundtrip), fmt(nullity), fmt(det_res)])
    return CARTAN_HEADER, rows


def _fit_window(spec, times: np.ndarray) -> tuple:
    """The first and last snapshot ``times`` the fit window selects.

    ``spec`` is ``[t_start, t_end]`` or ``None`` for every time after 0; it
    must select at least 3 snapshots.
    """
    if spec is None:
        selected = times[1:]
    else:
        if not isinstance(spec, list) or len(spec) != 2:
            raise ConfigError(f"fit_window must be [t_start, t_end], got {spec!r}")
        t_a, t_b = (_finite(v, "fit_window") for v in spec)
        selected = times[(times >= t_a) & (times <= t_b)]
    if len(selected) < 3:
        raise ConfigError(
            f"fit window selects {len(selected)} stored snapshots, fewer than 3"
        )
    return float(selected[0]), float(selected[-1])


def _snapshot_blocks(times, xs, snapshots):
    """The ``t,x,re_phi,im_phi`` rows as one text block per snapshot.

    Every cell reads as ``fmt`` of its value: ``x`` is formatted once,
    ``t`` once per snapshot, and a snapshot's real and imaginary parts in
    one ``%`` operation on a row template repeated along ``x``.
    """
    value_cell = "," + FLOAT_SPEC
    row_tails = ["," + FLOAT_SPEC % x + value_cell * 2 + "\n" for x in xs.tolist()]
    parts = np.ascontiguousarray(snapshots, dtype=np.complex128).view(np.float64)
    for t, values in zip(times.tolist(), parts):
        t_cell = FLOAT_SPEC % t
        yield (t_cell + t_cell.join(row_tails)) % tuple(values.tolist())


def simulate_outputs(cfg: dict, out_dir: Path, svg: bool):
    try:
        grid = SimGrid(**cfg["grid"])
        grid.check_cfl()
        packet = WavePacket(**cfg["packet"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["include_x_term"] and grid.bc != "dirichlet":
        raise ConfigError("the point-dependent term requires dirichlet boundaries")
    window = _fit_window(cfg["fit_window"], grid.snapshot_times())
    if packet.width**2 == 0:
        raise DegenerateParameterError(f"packet width {packet.width!r} squares to zero")
    simulate_time_domain(
        grid, cfg["m"], cfg["theta_dot"], cfg["theta_prime"], cfg["include_x_term"], packet,
    )
    try:
        rate = fit_decay_rate(grid, window)
    except ValueError as exc:
        # the window was checked above, so only a vanishing field fails the fit
        raise DegenerateParameterError(str(exc)) from exc

    snap_path = write_csv(
        out_dir / "simulate_snapshots.csv",
        "t,x,re_phi,im_phi",
        _snapshot_blocks(grid.times, grid.xs(), grid.snapshots),
    )

    log_amp = np.log(grid.l2_norms())
    summary_rows = [
        [fmt(t), fmt(a), fmt(rate)] for t, a in zip(grid.times, log_amp)
    ]
    summary_path = write_csv(
        out_dir / "simulate_summary.csv", "t,log_l2_amplitude,fitted_rate", summary_rows
    )
    written = [snap_path, summary_path]
    if svg:
        written.append(
            write_svg_line(
                out_dir / "simulate.svg",
                grid.times,
                log_amp,
                "log amplitude vs time",
                "t",
                "log ||phi||",
            )
        )
    return written


# ---------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exocalc",
        description="Deformed flat-spacetime calculus: metric, light cone, spectrum, "
        "simulation, exterior-calculus identity checks, spinor-point maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config document")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config scalar (repeatable, dotted keys allowed)",
        )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=42, help="random seed (u64)")
        p.add_argument("--svg", action="store_true", help="also write SVG plots")
    return parser


def run(args) -> list:
    out_dir = Path(args.out)
    cfg = load_config(args.command, args.config, args.set)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # checked before compute, so a bad path wastes no run
        raise ConfigError(f"cannot use output directory {out_dir}: {exc}") from exc
    if args.command == "metric":
        header, rows = metric_rows(cfg)
        return [write_csv(out_dir / "metric.csv", header, rows)]
    if args.command == "lightcone":
        header, rows = lightcone_rows(cfg)
        return [write_csv(out_dir / "lightcone.csv", header, rows)]
    if args.command == "spectrum":
        header, rows = spectrum_rows(cfg)
        written = [write_csv(out_dir / "spectrum.csv", header, rows)]
        if args.svg and rows:
            written.append(
                write_svg_line(
                    out_dir / "spectrum.svg",
                    [float(r[0]) for r in rows],
                    [float(r[4]) for r in rows],
                    "Im E+ vs theta_dot",
                    "theta_dot",
                    "Im E+",
                )
            )
        return written
    if args.command == "simulate":
        return simulate_outputs(cfg, out_dir, args.svg)
    if args.command == "forms-check":
        header, rows = forms_check_rows(cfg, args.seed)
        return [write_csv(out_dir / "forms_check.csv", header, rows)]
    if args.command == "cartan":
        header, rows = cartan_rows(cfg, args.seed)
        return [write_csv(out_dir / "cartan.csv", header, rows)]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        written = run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateParameterError, OverflowError, ZeroDivisionError) as exc:
        # a finite input can still overflow, or underflow to a zero divisor, once squared
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 3
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
