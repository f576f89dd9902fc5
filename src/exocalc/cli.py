"""Command-line surface: single evaluations, sweeps, identity batches, CSV/SVG.

Exit codes: 0 ok, 2 config error, 3 degenerate parameters, 4 numerical
instability.  Every CSV starts with a ``# schema=1`` comment line and a
fixed header; identical config + seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import errno
import itertools
import math
import os
import random
import sys
from pathlib import Path

# each command imports its own layer when it runs, so ``metric``, ``lightcone``
# and ``forms-check`` never load numpy, and only ``simulate`` and ``cartan`` the
# bulk cell formatter (:mod:`exocalc.cells`)
from .core import DegenerateParameterError, InstabilityError

SCHEMA_LINE = "# schema=1"
# the float format of every CSV cell but ``delta_diag`` (``fmt6``); ``fmt`` and the
# bulk cell formatter use it
FLOAT_SPEC = "%.12e"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------- utils


def fmt(x) -> str:
    """Canonical cell, shared by implementation and fixture paths: an ``int`` as its digits."""
    if type(x) is int:
        return str(x)
    return FLOAT_SPEC % float(x)


def fmt6(x) -> str:
    return format(float(x), ".6e")


def write_csv(path: Path, header: str, rows) -> Path:
    """Write the schema line, ``header`` and ``rows``.

    Each item of ``rows`` is a list of cell strings, a whole line as ``str``
    (``cartan_rows``), or a block of whole lines as ASCII ``bytes``
    (``cells._snapshot_blocks``), which goes to the file as it is. Items are written
    as they arrive, so a generator of blocks is streamed to the file without
    the table being held in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"{SCHEMA_LINE}\n{header}\n".encode())
        for row in rows:
            if not isinstance(row, bytes):
                row = (row if isinstance(row, str) else ",".join(row) + "\n").encode()
            fh.write(row)
            del row  # so a written block is freed before the next one is built
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


def publish(out_dir: Path, files: dict) -> list:
    """Write ``files``, ``{name: (write, *args)}``, into ``out_dir`` all or none:
    each under a hidden temporary name, renamed into place after the last is
    written. A target that is a directory fails the run before any file is
    written, so no earlier file under a target's name is lost to it. Any
    exception removes the temporary and renamed files; an ``OSError`` is a
    config error naming the path that failed."""
    temps = {name: out_dir / f".{name}.tmp" for name in files}
    placed = []
    try:
        for path in map(out_dir.joinpath, files):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for name, (write, *args) in files.items():
            path = temps[name]
            write(path, *args)
        for name, temp in temps.items():
            path = out_dir / name
            placed.append(temp.replace(path))
    except BaseException as exc:
        for done in [*temps.values(), *placed]:
            with contextlib.suppress(OSError):
                done.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    return placed


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
    if isinstance(default, dict) and isinstance(value, dict) and value.keys() == default.keys():
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

    def merge(node: dict, doc: dict, keys: dict, prefix: str = ""):
        """Merge ``doc`` into ``node`` key by key. Each key must be in ``keys``, ``node``'s DEFAULTS
        section, or in ``node`` where its default is no section (a sweep axis given as a range)."""
        for key, value in doc.items():
            where = prefix + key
            if key not in keys:
                raise ConfigError(f"unknown config key {where!r} for {command!r}")
            if isinstance(node.get(key), dict) and isinstance(value, dict):
                merge(node[key], value, keys[key] if isinstance(keys[key], dict) else node[key], f"{where}.")
            else:
                node[key] = value

    if path is not None or overrides:
        import json  # only a config document or a ``--set`` value is JSON
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        merge(cfg, data, DEFAULTS[command])
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):  # ``a.b=v`` is the document {"a": {"b": v}}
            value = {part: value}
        merge(cfg, value, DEFAULTS[command])
    own_parser = SWEEP_AXES if command == "spectrum" else ()
    return {k: v if k in own_parser else _typed(v, DEFAULTS[command][k], k) for k, v in cfg.items()}


# ------------------------------------------------------------------ commands


METRIC_HEADER = (
    "idx,t,x,y,z,eta_00,eta_01,eta_02,eta_03,eta_11,eta_12,eta_13,eta_22,eta_23,"
    "eta_33,witness_norm,validity_ratio"
)


def metric_rows(cfg: dict):
    from . import metric as metric_mod

    grad = tuple(cfg["theta_grad"])
    probe = tuple(cfg["probe"])
    rows = []
    for idx, point in enumerate(cfg["points"]):
        x = tuple(point)
        g = metric_mod.metric_full(x, grad)
        witness = metric_mod.degeneracy_witness(probe, x, grad)
        w_norm = math.sqrt(sum(float(w) ** 2 for w in witness))
        ratio = metric_mod.validity_ratio(x, grad)
        row = [str(idx)] + [fmt(c) for c in x]
        row += [fmt(g[a][b]) for a in range(4) for b in range(a, 4)]
        row += [fmt(w_norm), fmt(ratio)]
        rows.append(row)
    return METRIC_HEADER, rows


LIGHTCONE_HEADER = "t,x,theta_dot,theta_prime,c,u_plus,u_minus,residual_plus,residual_minus"


def lightcone_rows(cfg: dict):
    from . import metric as metric_mod

    td, tp, c = cfg["theta_dot"], cfg["theta_prime"], cfg["c"]
    if not c > 0:
        raise ConfigError(f"light speed c must be positive, got {c!r}")
    rows = []
    for t, x in cfg["points"]:
        u_plus, u_minus = metric_mod.lightcone_velocity(t, x, td, tp, c)
        res_p = metric_mod.interval_2d(1.0, u_plus, t, x, td, tp, c)
        res_m = metric_mod.interval_2d(1.0, u_minus, t, x, td, tp, c)
        rows.append([fmt(v) for v in (t, x, td, tp, c, u_plus, u_minus, res_p, res_m)])
    return LIGHTCONE_HEADER, rows


SPECTRUM_HEADER = (
    "theta_dot,grad_norm,m,reE_plus,imE_plus,reE_minus,imE_minus,"
    "reE_paper,imE_paper,delta_diag"
)


def spectrum_rows(cfg: dict):
    """Rows of the aligned-spectrum sweep.

    ``dispersion.constrained_spectrum`` and ``dispersion.delta_sigma`` are
    looked up when a row is built, so the fixture generator can rebind them
    to the oracle routes.
    """
    from . import dispersion

    spec = cfg["box"]
    box = ((spec["t0"], spec["t1"]), *spec["spatial"])
    if len(box) != 4 or not all(hi > lo for lo, hi in box):
        raise ConfigError(
            f"box needs t1 > t0 and three spatial intervals with hi > lo, got {spec!r}"
        )
    axes = [sweep_values(cfg[axis]) for axis in SWEEP_AXES]

    def one(td, gn, m):
        v = (td, gn, 0.0, 0.0)
        e_plus, e_minus = dispersion.constrained_spectrum(v, m)
        ref = dispersion.spectrum_reference_approx(td, gn, m)
        p = dispersion.constrained_momentum(v, e_plus)
        v_norm = math.hypot(td, gn)
        diag = v_norm * abs(dispersion.delta_sigma(p, box))
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

# the five identities in row order, each with its residual-grade contract:
# exact zero, or the stated minimal grade
FORMS_IDENTITIES = {
    "leibniz": math.inf,
    "d_squared": 2,
    "d_cubed": 2,
    "homotopy": 1,
    "field_strength": 2,
}


def forms_identity_rows(seed: int, n_max: int, deg_max: int, d_fn=None):
    """Residual grades of the five identity checks for one seeded draw, as five
    row tuples.

    ``d_fn`` selects the deformed-derivative route (defaults to the sparse
    engine; the fixture generator passes the dense oracle route).  Only
    ``d_cubed`` and the field strength have no :mod:`exocalc.forms` check.
    """
    from . import forms
    from .poly import random_multipoly

    # passed explicitly: the checks' default binds exotic_d at definition time
    d_fn = d_fn or forms.exotic_d
    rng = random.Random(seed)
    dim = rng.randint(2, max(2, n_max))
    deg = rng.randint(0, min(deg_max, dim - 1))
    grad = forms.random_linear_theta(rng, dim)

    w = forms.random_form(rng, dim, deg, max_poly_degree=deg_max)
    other = forms.random_form(rng, dim, rng.randint(0, min(deg_max, dim - 1)), max_poly_degree=deg_max)

    leib = forms.leibniz_check(w, other, grad, d_fn=d_fn)
    d_squared, dd = forms.d_squared_check(w, grad, d_fn=d_fn)
    ddd = d_fn(dd, grad)

    ext = forms.random_form(rng, dim + 1, rng.randint(1, dim), max_poly_degree=deg_max, lambda_active=True)
    hom = forms.homotopy_lemma_check(ext, grad, d_fn=d_fn)

    a_comps = [random_multipoly(rng, dim, min(deg_max, 2)) for _ in range(dim)]
    fs = forms.field_strength(a_comps, grad) - d_fn(forms.dilated_connection(a_comps, grad), grad)

    residuals = {
        "leibniz": leib,
        "d_squared": d_squared,
        "d_cubed": ddd,
        "homotopy": hom,
        "field_strength": fs,
    }
    # forms-check holds its rows until it writes, so they share cells: a seed's draw, interned grades
    draw = (str(seed), str(dim), str(deg))
    rows = []
    for name, pass_grade in FORMS_IDENTITIES.items():
        grade = residuals[name].eps_grade()
        rows.append((name, *draw, sys.intern(fmt(grade)), "1" if grade >= pass_grade else "0"))
    return rows


def forms_check_rows(cfg: dict, seed: int, d_fn=None):
    n_max, deg_max, count = cfg["dimension"], cfg["degree"], cfg["seeds"]
    if not 2 <= n_max <= 4:
        raise ConfigError("dimension must be between 2 and 4")
    if not 0 <= deg_max <= 3:
        raise ConfigError("degree must be between 0 and 3")
    if count < 1:
        raise ConfigError(f"seeds must be >= 1, got {count}")
    if seed + count - 1 >= 1 << 64:  # the rows draw seeds seed .. seed + count - 1
        raise ConfigError(f"last seed {seed + count - 1} (--seed + seeds - 1) is outside [0, 2**64)")
    rows = [
        row
        for s in range(seed, seed + count)
        for row in forms_identity_rows(s, n_max, deg_max, d_fn)
    ]
    return FORMS_HEADER, rows


CARTAN_HEADER = "idx,roundtrip_err,nullity_residual,det_residual"
# samples drawn and computed per numpy pass; bounds the arrays held at once
CARTAN_CHUNK = 1024


def cartan_rows(cfg: dict, seed: int):
    from . import cartan as cartan_mod
    from .cells import _indexed_lines

    n = cfg["samples"]
    if n < 0:
        raise ConfigError(f"samples must be >= 0, got {n}")
    rng = random.Random(seed)
    rows = []
    for start in range(0, n, CARTAN_CHUNK):
        size = min(CARTAN_CHUNK, n - start)
        # 12 draws a sample: zeta, chi, then lam row-major, each complex as re, im
        z = cartan_mod.gauss_pairs(rng, 6 * size).view(complex).reshape(size, 6)
        residuals = cartan_mod.sample_residuals(z[:, :2], z[:, 2:].reshape(size, 2, 2))
        rows += _indexed_lines(start, residuals)
    return CARTAN_HEADER, rows


def _fit_window(spec, times):
    """The mask of the snapshot ``times`` (an array) the fit window selects.

    ``spec`` is ``[t_start, t_end]`` or ``None`` for every time after 0; it
    must select at least 3 snapshots.
    """
    if spec is None:
        mask = times > 0
    else:
        if not isinstance(spec, list) or len(spec) != 2:
            raise ConfigError(f"fit_window must be [t_start, t_end], got {spec!r}")
        t_a, t_b = (_finite(v, "fit_window") for v in spec)
        mask = (times >= t_a) & (times <= t_b)
    if mask.sum() < 3:
        raise ConfigError(f"fit window selects {mask.sum()} stored snapshots, fewer than 3")
    return mask


def simulate_outputs(cfg: dict, out_dir: Path, svg: bool):
    import numpy as np

    from .cells import _snapshot_blocks
    from .pde import (
        SimGrid, WavePacket, check_x_term_boundary, fit_decay_rate, simulate_time_domain,
    )

    try:
        grid = SimGrid(**cfg["grid"])
        packet = WavePacket(**cfg["packet"])
        if cfg["include_x_term"]:
            check_x_term_boundary(grid.bc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    window = _fit_window(cfg["fit_window"], grid.snapshot_times())
    if packet.width**2 == 0:
        raise DegenerateParameterError(f"packet width {packet.width!r} squares to zero")
    simulate_time_domain(
        grid, cfg["m"], cfg["theta_dot"], cfg["theta_prime"], cfg["include_x_term"], initial=packet,
    )
    norms = grid.l2_norms()
    if not norms.all():  # a vanishing field, or one whose squares underflow
        raise DegenerateParameterError("a stored snapshot has zero L2 norm")
    log_amp = np.log(norms)
    # a dt too small to fit raises FloatingPointError
    rate = fit_decay_rate(grid.times[window], log_amp[window])

    blocks = _snapshot_blocks(grid.times, grid.xs(), grid.snapshots)
    rate_cell = fmt(rate)
    summary = [[fmt(t), fmt(a), rate_cell] for t, a in zip(grid.times, log_amp)]
    files = {
        "simulate_snapshots.csv": (write_csv, "t,x,re_phi,im_phi", blocks),
        "simulate_summary.csv": (write_csv, "t,log_l2_amplitude,fitted_rate", summary),
    }
    if svg:
        files["simulate.svg"] = (
            write_svg_line, grid.times, log_amp, "log amplitude vs time", "t", "log ||phi||"
        )
    return publish(out_dir, files)


# ---------------------------------------------------------------------- main


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in ``[0, 2**64)``, else argparse exits with 2."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {value} is outside [0, 2**64)")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exocalc",
        description="Deformed flat-spacetime calculus: metric, light cone, spectrum, "
        "simulation, exterior-calculus identity checks, spinor-point maps.",
    )
    parser.add_argument("command", choices=DEFAULTS)
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config scalar (repeatable, dotted keys allowed)",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=42, help="random seed (u64)")
    parser.add_argument("--svg", action="store_true", help="also write SVG plots")
    return parser


def run(args) -> list:
    out_dir = Path(args.out)
    cfg = load_config(args.command, args.config, args.set)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # checked before compute, so a bad path wastes no run
        raise ConfigError(f"cannot use output directory {out_dir}: {exc}") from exc
    if args.command == "simulate":
        return simulate_outputs(cfg, out_dir, args.svg)
    # ``<name>_rows`` builds ``<name>.csv`` (a dash read as ``_``); it is looked up by
    # name when called, so a wrapper rebound over the module attribute is what runs
    name = args.command.replace("-", "_")
    seeded = (args.seed,) if name in ("forms_check", "cartan") else ()
    header, rows = globals()[f"{name}_rows"](cfg, *seeded)
    # only a ``nan`` or ``inf`` cell holds an ``n``; forms-check's ``inf`` grade is an exact zero
    if name != "forms_check" and any("n" in (r if isinstance(r, str) else ",".join(r)) for r in rows):
        raise DegenerateParameterError(f"{name}.csv would hold a value that is not finite")
    files = {f"{name}.csv": (write_csv, header, rows)}
    if args.svg and name == "spectrum":
        xs, ys = [float(r[0]) for r in rows], [float(r[4]) for r in rows]
        files["spectrum.svg"] = (write_svg_line, xs, ys, "Im E+ vs theta_dot", "theta_dot", "Im E+")
    return publish(out_dir, files)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        written = run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateParameterError as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # a finite input can still overflow, or underflow to a zero divisor, once squared
        print(f"degenerate parameters: {args.command}: float overflow or underflow ({exc})",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the last resort for a run too large for this machine
        print(f"degenerate parameters: {args.command}: out of memory ({exc})", file=sys.stderr)
        return 3
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:  # no file is left: ``publish`` removes any it wrote
        print(f"interrupted: {args.command}", file=sys.stderr)
        return 130
    try:
        print(*written, sep="\n", flush=True)
    except OSError as exc:  # every file is in place; only the reader of their names failed or went away
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush is quiet
        if not isinstance(exc, BrokenPipeError):
            print(f"config error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
