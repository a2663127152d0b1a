"""Command-line front end.

    spherepack exponent        --channel w.json --R <grid> [--out dir]
    spherepack bound           --channel w.json --R r --N <grid> --zeta z --P <comp> [--np-cap 200] [--out dir]
    spherepack bsc-study       --p 0.1 --R r --N <grid> [--out dir]
    spherepack zchannel-study  --q <grid> --R <grid> [--out dir]

Grids are comma-separated values or `start:stop:count` (inclusive linspace).
CSV output starts with the schema line `# spherepack-csv v1`, is written in
deterministic row order with fixed float formatting, and goes to
`<out>/<command>.csv` (stdout when --out is omitted). SPHEREPACK_THREADS
caps row-level parallelism. Exit codes: 0 ok, 2 domain error, 3 config
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .bounds import constants_ledger, refined_bound
from .errors import ConfigError, DomainError, SpherepackError
from .nptest import np_alpha_for_composition
from .numerics import monotone_root, strictly_increasing
from .probability import Channel, Distribution, capacity, load_channel, r_infinity
from .saddle import ESP_ZERO_TOL, esp_of_r, rho_star_r, saddle_point
from .shifted import esp_q_dual

CSV_SCHEMA = "# spherepack-csv v1"


@dataclass
class StudyConfig:
    """Validated inputs of one CLI study run."""

    channel_path: str | None
    r_grid: list[float]
    n_grid: list[int]
    zeta: float
    out_dir: str | None
    resolution: int = 64
    np_cap: int = 200

    def __post_init__(self) -> None:
        if self.r_grid and not strictly_increasing(self.r_grid):
            raise ConfigError("R grid must be non-empty and strictly increasing")
        if self.n_grid and not strictly_increasing(self.n_grid):
            raise ConfigError("N grid must be non-empty and strictly increasing")


def _threads(n_rows: int) -> int:
    cap = os.environ.get("SPHEREPACK_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(limit, n_rows))


def _map_rows(fn, items):
    workers = _threads(len(items))
    if workers == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path | None, meta: list[str], header: list[str], rows: list[list]) -> None:
    lines = [CSV_SCHEMA]
    lines += [f"# {m}" for m in meta]
    lines.append(",".join(header))
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid syntax is start:stop:count, got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(v) for v in spec.split(",")]


def _parse_int_grid(spec: str) -> list[int]:
    vals = _parse_grid(spec)
    out = [int(round(v)) for v in vals]
    if any(abs(v - o) > 1e-9 for v, o in zip(vals, out)):
        raise ConfigError("N grid must contain integers")
    return out


def _parse_composition(spec: str, nx: int) -> Distribution:
    vals = [float(v) for v in spec.split(",")]
    if len(vals) != nx:
        raise ConfigError(f"composition needs {nx} entries")
    try:
        return Distribution(vals)
    except DomainError as exc:
        raise ConfigError(f"bad composition: {exc}") from exc


def _out_path(cfg_out: str | None, name: str) -> Path | None:
    return None if cfg_out is None else Path(cfg_out) / name


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_exponent(args: argparse.Namespace) -> int:
    cfg = StudyConfig(
        channel_path=args.channel,
        r_grid=_parse_grid(args.R),
        n_grid=[],
        zeta=0.0,
        out_dir=args.out,
        resolution=args.resolution,
    )
    w = load_channel(cfg.channel_path)
    c, _ = capacity(w)
    rinf = r_infinity(w)

    def row(r: float) -> list:
        if not (rinf < r < c):
            return [r, "", "", "", "out-of-domain"]
        value, argmax = esp_of_r(w, r, cfg.resolution)
        if value <= ESP_ZERO_TOL:  # rho*_R is undefined where E_SP(R) vanishes
            return [r, value, "", "", "degenerate"]
        rho = rho_star_r(w, r, cfg.resolution)
        pstr = ";".join("|".join(_fmt(float(v)) for v in p.probs) for p in argmax)
        return [r, value, rho, pstr, "ok"]

    rows = _map_rows(row, cfg.r_grid)
    _write_csv(
        _out_path(cfg.out_dir, "exponent.csv"),
        [f"channel={cfg.channel_path}", f"R_inf={_fmt(rinf)}", f"capacity={_fmt(c)}"],
        ["R", "esp", "rho_star", "argmax_P", "status"],
        rows,
    )
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = StudyConfig(
        channel_path=args.channel,
        r_grid=[float(args.R)],
        n_grid=_parse_int_grid(args.N),
        zeta=float(args.zeta),
        out_dir=args.out,
        resolution=args.resolution,
        np_cap=args.np_cap,
    )
    if cfg.zeta <= 0:
        raise ConfigError("zeta must be positive")
    w = load_channel(cfg.channel_path)
    rate = cfg.r_grid[0]
    p = _parse_composition(args.P, w.nx)
    ledger = constants_ledger(w, rate, cfg.resolution)
    q_star = saddle_point(w, rate, p).q_star

    def row(n: int) -> list:
        rep = refined_bound(w, n, rate, cfg.zeta, p, ledger=ledger)
        if n <= cfg.np_cap:
            tp = np_alpha_for_composition(w, q_star, p, n, rate)
            alpha, log_alpha = tp.alpha, tp.log_alpha
            log_ratio = log_alpha - rep.log_bound
            ratio = float(np.exp(log_ratio)) if np.isfinite(log_ratio) else float("inf")
        else:
            alpha, log_alpha, ratio, log_ratio = "", "", "", ""
        return [
            n,
            rep.branch,
            rep.bound,
            rep.log_bound,
            rep.exponent,
            rep.prefactor,
            alpha,
            log_alpha,
            ratio,
            log_ratio,
            all(c.ok for c in rep.n_conditions),
        ]

    rows = _map_rows(row, cfg.n_grid)
    _write_csv(
        _out_path(cfg.out_dir, "bound.csv"),
        [
            f"channel={cfg.channel_path}",
            f"R={_fmt(rate)}",
            f"zeta={_fmt(cfg.zeta)}",
            f"composition={args.P}",
            f"np_cap={cfg.np_cap}",
        ],
        [
            "N",
            "branch",
            "bound",
            "log_bound",
            "exponent",
            "prefactor",
            "alpha_exact",
            "log_alpha_exact",
            "ratio",
            "log_ratio",
            "conditions_ok",
        ],
        rows,
    )
    return 0


def _log_binom_pmf(n: int, p: float) -> np.ndarray:
    ks = np.arange(n + 1)
    return (
        gammaln(n + 1)
        - gammaln(ks + 1)
        - gammaln(n - ks + 1)
        + ks * np.log(p)
        + (n - ks) * np.log1p(-p)
    )


def _log_sum(logs: np.ndarray) -> float:
    if logs.size == 0:
        return float("-inf")
    arr = np.asarray(logs, dtype=np.longdouble)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def bsc_study_rows(p: float, rate: float, n_grid: list[int]) -> list[list]:
    """Per blocklength: the exact sphere-packing chain for the BSC.

    n_star is the largest k with the uniform-output tail within the e^{-NR}
    budget; alpha_exact the resulting binomial tail; the emitted lower bound
    is the largest single term of that tail (a true lower bound of the same
    polynomial order in N as the refined pre-factor).
    """
    if not (0.0 < p < 0.5):
        raise DomainError("bsc-study needs crossover p in (0, 1/2)")
    if not (0.0 < rate < np.log(2.0)):
        raise DomainError("bsc-study needs a rate in (0, log 2)")
    target = np.log(2.0) - rate
    delta_r, _ = monotone_root(
        lambda d: -d * np.log(d) - (1 - d) * np.log1p(-d) - target, 1e-12, 0.5
    )
    esp_closed = delta_r * np.log(delta_r / p) + (1 - delta_r) * np.log((1 - delta_r) / (1 - p))

    rows = []
    for n in n_grid:
        log_budget = -n * rate
        log_half = _log_binom_pmf(n, 0.5)
        cum = np.logaddexp.accumulate(np.asarray(log_half, dtype=np.longdouble))
        n_star = int(np.searchsorted(cum, np.longdouble(log_budget) * (1 - 1e-15), side="right")) - 1
        log_noise = _log_binom_pmf(n, p)
        log_alpha = _log_sum(log_noise[n_star + 1 :])
        log_single_term = float(log_noise[n_star + 1]) if n_star + 1 <= n else float("-inf")
        rows.append(
            [
                n,
                n_star,
                n_star / n,
                float(np.exp(np.longdouble(log_alpha))),
                log_alpha,
                float(np.exp(np.longdouble(log_single_term))),
                log_single_term,
                float(esp_closed),
                bool(log_alpha >= log_single_term),
            ]
        )
    return rows


def cmd_bsc_study(args: argparse.Namespace) -> int:
    cfg = StudyConfig(
        channel_path=None,
        r_grid=[float(args.R)],
        n_grid=_parse_int_grid(args.N),
        zeta=0.0,
        out_dir=args.out,
    )
    rows = bsc_study_rows(float(args.p), cfg.r_grid[0], cfg.n_grid)
    _write_csv(
        _out_path(cfg.out_dir, "bsc_study.csv"),
        [f"p={_fmt(float(args.p))}", f"R={_fmt(cfg.r_grid[0])}"],
        [
            "N",
            "n_star",
            "n_star_over_N",
            "alpha_exact",
            "log_alpha_exact",
            "single_term_lower_bound",
            "log_single_term_lower_bound",
            "esp_closed_form",
            "sandwich_ok",
        ],
        rows,
    )
    return 0


def gap_study_row(w: Channel, rate: float, resolution: int = 64) -> tuple[float, float, Distribution]:
    """(E_SP(R), max_P e_SP(Q_fixed, P, R), P*_R) for the fixed output law
    Q*_{R, P*_R} (optimal-composition output law: rate-dependent but
    composition-independent, the adopted reading of the classical study).

    `resolution` is accepted and unused: `esp_of_r` needs no grid.
    e_SP(Q_fixed, P, R) is a supremum of functions affine in P, so convex,
    and finite on the polytope {P : sum_x P(x) t_x <= R},
    t_x = -log Q_fixed(S(W(.|x))); its maximum is at a vertex: a letter with
    t_x <= R, or the point where sum_x P(x) t_x = R on an edge (e_i, e_j)
    with t_i < R < t_j. `esp_q_dual` scores each.
    """
    esp_r, argmax = esp_of_r(w, rate, resolution)
    p_star = argmax[0]
    q_fixed = saddle_point(w, rate, p_star).q_star
    with np.errstate(divide="ignore"):  # t_x = +inf when S(W(.|x)) misses S(Q_fixed)
        t = -np.log(np.where(w.supports, q_fixed.probs, 0.0).sum(axis=1))
    eye = np.eye(w.nx)
    vertices = [eye[x] for x in range(w.nx) if t[x] <= rate]
    for i in np.flatnonzero(t < rate):
        for j in np.flatnonzero((t > rate) & np.isfinite(t)):
            theta = (t[j] - rate) / (t[j] - t[i])
            vertices.append(theta * eye[i] + (1.0 - theta) * eye[j])
    best = max(esp_q_dual(w, q_fixed, Distribution(v), rate) for v in vertices)
    return esp_r, float(best), p_star


def cmd_zchannel_study(args: argparse.Namespace) -> int:
    cfg = StudyConfig(
        channel_path=None,
        r_grid=_parse_grid(args.R),
        n_grid=[],
        zeta=0.0,
        out_dir=args.out,
        resolution=args.resolution,
    )
    q_grid = _parse_grid(args.q)
    if any(not (0.0 < q < 1.0) for q in q_grid):
        raise DomainError("Z-channel parameter q must lie in (0,1)")

    rows = []
    for q in q_grid:
        w = Channel([[1.0, 0.0], [q, 1.0 - q]])
        c, _ = capacity(w)
        for rate in cfg.r_grid:
            if not (0.0 < rate < c):
                rows.append([q, rate, "", "", "", "out-of-domain"])
                continue
            esp_r, best, _ = gap_study_row(w, rate, cfg.resolution)
            rows.append([q, rate, esp_r, best, best - esp_r, "ok"])
    _write_csv(
        _out_path(cfg.out_dir, "zchannel_study.csv"),
        [
            "Q_fixed=Q*_{R,P*_R} (optimal-composition output law; rate-dependent,"
            " composition-independent)",
        ],
        ["q", "R", "esp", "max_P_esp_qfixed", "gap", "status"],
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spherepack",
        description="Refined sphere-packing bounds for asymmetric discrete memoryless channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponent", help="E_SP(R), rho*_R and maximizing compositions over a rate grid")
    p_exp.add_argument("--channel", required=True)
    p_exp.add_argument("--R", required=True, help="rate grid (comma list or start:stop:count)")
    p_exp.add_argument(
        "--resolution", type=int, default=64, help="accepted and unused: E_SP(R) needs no composition grid"
    )
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_exponent)

    p_bound = sub.add_parser("bound", help="refined bound over a blocklength grid, with exact NP comparison")
    p_bound.add_argument("--channel", required=True)
    p_bound.add_argument("--R", required=True, type=float)
    p_bound.add_argument("--N", required=True, help="blocklength grid")
    p_bound.add_argument("--zeta", required=True, type=float)
    p_bound.add_argument("--P", required=True, help="composition, comma separated")
    p_bound.add_argument("--np-cap", type=int, default=200, help="largest N for the exact NP comparison")
    p_bound.add_argument(
        "--resolution", type=int, default=64, help="steps per unit of the constants-ledger composition grid"
    )
    p_bound.add_argument("--out", default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_bsc = sub.add_parser("bsc-study", help="exact Hamming-sphere chain for the BSC")
    p_bsc.add_argument("--p", required=True, type=float)
    p_bsc.add_argument("--R", required=True, type=float)
    p_bsc.add_argument("--N", required=True, help="blocklength grid")
    p_bsc.add_argument("--out", default=None)
    p_bsc.set_defaults(func=cmd_bsc_study)

    p_z = sub.add_parser("zchannel-study", help="fixed-output-law exponent gap for Z-channels")
    p_z.add_argument("--q", required=True, help="Z parameter grid")
    p_z.add_argument("--R", required=True, help="rate grid")
    p_z.add_argument(
        "--resolution", type=int, default=64, help="accepted and unused: E_SP(R) needs no composition grid"
    )
    p_z.add_argument("--out", default=None)
    p_z.set_defaults(func=cmd_zchannel_study)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, SpherepackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
