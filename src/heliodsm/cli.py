"""Command-line front end.

Commands
--------
synthesize   evaluate the closed-form Cauchy data for a config and write
             cauchy.csv (+ meta.json)
reconstruct  run dsm2 (or dsm, with --algorithm dsm) on (possibly
             pre-synthesized) data and write the driver's indicator fields
             (indicator_<ell>.csv), reconstruction.csv and run.json; an
             existing <out>/cauchy.csv is reused only if the config.json
             beside it names the same data (dims, wavenumber, sources,
             measurement, noise)
verify       run the built-in oracle suite (quick | full)
example      run one of the five built-in benchmark presets end to end and
             print a comparison table against the exact source locations

Exit codes: 0 success, 1 validation error, 2 runtime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import _threads, io, verify
from .forward import add_noise, check_assumptions, synthesize_cauchy
from .locator import dsm, dsm2
from .presets import PRESETS, ConfigError, ExperimentConfig, exact_table, preset_config

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFICATION = 3

# config keys that determine the synthesized Cauchy data
DATA_KEYS = ("dims", "wavenumber", "sources", "measurement", "noise")


def _say(args, *message) -> None:
    if not args.quiet:
        print(*message)


def _seeded(cfg: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    return cfg if seed is None else dataclasses.replace(cfg, noise_seed=seed)


def _load_config(args) -> ExperimentConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.preset:
        return _seeded(preset_config(args.preset), args.seed)
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return _seeded(ExperimentConfig.from_json(path.read_text()), args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # it or a parent is a file
        raise ValueError(f"--out {out} is not a directory") from None
    return out


def _data_sha256(noisy) -> str:
    """sha256 of the noisy Dirichlet then Neumann complex128 bytes: the
    data a run used, equal for a fresh run and a reuse of its cauchy.csv
    (which reads back bit for bit)."""
    return hashlib.sha256(noisy.dirichlet.tobytes() + noisy.neumann.tobytes()).hexdigest()


def _synthesize(cfg: ExperimentConfig, out: Path, args) -> tuple:
    ensemble = cfg.ensemble()
    report = check_assumptions(ensemble, cfg.wavenumber)
    for note in report.warnings:
        _say(args, note)
    t0 = time.perf_counter()
    clean = synthesize_cauchy(ensemble, cfg.wavenumber, cfg.surface())
    noisy = add_noise(clean, cfg.noise_spec())
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    io.write_cauchy_csv(out / "cauchy.csv", clean, noisy)
    write_seconds = time.perf_counter() - t0
    (out / "config.json").write_text(cfg.to_json())
    finite = lambda v: v if math.isfinite(v) else None
    io.write_run_json(
        out / "meta.json",
        {
            "points": len(clean.surface),
            "noise_level": cfg.noise_level,
            "seed": cfg.noise_seed,
            "data_sha256": _data_sha256(noisy),
            "min_separation": finite(report.min_separation),
            "separation_ratio": finite(report.separation_ratio),
            "warnings": list(report.warnings),
            "synthesize_seconds": elapsed,
            "write_seconds": write_seconds,
            "bytes_written": (out / "cauchy.csv").stat().st_size,
        },
    )
    _say(args, f"wrote {out / 'cauchy.csv'} ({len(clean.surface)} points)")
    return clean, noisy


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    _synthesize(cfg, out, args)
    return EXIT_OK


def _stored_data(path: Path, wanted: dict) -> dict:
    """The DATA_KEYS of the config.json at path, checked and normalized as a
    config with the request's other keys; its other keys are not read."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or any(key not in raw for key in DATA_KEYS):
        raise ConfigError(f"needs the keys {', '.join(DATA_KEYS)}")
    data = {key: raw[key] for key in DATA_KEYS}
    if data["dims"] != wanted["dims"]:
        return data  # stale; the request's other keys do not fit its dims
    return ExperimentConfig.from_dict({**wanted, **data}).to_dict()


def _obtain_cauchy(cfg: ExperimentConfig, out: Path, args):
    path = out / "cauchy.csv"
    if not path.exists():
        return _synthesize(cfg, out, args)[1]
    stored_path = out / "config.json"
    if not stored_path.exists():
        raise ConfigError(f"cannot reuse {path}: no config.json beside it")
    wanted = cfg.to_dict()
    try:
        stored = _stored_data(stored_path, wanted)
    except ConfigError as exc:
        raise ConfigError(f"cannot reuse {path}: {stored_path}: {exc}") from exc
    stale = [key for key in DATA_KEYS if stored[key] != wanted[key]]
    if stale:
        raise ConfigError(
            f"cannot reuse {path}: it was synthesized with different {', '.join(stale)}"
        )
    _say(args, f"reusing {path}")
    _, noisy = io.read_cauchy_csv(path, cfg.measurement_radius)
    return noisy


def _reconstruct(cfg: ExperimentConfig, algorithm: str, out: Path, args, tag: str = ""):
    noisy = _obtain_cauchy(cfg, out, args)
    settings = {"components": cfg.components, "directions": cfg.direction_set()}
    if algorithm == "dsm":
        recon = dsm(noisy, cfg.wavenumber, cfg.dsm_grid(), **settings)
    else:
        recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), **settings)
    t0 = time.perf_counter()
    written = [out / f"indicator_{fld.component}{tag}.csv" for fld in recon.fields]
    for path, fld in zip(written, recon.fields):
        io.write_indicator_csv(path, fld)
    written.append(out / f"reconstruction{tag}.csv")
    io.write_reconstruction_csv(written[-1], recon)
    write_seconds = time.perf_counter() - t0
    io.write_run_json(
        out / f"run{tag}.json",
        {
            "parameters": recon.parameters,
            "seed": cfg.noise_seed,
            "data_sha256": _data_sha256(noisy),
            "estimated_count": recon.estimated_count,
            "elapsed_seconds": recon.elapsed_seconds,
            "timings": recon.timings,
            "counts": recon.counts,
            "write_seconds": write_seconds,
            "bytes_written": sum(path.stat().st_size for path in written),
            "threads": _threads.get_thread_count(),
            "warnings": list(recon.warnings),
        },
    )
    _say(
        args,
        f"{recon.algorithm}: {recon.estimated_count} source(s) in {recon.elapsed_seconds:.2f} s",
    )
    return recon


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    _reconstruct(cfg, args.algorithm, out, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    emit = (lambda *a, **k: None) if args.quiet else print
    ok = verify.run(args.level, emit=emit)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _match_rows(exact_rows, recon):
    """Greedy nearest assignment of recovered groups to exact sources."""
    centroids = [g.centroid for g in recon.groups]
    taken = set()
    rows = []
    for entry in exact_rows:
        best, best_d = None, np.inf
        for gi, c in enumerate(centroids):
            if gi in taken:
                continue
            d = float(np.linalg.norm(c - entry["location"]))
            if d < best_d:
                best, best_d = gi, d
        if best is None:
            rows.append((entry, None, np.nan))
        else:
            taken.add(best)
            rows.append((entry, recon.groups[best], best_d))
    return rows


def _compare(exact_rows, recon, args) -> list[dict]:
    """Print the comparison table of one reconstruction; return its
    comparison.json rows."""
    _say(args, f"-- {recon.algorithm.upper()}: recovered {recon.estimated_count} source(s) "
               f"in {recon.elapsed_seconds:.2f} s")
    rows = []
    for entry, group, err in _match_rows(exact_rows, recon):
        exact = ", ".join(f"{v:+.4f}" for v in entry["location"])
        if group is None:
            _say(args, f"   {entry['kind']} {entry['label']}: ({exact})  -> MISSING")
        else:
            got = ", ".join(f"{v:+.4f}" for v in group.centroid)
            _say(args, f"   {entry['kind']} {entry['label']}: exact ({exact})  "
                       f"recovered ({got})  |err| = {err:.4f}")
        rows.append(
            {
                "algorithm": recon.algorithm,
                "label": entry["label"],
                "kind": entry["kind"],
                "exact": list(map(float, entry["location"])),
                "recovered": None if group is None else list(map(float, group.centroid)),
                "error": None if group is None else err,
            }
        )
    return rows


def cmd_example(args) -> int:
    name = f"example{args.id}"
    cfg = _seeded(preset_config(name), args.seed)
    out = _out_dir(args)
    exact = exact_table(name)

    recon2 = _reconstruct(cfg, "dsm2", out, args)
    payload = {
        "preset": name,
        "seed": cfg.noise_seed,
        "dsm2_seconds": recon2.elapsed_seconds,
        "comparison": _compare(exact, recon2, args),
    }
    if args.id == 4:
        recon1 = _reconstruct(cfg, "dsm", out, args, tag="_dsm")
        payload["comparison"] += _compare(exact, recon1, args)
        speedup = recon1.elapsed_seconds / max(recon2.elapsed_seconds, 1e-12)
        _say(args, f"-- DSM2 speedup over DSM: {speedup:.1f}x")
        payload["dsm_seconds"] = recon1.elapsed_seconds
        payload["speedup"] = speedup

    io.write_run_json(out / "comparison.json", payload)
    return EXIT_OK


@cache  # parsing leaves the parser as it is, so in-process callers share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliodsm",
        description="Direct sampling localization of multipolar Helmholtz sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--config": dict(help="experiment config (JSON)"),
        "--preset": dict(choices=PRESETS, help="built-in preset name"),
        "--seed": dict(type=int, help="override the noise seed"),
        "--out": dict(help="output directory (default: ./out)"),
        "--threads": dict(type=int, help="worker threads (default: the CPU count)"),
        "--quiet": dict(action="store_true", help="suppress progress output"),
        "--algorithm": dict(choices=("dsm", "dsm2"), default="dsm2", help="dsm2 (default) or one-level dsm"),
    }

    def command(name, fn, help, *flags):
        # each command takes only the options it acts on
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
        return p

    command("synthesize", cmd_synthesize, "write closed-form Cauchy data",
            "--config", "--preset", "--seed", "--out", "--quiet")
    command("reconstruct", cmd_reconstruct, "run dsm/dsm2 and export results",
            "--config", "--preset", "--seed", "--out", "--threads", "--quiet", "--algorithm")
    p = command("verify", cmd_verify, "run the oracle verification suite", "--quiet")
    p.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))
    p = command("example", cmd_example, "run a built-in benchmark preset end to end",
                "--seed", "--out", "--threads", "--quiet")
    p.add_argument("id", type=int, choices=(1, 2, 3, 4, 5))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a bad --threads fails before any work; one BLAS hold covers synthesis,
        # the driver and the writes, whose small products OpenBLAS would spread
        with _threads.pinned(getattr(args, "threads", None)), _threads._one_blas_thread():
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
