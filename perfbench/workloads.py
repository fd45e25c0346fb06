"""Workload definitions, request schedules and the per-request output check.

Every workload is a closed loop with one client: the next `reconstruct`
request starts when the previous one returns.  Requests come in rounds of
one request per preset, so every run mixes the presets in the same
proportion.  Every preset runs the same noise seeds, `NOISE_SEEDS`; the
workload seed shuffles them, one fresh permutation per cycle of
`len(NOISE_SEEDS)` rounds, and shuffles the preset order within each
round.  After one cycle every seed of every preset has run once, so the
accuracy metrics and the output digest of the first cycle do not depend on
the workload seed.

The seeds are the first five, not each preset's acceptance window
(tests/test_acceptance.py pins criteria 5 and 8 on the preset's own seed
and the four after it), so requests the program gets wrong count too:
example2 with seed 2 recovers 3 groups for 2 sources, and example5 with
seed 1 also recovers 3 for 2.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Location tolerances of tests/test_acceptance.py (criteria 5-8); example2
# has no criterion and takes the 2D value.
LOCATION_TOLERANCE = {"example1": 0.12, "example2": 0.12, "example3": 0.12, "example4": 0.10, "example5": 0.16}
NOISE_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    threads: int
    algorithm: str | None = None  # None: the preset's own (dsm2)
    reuse: bool = False  # reconstruct from a cauchy.csv synthesized in setup


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fresh2d", ("example1", "example2", "example3"), threads=1),
        Workload("fresh3d", ("example4", "example5"), threads=1),
        Workload("reuse_dsm3d", ("example4",), threads=2, algorithm="dsm", reuse=True),
    )
}


def rounds(workload: Workload, seed: int):
    """Endless sequence of rounds; each round is [(preset, noise seed), ...]."""
    rng = random.Random(seed)
    while True:
        perms = {p: rng.sample(NOISE_SEEDS, len(NOISE_SEEDS)) for p in workload.presets}
        for i in range(len(NOISE_SEEDS)):
            order = list(workload.presets)
            rng.shuffle(order)
            yield [(p, perms[p][i]) for p in order]


def request_args(workload: Workload, preset: str, seed: int, out: Path) -> list[str]:
    args = ["reconstruct", "--preset", preset, "--seed", str(seed),
            "--threads", str(workload.threads), "--out", str(out), "--quiet"]
    if workload.algorithm:
        args += ["--algorithm", workload.algorithm]
    return args


def digests(out: Path, skip=()) -> dict[str, str]:
    """sha256 of every CSV in the output directory, except `skip`."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
        if p.name not in skip
    }


@dataclass
class Check:
    ok: bool
    completed: bool  # exit code 0
    reason: str
    count: int
    loc_err: float | None  # worst matched location error; None if nothing matched
    readoff_err: float | None  # worst relative lambda / eta read-off error of the matched groups


def check_output(code: int, out: Path, exact_rows: list[dict], tolerance: float, read_reconstruction_csv) -> Check:
    """Compare reconstruction.csv with the exact sources of the preset.

    Groups are matched to the exact sources greedily in source order,
    nearest untaken centroid first, as `cli._match_rows` does.  The request
    fails on a non-zero exit code, a recovered count that differs from the
    exact count, or a matched location error above `tolerance`.
    """
    if code != 0:
        return Check(False, False, f"exit code {code}", 0, None, None)
    rows = read_reconstruction_csv(out / "reconstruction.csv")
    taken: set[int] = set()
    loc_errs, readoff_errs = [], []
    for entry in exact_rows:
        best, best_d = None, np.inf
        for gi, row in enumerate(rows):
            if gi not in taken:
                d = float(np.linalg.norm(row["centroid"] - entry["location"]))
                if d < best_d:
                    best, best_d = gi, d
        if best is None:
            continue
        taken.add(best)
        row = rows[best]
        loc_errs.append(best_d)
        if entry["kind"] == "monopole":
            rel = abs(row["lambda"] - entry["intensity"]) / abs(entry["intensity"])
        else:
            rel = float(np.linalg.norm(row["eta"] - entry["intensity"]) / np.linalg.norm(entry["intensity"]))
        readoff_errs.append(rel)
    loc_err = max(loc_errs, default=None)
    readoff_err = max(readoff_errs, default=None)
    if len(rows) != len(exact_rows):
        reason = f"recovered {len(rows)} for {len(exact_rows)} sources"
    elif loc_err > tolerance:
        reason = f"location error {loc_err:.4f} > {tolerance}"
    else:
        return Check(True, True, "ok", len(rows), loc_err, readoff_err)
    return Check(False, True, reason, len(rows), loc_err, readoff_err)
