"""heliodsm benchmark: closed-loop `reconstruct` workloads, run in-process.

    python3 perfbench/run.py --workload fresh2d --seed 1 --seconds 36 --trace 0

Each request is one `heliodsm.cli.main(["reconstruct", ...])` call, from
config to written artifacts, checked afterwards against the preset's exact
sources (see workloads.py).  With `--trace 0` the run measures the
end-to-end metrics; with `--trace 1` it spends half the time untraced and
half traced on the same request sequence, and reports the per-layer
metrics (see tracing.py), the tracing overhead, whether the spans of every
traced request nest and cover its wall time, and whether both halves wrote
byte-identical CSVs.  The last line of stdout is one JSON object; the lines
before it are a readable report with provenance, the failure fraction and
the failed requests, the raw wall times, the request tail with its
percentile and the output digests.

The program is imported from `src/` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS stays single-threaded (fixed before numpy is imported); heliodsm's own
# thread count is set per workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Largest gap allowed between a traced request's wall time and its root
# span: the wrapper's own bookkeeping around `cli.main`.
ROOT_SLACK_S = 0.005


class HostClock:
    """Wall time rescaled to a fixed reference host speed.

    On the shared 2-vCPU hosts this benchmark was tuned on, the speed of
    the same code drifts by up to ~40% over tens of seconds (neighbours on
    the same physical cores); CPU time drifts with wall time, so it is no
    way out.  A fixed ~45 ms kernel of csv rows of float reprs plus numpy
    complex exp + einsum contractions (the two kinds of work a request
    does) is timed after every measured interval.  An interval's normalized
    time is its wall time times REFERENCE_S over the mean kernel time just
    before and after it: what the interval would take on a host where the
    kernel takes REFERENCE_S (its median time on the 2.1 GHz Xeon vCPUs the
    bounds were set on).
    """

    REFERENCE_S = 0.045

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._phases = rng.standard_normal((80, 300))
        self._weights = rng.standard_normal((300, 200)) + 0j
        self.samples: list[float] = []
        self.last = self.calibrate()

    def calibrate(self) -> float:
        np = self._np
        t = time.perf_counter()
        writer = csv.writer(StringIO())
        for i in range(2500):
            writer.writerow([repr(i * 0.37), repr(i * 1.1), repr(-i * 0.3)])
        for _ in range(2):
            np.einsum("ij,jk->ik", np.exp(1j * self._phases), self._weights)
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    def measure(self, fn, *args):
        """(result, wall seconds, normalized seconds) of fn(*args)."""
        t = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t
        before, self.last = self.last, self.calibrate()
        return result, wall, wall * self.REFERENCE_S / ((before + self.last) / 2.0)


@dataclass
class Record:
    request: int
    preset: str
    seed: int
    wall: float
    seconds: float  # normalized
    check: object  # workloads.Check
    digests: dict


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_program() -> None:
    """Exit unless heliodsm's sources are in this checkout; put them first on sys.path."""
    if not (SRC / "heliodsm" / "__init__.py").is_file():
        print(f"perfbench: no heliodsm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import heliodsm.cli  # noqa: F401

    if Path(sys.modules["heliodsm"].__file__).resolve().parent != SRC / "heliodsm":
        print("perfbench: heliodsm was not imported from this checkout", file=sys.stderr)
        sys.exit(2)


# Imports happen once per process, so set-up repeats time them in a child.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import heliodsm.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Wall time of `import heliodsm.cli` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Run:
    """One workload run: set-up, request loops and output checks."""

    def __init__(self, workload, seed: int, work: Path, clock: HostClock):
        from heliodsm import cli, io, presets

        self.cli, self.io, self.presets = cli, io, presets
        self.w = workload
        self.seed = seed
        self.work = work
        self.clock = clock
        self.dirs = 0

    def fresh_dir(self) -> Path:
        self.dirs += 1
        out = self.work / f"r{self.dirs}"
        out.mkdir(parents=True)
        return out

    def setup(self) -> None:
        """Preset configs, exact tables and (reuse) one synthesis per seed."""
        from workloads import NOISE_SEEDS

        cfgs = {p: self.presets.preset_config(p) for p in self.w.presets}
        self.exact = {p: self.presets.exact_table(p) for p in cfgs}
        self.seed_dirs = {}
        if self.w.reuse:
            (preset,) = self.w.presets
            for s in NOISE_SEEDS:
                out = self.fresh_dir()
                args = ["synthesize", "--preset", preset, "--seed", str(s), "--out", str(out), "--quiet"]
                if self.cli.main(args) != 0:
                    raise RuntimeError(f"set-up synthesis failed for {preset} seed {s}")
                self.seed_dirs[s] = out

    def loop(self, budget: float, min_rounds: int, tracer=None) -> list[Record]:
        """Closed loop over whole rounds until `budget` wall seconds are spent."""
        from workloads import LOCATION_TOLERANCE, check_output, digests, request_args, rounds

        records: list[Record] = []
        begin = time.perf_counter()
        for i, rnd in enumerate(rounds(self.w, self.seed)):
            elapsed = time.perf_counter() - begin
            if i >= min_rounds and elapsed + elapsed / i > budget:
                break
            for preset, seed in rnd:
                if self.w.reuse:
                    out = self.seed_dirs[seed]
                    for stale in out.iterdir():
                        if stale.name not in ("cauchy.csv", "meta.json", "config.json"):
                            stale.unlink()
                else:
                    out = self.fresh_dir()
                args = request_args(self.w, preset, seed, out)
                if tracer is not None:
                    tracer.request_id = len(records)
                    tracer.enabled = True
                code, wall, seconds = self.clock.measure(self.cli.main, args)
                if tracer is not None:
                    tracer.enabled = False
                check = check_output(code, out, self.exact[preset], LOCATION_TOLERANCE[preset],
                                     self.io.read_reconstruction_csv)
                written = digests(out, skip=("cauchy.csv",) if self.w.reuse else ())
                records.append(Record(len(records), preset, seed, wall, seconds, check, written))
                if not self.w.reuse:
                    shutil.rmtree(out)
        return records


def _preset_medians(samples, presets) -> list[float]:
    return [statistics.median(v for p, v in samples if p == preset) for preset in presets]


def mix_p50(samples, presets) -> float:
    """Mean over presets of the median of that preset's (preset, value) samples.

    Every round holds one request per preset, so the mix is fixed; a plain
    median of two separated modes (example4 at 1.5 s, example5 at 3.8 s)
    would jump between them from run to run.
    """
    return statistics.fmean(_preset_medians(samples, presets))


def tail(times: list[float]) -> dict:
    """The highest percentile of `times` with ten samples beyond it.

    Below 21 requests no percentile above the median has ten samples beyond
    it, so there is no tail to report.
    """
    times = sorted(times)
    n = len(times)
    if n < 21:
        return {"samples": n, "measured": False, "needs_samples": 21}
    return {"samples": n, "measured": True, "percentile": 100.0 * (n - 10) / n, "value_s": times[n - 11]}


def digest_conflicts(records: list[Record], into: dict) -> list[str]:
    """Record each request's digests under (preset, seed); list mismatches."""
    bad = []
    for r in records:
        if into.setdefault((r.preset, r.seed), r.digests) != r.digests:
            bad.append(f"{r.preset} seed {r.seed}")
    return bad


def combined_digest(records: list[Record]) -> str:
    table = {f"{r.preset}/{r.seed}": r.digests for r in records}
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy as np

    def git_revision():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return "unavailable (not a git checkout)"
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.is_file() else []:
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "heliodsm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "heliodsm_threads": workload.threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload_seed": seed,
    }


def first_cycle(records: list[Record], workload) -> list[Record]:
    """The first cycle: one request per preset and noise seed, whatever the workload seed."""
    from workloads import NOISE_SEEDS

    return records[: len(NOISE_SEEDS) * len(workload.presets)]


def untraced_run(run: Run, args, report: dict) -> dict:
    from workloads import NOISE_SEEDS

    records = run.loop(args.seconds, min_rounds=len(NOISE_SEEDS))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [(r.preset, r.seconds) for r in records]
    failed = [r for r in records if not r.check.ok]
    conflicts = digest_conflicts(records, {})
    cycle = first_cycle(records, run.w)
    cycle_failed = sum(not r.check.ok for r in cycle)
    report.update({
        "requests": len(records),
        "fail_frac": {"first_cycle": cycle_failed / len(cycle), "run": len(failed) / len(records)},
        "failures": sorted({f"{r.preset} seed {r.seed}: {r.check.reason}" for r in failed}),
        "request_tail": tail([r.seconds for r in records]),
        "wall_request_p50_s": mix_p50([(r.preset, r.wall) for r in records], run.w.presets),
        "wall_request_s": {p: [r.wall for r in records if r.preset == p] for p in run.w.presets},
        "digest_conflicts": conflicts,
        "first_cycle_digest": combined_digest(cycle),
    })
    metrics = {
        "request_p50_s": (mix_p50(samples, run.w.presets), "s"),
        "throughput_rps": (len(records) / sum(r.seconds for r in records), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_frac": (1.0 - cycle_failed / len(cycle), "ratio"),
        "loc_err_max": (max(r.check.loc_err for r in cycle if r.check.loc_err is not None), "length"),
        "readoff_err_max": (max(r.check.readoff_err for r in cycle if r.check.readoff_err is not None), "ratio"),
    }
    return {
        "correct": not conflicts,
        "attempted": len(records),
        "failed": sum(not r.check.completed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(run: Run, args, report: dict) -> dict:
    from tracing import Tracer

    plain = run.loop(args.seconds / 2.0, min_rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.loop(args.seconds / 2.0, min_rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{run.w.name}.npz")

    table: dict = {}
    conflicts = digest_conflicts(plain, table) + digest_conflicts(traced, table)
    records = plain + traced
    failed = [r for r in records if not r.check.ok]
    scale = {r.request: r.seconds / r.wall for r in traced}
    presets = run.w.presets
    untraced_p50 = mix_p50([(r.preset, r.seconds) for r in plain], presets)
    traced_p50 = mix_p50([(r.preset, r.seconds) for r in traced], presets)
    # Stage sum: the self times of one request's spans, i.e. cli.main's own
    # time plus that of every layer below it.  With one root span and every
    # span nested in its parent, they add up to the root span, which must
    # match the request's measured wall time within the wrapper's cost.
    sums = tracer.stage_sums([r.request for r in traced])
    problems = tracer.structure_problems()
    gaps = {r.request: r.wall - sums[r.request] for r in traced}
    problems += [f"request {i}: wall time minus its stage sum is {g * 1e3:.3f} ms"
                 for i, g in gaps.items() if not 0.0 <= g <= ROOT_SLACK_S]
    metrics = tracer.layer_metrics(scale)
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.stage_sum_s"] = mix_p50([(r.preset, sums[r.request] * scale[r.request]) for r in traced],
                                           presets)
    report.update({
        "requests": {"untraced": len(plain), "traced": len(traced)},
        "untraced_p50_s": untraced_p50,
        "traced_p50_s": traced_p50,
        "stage_sum_check": {"max_gap_s": max(gaps.values()), "allowed_gap_s": ROOT_SLACK_S,
                            "problems": problems[:20], "ok": not problems},
        "digests_identical": not conflicts,
        "digest_conflicts": conflicts,
        "failures": sorted({f"{r.preset} seed {r.seed}: {r.check.reason}" for r in failed}),
    })
    return {
        "correct": not conflicts and not problems,
        "attempted": len(records),
        "failed": sum(not r.check.completed for r in records),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    check_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    clock = HostClock()
    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        run = Run(w, args.seed, work, clock)
        imports = []
        for _ in range(SETUP_REPEATS):
            child_s, wall, seconds = clock.measure(import_seconds)
            imports.append(child_s * seconds / wall)
        setups = [clock.measure(run.setup)[2] for _ in range(SETUP_REPEATS)]
        report = {
            "provenance": provenance(w, args.seed),
            "import_repeats_s": imports,
            "setup_repeats_s": setups,
        }
        if args.trace:
            result = traced_run(run, args, report)
        else:
            result = untraced_run(run, args, report)
            setup_s = statistics.median(imports) + statistics.median(setups)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        report["calibration_s"] = {"median": statistics.median(clock.samples), "reference": clock.REFERENCE_S}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
