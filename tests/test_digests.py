"""Output bytes of the presets, pinned by sha256 against a committed table.

`csv_digests.json` holds the digest of every CSV that `heliodsm reconstruct`
writes for example1-5 at seed 0 with the preset algorithm, and for example4
with `--algorithm dsm`.  A change that moves output bits therefore shows as
a diff of that table, made in the same commit that moves them.

The bits depend on the host's numpy (its complex exp) and on the OpenBLAS
kernel it dispatches to, so the table records both and the test skips on
any other host.  Regenerate the table on the recording host with

    PYTHONPATH=src python tests/test_digests.py > tests/csv_digests.json
"""

import ctypes
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from heliodsm import _threads
from heliodsm.cli import main

pytestmark = pytest.mark.blas_unset

TABLE = Path(__file__).with_name("csv_digests.json")
RUNS = {
    "example1 dsm2": ("example1", None),
    "example2 dsm2": ("example2", None),
    "example3 dsm2": ("example3", None),
    "example4 dsm2": ("example4", None),
    "example5 dsm2": ("example5", None),
    "example4 dsm": ("example4", "dsm"),
}


def _openblas_core() -> str | None:
    lib = _threads.openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_corename64_"):
        return None
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    return lib.scipy_openblas_get_corename64_().decode()


def host() -> dict:
    return {"numpy": np.__version__, "openblas_core": _openblas_core()}


def run_digests(name: str, out: Path) -> dict:
    preset, algorithm = RUNS[name]
    args = ["reconstruct", "--preset", preset, "--seed", "0", "--out", str(out), "--quiet"]
    if algorithm:
        args += ["--algorithm", algorithm]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", list(RUNS))
def test_preset_csv_digests(tmp_path, name):
    table = json.loads(TABLE.read_text())
    if table["host"] != host():
        pytest.skip(f"digests were recorded on {table['host']}, this host is {host()}")
    assert run_digests(name, tmp_path) == table["runs"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp) / name.replace(" ", "_")) for name in RUNS}
    json.dump({"host": host(), "runs": runs}, sys.stdout, indent=2)
    sys.stdout.write("\n")
