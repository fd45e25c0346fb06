"""The CSV float renderer: byte for byte the text of repr(float(v))."""

import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heliodsm import _text

pytestmark = pytest.mark.byte_contract


def _mismatches(values, columns=1):
    """(value, rendered, repr) for each value whose CSV text is not its repr."""
    values = np.asarray(values, dtype=np.float64)
    fh = io.BytesIO()
    _text.write_rows(fh, [values[i::columns] for i in range(columns)])
    got = fh.getvalue().decode().replace("\r\n", ",").split(",")[:-1]
    want = [repr(float(v)) for v in values]
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]


@given(st.lists(st.floats(), max_size=64))
@settings(deadline=None)
def test_matches_repr_on_any_float(values):
    # st.floats() draws nan, +-inf, subnormals and +-0.0 among the rest
    assert _mismatches(values) == []


def test_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(2020).integers(0, 2**64 - 1, 1_000_000, dtype=np.uint64, endpoint=True)
    assert _mismatches(bits.view(np.float64), columns=4)[:5] == []


def _around(v, steps=3):
    out = [v]
    for direction in (-np.inf, np.inf):
        x = v
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return out


def test_matches_repr_at_boundaries():
    powers = [np.ldexp(1.0, e) for e in range(-1074, 1024)]  # asymmetric intervals
    layouts = [x for v in (1e-5, 1e-4, 1e15, 1e16, 1e17) for x in _around(v)]
    named = [2.0**53 - 1, 2.0**53 + 1, 2.0**53 + 2, np.finfo(float).max, 5e-324, 1e23,
             9007199254740993.0, 2.2250738585072014e-308, 0.1, 0.0, -0.0]
    values = np.array(powers + layouts + named)
    assert _mismatches(np.concatenate([values, -values])) == []


@pytest.mark.parametrize("columns", [1, 3, 13, 15])  # 13 and 15: cauchy.csv in 2D and 3D
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_edges(columns, offset):
    # 15 columns leave BLOCK % 15 slots of each pass unused
    rows = _text.BLOCK // columns
    rng = np.random.default_rng(rows + offset)
    values = rng.standard_normal(columns * (rows + offset)) * 10.0 ** rng.integers(-20, 20, columns * (rows + offset))
    assert _mismatches(values, columns) == []


def _padded(texts):
    """NUL-padded uint8 rows of the given byte strings."""
    out = np.zeros((len(texts), max(map(len, texts))), np.uint8)
    for row, text in zip(out, texts):
        row[: len(text)] = np.frombuffer(text, np.uint8)
    return out


@pytest.mark.parametrize("extra", [0, 7])
def test_lead_period_not_dividing_the_pass(extra):
    # as on a 30^3 grid (P = 900 rows per last-axis slice, so a pass starts
    # on a multiple of P) and a 60^3 grid (P = 3600, more than the
    # BLOCK // 3 rows of a pass)
    rows = 3 * (_text.BLOCK // 3) + extra
    rng = np.random.default_rng(rows)
    columns = list(rng.standard_normal((3, rows)) * 10.0 ** rng.integers(-6, 6, (3, rows)))
    for p in (900, 3600):
        prefix = [b"%d,%d," % (r % 30, r // 30) for r in range(p)]
        last = [b"%.1f," % (s / 3) for s in range(-(-rows // p))]
        fh = io.BytesIO()
        _text.write_rows(fh, columns, lead=(_padded(prefix), _padded(last)))
        want = b"".join(prefix[r % p] + last[r // p] + ",".join(repr(float(c[r])) for c in columns).encode()
                        + b"\r\n" for r in range(rows))
        assert fh.getvalue() == want


@pytest.mark.parametrize("n", [0, 1])
def test_short_arrays(n):
    values = np.full(n, -1.25)
    assert _mismatches(values) == []


@pytest.mark.parametrize("block", [0, 1, 2])
def test_strings_split_at_separators(block):
    # the fallback slots (inf, nan, subnormals) rewrite the whole slot and
    # must keep its separator, or two texts would run together; rows of 12
    # against a 13-value cycle move each through every column, the last
    # one ("\r\n") included
    specials = [np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.225073858507201e-308,
                -1e-310, 0.0, -0.0, 1e16, 1e-5]
    values = np.resize(np.array(specials + [0.1]), 12 * (block * _text.BLOCK // 12 + len(specials)))
    assert _mismatches(values, columns=12) == []


def _significant(text):
    """(decpt, digits) of a repr: the value is 0.digits x 10^decpt, digits without trailing zeros."""
    mantissa, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    decpt = len(whole) + (int(exp) if exp else 0) - (len(whole + frac) - len(digits))
    return decpt, digits.rstrip("0")


def _value_in(decpt, n, rng):
    """A positive double whose repr has n significant digits and its point at decpt."""
    for _ in range(1000):
        digits = "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, max(n - 2, 0)), rng.integers(1, 10)]))[:n]
        v = float(f"0.{digits}e{decpt}")
        if _significant(repr(v)) == (decpt, digits):
            return v
    raise AssertionError(f"no {n}-digit double found at decpt {decpt}")


def _every_layout():
    """One value of every layout: the point at -3..16 x 1..17 digits, and
    the exponent form x 1..17 digits with 2- and 3-digit exponents."""
    rng = np.random.default_rng(36)
    positional = [_value_in(decpt, n, rng) for decpt in range(-3, 17) for n in range(1, 18)]
    exponent = [_value_in(decpt, n, rng) for decpt in (-99, -4, 17, 100, -306, 309) for n in range(1, 18)]
    return np.array(positional), np.array(exponent)


def test_every_layout_sign_and_column():
    # each value with both signs, as the first, a middle and the last of
    # three columns: the layout table's 1428 columns are every layout x
    # sign x row end
    values = np.concatenate(_every_layout())
    layouts = {(decpt, len(digits)) for decpt, digits in (_significant(repr(float(v))) for v in values)}
    assert len(layouts) == (20 + 6) * 17
    values = np.concatenate([values, -values])
    for column in range(3):
        rows = np.full((len(values), 3), 0.5)
        rows[:, column] = values
        assert _mismatches(rows.ravel(), columns=3) == []


def test_positional_values_are_one_run():
    # the compaction's cost follows the runs of text between NUL bytes: a
    # positional value's slot holds one, from its sign to its separator
    positional = _every_layout()[0]
    x = np.stack([positional, -positional, positional[::-1], -positional[::-1]], axis=1)
    out = np.zeros(x.shape + (4,), np.uint64)
    _text._render(x, out, np.empty(_text._WORK * x.size, np.uint8))
    for row, slots in zip(x, out.view(np.uint8).reshape(x.shape + (_text.SLOT,))):
        for column, (v, slot) in enumerate(zip(row, slots)):
            text = slot.tobytes()
            sep = b"\r\n" if column == x.shape[1] - 1 else b","
            assert text.strip(b"\0") == repr(float(v)).encode() + sep, (v, text)


def test_scale_table_matches_big_integer_logarithms():
    # Schubfach's integer logarithms against exact big-integer ones, every entry
    def floor_log10(num, den):
        k = len(str(num)) - len(str(den))
        return k - (num * 10 ** max(-k, 0) < den * 10 ** max(k, 0))

    def floor_log2_pow10(e):
        return (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())

    scale = _text._tables()[0]
    want = np.zeros((3, 4096), np.int64)
    for i in range(2, 4094):
        be, irregular = divmod(i, 2)
        irregular &= be > 1
        q = be - 1075
        num, den = (3 if irregular else 1) << max(q, 0), (4 if irregular else 1) << max(-q, 0)
        k = floor_log10(num, den)
        want[:, i] = k, q + floor_log2_pow10(-k) + 2, 2 - irregular
    assert np.array_equal(scale, want)


def test_scale_table_keeps_products_in_range():
    # (4c + 2) << h < 2^60 for every significand c < 2^53, which keeps the
    # 32-bit-limb partial sums of `_round_to_odd` below 2^64
    scale, powers = _text._tables()[:2]
    h = scale[1, 2:4094]
    assert h.min() >= 0 and h.max() <= 5
    assert int(powers[4].max()) < 2**63 and int(powers[4].min()) >= 2**62


def test_import_builds_no_tables():
    # building them takes tens of milliseconds, which every CLI start would pay
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import heliodsm.cli, heliodsm._text as t; print(t._tables.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def test_cli_import_leaves_out_what_reconstruct_never_needs():
    # the oracle suite and the thread pool load on first use
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, heliodsm.cli; print(sorted({'concurrent.futures', 'heliodsm.verify'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="glibc malloc tunables")
def test_passes_allocate_no_temporaries():
    # With these tunables glibc returns every freed block at the top of the
    # heap to the system, so passes that allocate their pass-length
    # temporaries fault them back in every pass: over 300 times a pass. The
    # compacted text (about 160 kB) is the one array a pass allocates here.
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0", MALLOC_MMAP_THRESHOLD_="131072")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """if True:
        import os, resource
        import numpy as np
        from heliodsm import _text
        rows = _text.BLOCK // 3
        x = np.random.default_rng(0).standard_normal((3, 20 * rows))
        counts = []
        with open(os.devnull, "wb") as fh:
            _text.write_rows(fh, x[:, : 2 * rows])
            for passes in (20, 2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                _text.write_rows(fh, x[:, : passes * rows])
                counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print((counts[0] - counts[1]) / 18)
    """
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 100
