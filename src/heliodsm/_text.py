"""Float text for the CSV writers: exactly the bytes of ``repr(float(v))``, for whole arrays.

`write_rows` writes CSV rows of float64 columns and `strings` returns the
texts of a few values; both render through `_render`, which makes no
Python call per value:

* **Digits.** Python's ``repr`` writes the shortest decimal that reads
  back as the same double and, of those, the one closest to it (ties to
  even). Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020) finds it with one scaled power of ten g ~ 10^-k, 126 bits long
  and split into two 63-bit halves (617 of them cover every normal
  double), and three rounded-to-odd products g * c: the value and the two
  ends of its rounding interval. numpy has no 64x64 -> 128-bit multiply,
  so each product is taken over 32-bit limbs. The result d * 10^k has 16
  or 17 digits, which two lookups of a 4-digit ASCII table per 8 digits
  turn into text.
* **Layout.** ``repr`` writes 1e16 and up, and below 1e-4, as
  ``d.ddde+XX``, and the rest positionally with a ``.0`` suffix on
  integers. Every value's text sits in a 32-byte slot: the digits behind
  seven ``0`` bytes, then the exponent suffix, then the value's separator
  in bytes 30-31 (``,``, or ``\r\n`` after a row's last value), which the
  last word of the slot takes in the same store. A per-layout table
  (decimal point position x significant digits) gives the byte window
  that is kept and where the point goes; uint64 shifts insert it. The
  bytes left out are NUL, so one ``M[M != 0]`` compacts a whole block of
  rows; `strings` compacts all its slots with one mask and splits the
  text at the separators once.
* **Row lead.** `write_rows` can start each row with NUL-padded text
  before its slots, such as a grid point's coordinates: a `prefix` table
  that repeats every P rows and a `last` table that advances every P
  rows, so a block takes them by two slice copies per P-row run.
* **Fallback.** Subnormals, infinities and nan take ``repr`` itself, one
  value at a time; the slot is rewritten whole and gets its separator back.

Integer work runs in int64 where the values fit and otherwise in uint64
with explicit ``np.uint64`` constants only: numpy 1.x promotes uint64 mixed
with a Python int or an int64 array to float64. The tables are built on
first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["write_rows", "strings"]

SLOT = 32  # bytes per value: text (at most 24 bytes, in bytes 0-29), separator (bytes 30-31)
# Values rendered per pass. A pass holds about 1 MB of uint64 temporaries
# of 32 kB each; 8192 values wrote about 7% faster but raised the peak RSS
# of a 2D reconstruct by 0.7 MB, and temporaries ten times longer ran many
# times slower per value (fresh pages on every allocation).
BLOCK = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M52 = np.int64((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0'
_ONE = np.float64(1.0).view(np.int64)
_COMMA = _U(ord(",") << 56)  # the last word of a slot with "," in byte 31
_CRLF = _U(ord("\r") << 48 | ord("\n") << 56)  # "\r\n" in bytes 30-31
_KMIN = -324  # the least k = floor(log10(2^q)) of a normal double


def _floor_log10(num: int, den: int) -> int:
    k = len(str(num)) - len(str(den))
    return k - (num * 10 ** max(-k, 0) < den * 10 ** max(k, 0))


def _floor_log2_pow10(e: int) -> int:
    return (10**e).bit_length() - 1 if e >= 0 else -((10**-e).bit_length())


def _words(mask: int) -> list[int]:
    """A 32-byte slot given as an int (byte i at bits 8i) -> its four little-endian words."""
    return [(mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(4)]


def _bytes_at(pos: int, text: bytes) -> int:
    return sum(ch << (8 * (pos + i)) for i, ch in enumerate(text))


def _span(lo: int, hi: int) -> int:
    return _bytes_at(lo, b"\xff" * (hi - lo))


@cache
def _tables():
    """(scale, powers, layouts, suffixes, ascii4); see the module docstring."""
    # scale[:, 2 be + irregular]: k, h and cb - cbl for biased exponent be;
    # below a power of two (zero significand bits) the interval is half as
    # wide, except at 2^-1022, where the subnormals keep the spacing regular
    scale = np.zeros((3, 4096), np.int64)
    for i in range(2, 4094):
        be, irregular = divmod(i, 2)
        irregular &= be > 1
        q = be - 1075
        num, den = (3 if irregular else 1) << max(q, 0), (4 if irregular else 1) << max(-q, 0)
        k = _floor_log10(num, den)
        scale[:, i] = k, q + _floor_log2_pow10(-k) + 2, 2 - irregular
    # powers[:, k - _KMIN]: g = floor(10^-k 2^r) + 1 in [2^125, 2^126), as
    # 32-bit limbs of its low and high 63-bit halves, then the high half
    powers = np.zeros((5, 617), np.uint64)
    for i in range(617):
        e = -(i + _KMIN)
        shift = 125 - _floor_log2_pow10(e)
        if e >= 0:
            g = (10**e << shift if shift >= 0 else 10**e >> -shift) + 1
        else:
            g = (1 << shift) // 10**-e + 1
        lo, hi = g & ((1 << 63) - 1), g >> 63
        powers[:, i] = lo & 0xFFFFFFFF, lo >> 32, hi & 0xFFFFFFFF, hi >> 32, hi
    # layouts[:, id]: the digit window kept, the bytes from the point on and
    # the point itself, 3 words each. The digits z sit in bytes 7-23 of the
    # slot behind seven '0's; a text is z[a:b] '.' z[b:c], and b < 24.
    rows = []
    for decpt in range(-3, 17):  # positional: 0.000ddd .. dddd.0
        for n in range(1, 18):
            if decpt <= 0:
                rows.append((6 + decpt, 7 + decpt, 7 + n))
            else:
                rows.append((7, 7 + decpt, 7 + max(n, decpt + 1)))
    for n in range(1, 18):  # exponent form: d.ddd, or d alone
        rows.append((7, 8 if n > 1 else None, 7 + n))
    layouts = []
    for a, b, c in rows:
        after = dot = 0
        if b is not None:
            after, dot = _span(b, SLOT), _bytes_at(b, b".")
        layouts.append(_words(_span(a, c))[:3] + _words(after)[:3] + _words(dot)[:3])
    layouts = np.array(layouts, np.uint64).T.copy()
    # suffixes[e + 309]: the top word of an exponent-form slot, 'e', sign
    # and digits in bytes 25-29 (the hundreds byte NUL below 100); [0] is empty
    suffixes = [0]
    for e in range(-308, 309):
        digits = b"%03d" % abs(e) if abs(e) >= 100 else b"\0%02d" % abs(e)
        suffixes.append(_words(_bytes_at(25, b"e" + (b"+" if e >= 0 else b"-") + digits))[3])
    suffixes = np.array(suffixes, np.uint64)
    places = np.array([1000, 100, 10, 1], np.uint16)
    chars = (np.arange(10000, dtype=np.uint16)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    ascii4 = chars.view("<u4")[:, 0].astype(np.uint64)
    for table in (scale, powers, layouts, suffixes, ascii4):
        table.flags.writeable = False
    return scale, powers, layouts, suffixes, ascii4


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), with its lowest bit set when the quotient is not whole.

    g = (g0 lo, g0 hi, g1 lo, g1 hi, g1) as in `_tables`; cp < 2^60. The
    bits of g0 cp below 2^64 are dropped, as the method allows.
    """
    g0l, g0h, g1l, g1h, g1 = g
    cl = cp & _M32
    ch = cp >> _U(32)
    x1 = (((g0l * cl) >> _U(32)) + g0l * ch + g0h * cl >> _U(32)) + g0h * ch
    y1 = (((g1l * cl) >> _U(32)) + g1l * ch + g1h * cl >> _U(32)) + g1h * ch
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | np.minimum(z << _U(1), _U(1))


def _shortest(mag, tables):
    """(d, k): the shortest decimal d 10^k that reads back as each positive normal double.

    `mag` holds the doubles' bits as int64. d has 16 or 17 digits.
    """
    scale, powers = tables
    be = mag >> np.int64(52)
    m = mag & _M52
    k, h, dl = np.take(scale, (be << np.int64(1)) | (((m - 1) >> np.int64(63)) & 1), axis=1)
    g = np.take(powers, k - _KMIN, axis=1)
    h = h.view(_U)
    c = m.view(_U) | _HIDDEN
    cb = c << _U(2)
    odd = c & _U(1)  # an odd significand's interval excludes its ends
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - dl.view(_U)) << h) + odd
    vbr = _round_to_odd(g, (cb + _U(2)) << h) - odd
    # One digit fewer (sp or sp + 10) when exactly one of those lies in the
    # interval, else s or s + 1, the closer one if both do.
    s4 = vb & ~_U(3)
    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)
    upin = vbl <= sp << _U(2)
    wpin = (sp << _U(2)) + _U(40) <= vbr
    uin = vbl <= s4
    up = ~uin | ((s4 + _U(4) <= vbr) & (vb + (s & _U(1)) > s4 + _U(2)))
    d = np.where(upin != wpin, sp + wpin * _U(10), s + up)
    return d, k


def _render(x, out, sep) -> None:
    """Write the repr text of each float64 in `x` into the uint64 words `out` (x.shape + (4,)).

    A slot holds the text NUL-padded in bytes 0-29 and the separator in
    bytes 30-31: `sep` (broadcast against `x`) is or-ed into its last word.
    """
    scale, powers, layouts, suffixes, ascii4 = _tables()
    bits = x.view(np.int64)
    mag = bits & np.int64(0x7FFFFFFFFFFFFFFF)
    be = mag >> np.int64(52)
    special = (be == 0) | (be == 2047)
    zero = mag == 0
    # zeros and the fallbacks render as 1.0 here
    d, k = _shortest(np.where(special, _ONE, mag), (scale, powers))
    # d has 16 or 17 digits; make it 17, decpt places the point after digit decpt
    short = d < _U(10**16)
    d = np.where(short, d * _U(10), d).view(np.int64)  # int64 indexes the table without a cast
    decpt = k + np.where(short, 16, 17)
    lead = d // 10**16
    rest = d - lead * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    hi4 = hi // 10**4
    lo4 = lo // 10**4
    z0 = np.where(zero, _ZEROS, (lead.view(_U) << _U(56)) | _ZEROS)
    z1 = ascii4[hi4] | (ascii4[hi - hi4 * 10**4] << _U(32))
    z2 = ascii4[lo4] | (ascii4[lo - lo4 * 10**4] << _U(32))
    # significant digits: from the highest byte of z1, z2 that is not '0'
    # (a float64 conversion gives its bit length exactly: each byte is < 10)
    top1 = ((z1 ^ _ZEROS).astype(np.float64).view(np.int64) >> np.int64(52)) - 1023 >> 3
    top2 = ((z2 ^ _ZEROS).astype(np.float64).view(np.int64) >> np.int64(52)) - 1023 >> 3
    nsig = np.maximum(np.maximum(top1 + 2, top2 + 10), 1)  # eight '0's give top = -128
    positional = (decpt >= -3) & (decpt <= 16)
    layout = np.where(positional, (decpt + 3) * 17, 340) + (nsig - 1)
    w0, w1, w2, a0, a1, a2, p0, p1, p2 = np.take(layouts, layout, axis=1)
    z0 &= w0
    z1 &= w1
    z2 &= w2
    a0 &= z0
    a1 &= z1
    a2 &= z2
    out[..., 0] = (z0 ^ a0) | (a0 << _U(8)) | p0 | ((bits.view(_U) >> _U(63)) * _U(ord("-")))
    out[..., 1] = (z1 ^ a1) | (a1 << _U(8)) | (a0 >> _U(56)) | p1
    out[..., 2] = (z2 ^ a2) | (a2 << _U(8)) | (a1 >> _U(56)) | p2
    out[..., 3] = (a2 >> _U(56)) | suffixes[np.where(positional, 0, decpt + 308)] | sep
    for i in zip(*np.nonzero(special & ~zero)):
        out[i] = np.frombuffer(repr(float(x[i])).encode().ljust(SLOT, b"\0"), "<u8")
        out[i + (3,)] |= np.broadcast_to(sep, x.shape)[i]


def strings(values) -> list[str]:
    """``[repr(float(v)) for v in values]``, rendered by the same code as `write_rows`."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    slots = np.empty((len(x), 4), "<u8")
    for i in range(0, len(x), BLOCK):
        _render(x[i : i + BLOCK], slots[i : i + BLOCK], _COMMA)
    text = slots.view(np.uint8)
    return text[text != 0].tobytes().decode().split(",")[:-1]


def write_rows(fh, columns, lead=None) -> None:
    """Write one CSV row per entry of the float `columns` to the binary file `fh`.

    Row r is its lead bytes (NUL bytes dropped), then ``repr(float(c[r]))``
    of each column, joined by ',' and ended by "\r\n". `lead` is None or a
    pair (prefix, last) of uint8 matrices: row r's lead is row r % P of
    `prefix`, P = len(prefix), then row r // P of `last`. A pass copies the
    lead in by slices, two copies per P-row slice it meets.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n, m = len(columns[0]), len(columns)
    if lead is None:  # one empty prefix per row: a pass meets a single slice
        lead = np.empty((n, 0), np.uint8), np.empty((1, 0), np.uint8)
    prefix, last = lead
    p, mid = prefix.shape
    end = mid + last.shape[1]
    step = max(1, min(n, BLOCK // m))
    start = -(-end // 8) * 8  # the slots start on a word
    text = np.zeros((step, start + m * SLOT), np.uint8)
    words = text[:, start:].view("<u8").reshape(step, m, 4)
    sep = np.full(m, _COMMA)
    sep[-1] = _CRLF
    for i in range(0, n, step):
        rows = min(step, n - i)
        for s in range(i // p, (i + rows - 1) // p + 1):
            lo, hi = max(i, s * p), min(i + rows, (s + 1) * p)
            text[lo - i : hi - i, :mid] = prefix[lo - s * p : hi - s * p]
            text[lo - i : hi - i, mid:end] = last[s]
        _render(np.stack([c[i : i + rows] for c in columns], axis=1), words[:rows], sep)
        part = text[:rows]
        fh.write(part[part != 0])
