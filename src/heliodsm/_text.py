"""Float text for the CSV writers: exactly the bytes of ``repr(float(v))``, for whole arrays.

`write_rows` writes CSV rows of float64 columns; it renders through
`_render`, which makes no Python call per value:

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
  integers. Every value's text and separator sit in a 32-byte slot, four
  uint64 words: the digits behind seven ``0`` bytes, the exponent suffix
  in bytes 25-29. The layout table has one column per layout (decimal
  point at -3..16 x 1..17 significant digits, or the exponent form x
  1..17 digits), sign and row end, 357 x 2 x 2 = 1428 columns. Each gives
  the byte window kept, the bytes that move up one place to make room for
  the point, and the marks or-ed in: the point, ``-`` just before the
  first character, and ``,`` (``\r\n`` after a row's last value) just
  after the last, or after the suffix in bytes 30-31 for the exponent
  form. Every other byte is NUL, so one ``M[M != 0]`` compacts a whole
  block of rows.
* **Runs.** The compaction's cost follows the runs of text between NUL
  bytes, not the bytes. A positional value, and a fallback, is one run
  from its sign to its separator; the exponent form is two, or three
  when the NUL hundreds byte of an exponent below 100 splits its suffix.
* **Row lead.** `write_rows` can start each row with NUL-padded text
  before its slots, such as a grid point's coordinates: a `prefix` table
  that repeats every P rows and a `last` table that advances every P
  rows, so a block takes them by two slice copies per P-row run. With
  `prefix` padded at the front and `last` at the back, a row's lead is
  one run.
* **Fallback.** Subnormals, infinities and nan take ``repr`` itself, one
  value at a time, and rewrite their slot whole: the text, then the
  separator.
* **Workspace.** A call allocates one block for all its passes: the rows
  a pass computes in (15 uint64 and 6 bool rows of `BLOCK` values), the
  text block, the stacked columns and the compaction mask, which reuses
  the render rows' bytes. Every op of a pass writes into it (``out=``, in
  place, ``np.putmask``, or ``np.take(..., out=, mode="clip")`` for the
  table lookups), so the compacted text is the one array a pass
  allocates. Pass-length temporaries would be handed back to the kernel
  by glibc when freed at the top of the heap and faulted in again by the
  next pass. Masked ufuncs (``where=``) are avoided: they run 10-20 times
  slower than the plain op.

Integer work runs in int64 where the values fit and otherwise in uint64
with explicit ``np.uint64`` constants only: numpy 1.x promotes uint64 mixed
with a Python int or an int64 array to float64. The tables are built on
first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["write_rows"]

SLOT = 32  # bytes per value: its text and separator, NUL-padded (see Layout)
# Values rendered per pass. At 4096 values each numpy call's fixed cost is
# about a third of its time; longer passes pay only because a pass
# allocates nothing (see Workspace). 16384 wrote 3-5% faster than 8192 but
# doubles the block a call allocates (3.1 MB for a 3D indicator CSV).
BLOCK = 8192
_ROWS, _FLAGS = 15, 6  # uint64 and bool rows of a pass's workspace (see _render)
_WORK = 8 * _ROWS + _FLAGS  # workspace bytes per value

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M52 = np.int64((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0'
_ONE = np.float64(1.0).view(np.int64)
_KMIN = -324  # the least k = floor(log10(2^q)) of a normal double
_LAYOUTS = 357  # 20 point positions x 17 digit counts, then 17 exponent forms


def _log2_pow10(e):
    """floor(log2(10^e)) of an int or int64 array (Schubfach, exact for |e| <= 1838394)."""
    return (e * 913124641741) >> 38


def _as_words(slots) -> np.ndarray:
    """uint8 slots (..., 32) -> their four little-endian words (..., 4) as uint64."""
    return np.ascontiguousarray(slots).view("<u8").astype(np.uint64)


@cache
def _tables():
    """(scale, powers, layouts, suffixes, ascii4); see the module docstring."""
    # scale[:, 2 be + irregular]: k, h and cb - cbl for biased exponent be;
    # below a power of two (zero significand bits) the interval is half as
    # wide, except at 2^-1022, where the subnormals keep the spacing regular
    scale = np.zeros((3, 4096), np.int64)
    i = np.arange(2, 4094)
    be = i >> 1
    irregular = (i & 1) & (be > 1)
    q = be - 1075
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) where irregular, by
    # Schubfach's integer logarithm (exact for |q| <= 5456721)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    scale[:, 2:4094] = k, q + _log2_pow10(-k) + 2, 2 - irregular
    # powers[:, k - _KMIN]: g = floor(10^-k 2^r) + 1 in [2^125, 2^126), as
    # 32-bit limbs of its low and high 63-bit halves, then the high half
    powers = np.zeros((5, 617), np.uint64)
    for i in range(617):
        e = -(i + _KMIN)
        shift = 125 - _log2_pow10(e)
        if e >= 0:
            g = (10**e << shift if shift >= 0 else 10**e >> -shift) + 1
        else:
            g = (1 << shift) // 10**-e + 1
        lo, hi = g & ((1 << 63) - 1), g >> 63
        powers[:, i] = lo & 0xFFFFFFFF, lo >> 32, hi & 0xFFFFFFFF, hi >> 32, hi
    # layouts[:, id]: the digit window kept (3 words), the bytes from the
    # point on (3 words) and the marks or-ed in (4 words). The digits z sit
    # in bytes 7-23 of the slot behind seven '0's; a text is z[a:b] '.'
    # z[b:c] (b = 32: no point). The first 357 ids are the positional forms
    # (0.000ddd .. dddd.0, id (decpt + 3) * 17 + n - 1) and the exponent
    # forms (d.ddd or d, 340 + n - 1); id + 357 is the negative value and
    # id + 714 the row's last, whose marks differ.
    positional = np.arange(_LAYOUTS) < 340
    decpt = np.repeat(np.arange(-3, 18), 17)
    n = np.tile(np.arange(1, 18), 21)
    a = np.where(positional, 6 + np.minimum(decpt, 1), 7)
    b = np.where(positional, 7 + decpt, np.where(n > 1, 8, SLOT))
    c = 7 + np.where(positional, np.maximum(n, decpt + 1), n)
    sep = np.where(positional, c + 1, 30)  # an exponent form's follows its suffix
    pos = np.arange(SLOT)

    def at(where):
        return pos == where[:, None]

    window = ((a[:, None] <= pos) & (pos < c[:, None])) * np.uint8(0xFF)
    after = (pos >= b[:, None]) * np.uint8(0xFF)
    marks = np.zeros((2, 2, _LAYOUTS, SLOT), np.uint8)  # [ends a row, negative]
    marks[...] = at(b) * np.uint8(ord("."))
    marks[:, 1] += at(a - 1) * np.uint8(ord("-"))
    marks[0] += at(sep) * np.uint8(ord(","))
    marks[1] += at(sep) * np.uint8(ord("\r")) + at(sep + 1) * np.uint8(ord("\n"))
    shapes = np.tile(np.concatenate([_as_words(window)[:, :3], _as_words(after)[:, :3]], axis=1), (4, 1))
    layouts = np.concatenate([shapes, _as_words(marks).reshape(4 * _LAYOUTS, 4)], axis=1).T.copy()
    # suffixes[e + 309]: the top word of an exponent-form slot, 'e', sign
    # and digits in bytes 25-29 (the hundreds byte NUL below 100); [0] is empty
    e = np.arange(-308, 309)
    top = np.zeros((618, 8), np.uint8)
    top[1:, 1] = ord("e")
    top[1:, 2] = np.where(e < 0, ord("-"), ord("+"))
    top[1:, 3] = np.where(abs(e) >= 100, abs(e) // 100 + ord("0"), 0)
    top[1:, 4] = abs(e) // 10 % 10 + ord("0")
    top[1:, 5] = abs(e) % 10 + ord("0")
    suffixes = _as_words(top)[:, 0]
    places = np.array([1000, 100, 10, 1], np.uint16)
    chars = (np.arange(10000, dtype=np.uint16)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    ascii4 = chars.view("<u4")[:, 0].astype(np.uint64)
    for table in (scale, powers, layouts, suffixes, ascii4):
        table.flags.writeable = False
    return scale, powers, layouts, suffixes, ascii4


def _round_to_odd(g, cp, t) -> None:
    """cp = floor(g cp / 2^127), with its lowest bit set when the quotient is not whole.

    g = (g0 lo, g0 hi, g1 lo, g1 hi, g1) as in `_tables`; cp < 2^60, and t
    holds four uint64 rows of its shape to work in. The bits of g0 cp below
    2^64 are dropped, as the method allows.
    """
    g0l, g0h, g1l, g1h, g1 = g
    cl, x1, y1, p = t
    np.multiply(g1, cp, out=p)
    p >>= _U(1)
    np.bitwise_and(cp, _M32, out=cl)
    cp >>= _U(32)
    ch = cp
    # x1 = (((g0l cl) >> 32) + g0l ch + g0h cl >> 32) + g0h ch, and likewise y1
    np.multiply(g0l, cl, out=x1)
    x1 >>= _U(32)
    np.multiply(g0l, ch, out=y1)
    x1 += y1
    np.multiply(g0h, cl, out=y1)
    x1 += y1
    x1 >>= _U(32)
    np.multiply(g0h, ch, out=y1)
    x1 += y1
    x1 += p  # z = ((g1 cp) >> 1) + x1
    np.multiply(g1l, cl, out=y1)
    y1 >>= _U(32)
    np.multiply(g1l, ch, out=p)
    y1 += p
    cl *= g1h
    y1 += cl
    y1 >>= _U(32)
    ch *= g1h
    y1 += ch
    # (y1 + (z >> 63)) | min(z << 1, 1)
    np.right_shift(x1, _U(63), out=p)
    y1 += p
    x1 <<= _U(1)
    np.minimum(x1, _U(1), out=x1)
    np.bitwise_or(y1, x1, out=cp)


def _shortest(u, b, tables):
    """(d, k): the shortest decimal d 10^k that reads back as each positive normal double.

    u (uint64) and b (bool) are workspace rows; u[0] holds the doubles' bits
    on entry. d (a row of u) has 16 or 17 digits; k is a row of u as int64.
    Uses u[0:15] and b[2:6].
    """
    scale, powers = tables
    i = u.view(np.int64)
    be, m = i[1], i[0]
    np.right_shift(m, np.int64(52), out=be)
    m &= _M52
    # the scale column of (be, irregular): m - 1 < 0 at a power of two
    np.subtract(m, np.int64(1), out=i[2])
    i[2] >>= np.int64(63)
    i[2] &= np.int64(1)
    be <<= np.int64(1)
    be |= i[2]
    np.take(scale, be, axis=1, out=i[2:5], mode="clip")
    k, h, dl = i[2], u[3], u[4]
    np.subtract(k, np.int64(_KMIN), out=i[1])
    g = u[5:10]
    np.take(powers, i[1], axis=1, out=g, mode="clip")
    c, cb = u[0], u[1]
    c |= _HIDDEN
    np.left_shift(c, _U(2), out=cb)
    odd = c
    odd &= _U(1)  # an odd significand's interval excludes its ends
    vbl = dl
    np.subtract(cb, dl, out=vbl)
    vbl <<= h
    _round_to_odd(g, vbl, u[10:14])
    vbl += odd
    vb = u[10]
    np.left_shift(cb, h, out=vb)
    _round_to_odd(g, vb, u[11:15])
    vbr = cb
    vbr += _U(2)
    vbr <<= h
    _round_to_odd(g, vbr, u[11:15])
    vbr -= odd
    # One digit fewer (sp or sp + 10) when exactly one of those lies in the
    # interval, else s or s + 1, the closer one if both do.
    s4, s, sp, t, t2 = u[0], u[3], u[5], u[6], u[7]
    upin, wpin, up, t3 = b[2:6]
    np.bitwise_and(vb, ~_U(3), out=s4)
    np.right_shift(vb, _U(2), out=s)
    np.floor_divide(s, _U(10), out=sp)
    sp *= _U(10)
    np.left_shift(sp, _U(2), out=t)
    np.less_equal(vbl, t, out=upin)
    t += _U(40)
    np.less_equal(t, vbr, out=wpin)
    # up = ~(vbl <= s4) | ((s4 + 4 <= vbr) & (vb + (s & 1) > s4 + 2))
    np.add(s4, _U(4), out=t)
    np.less_equal(t, vbr, out=up)
    np.bitwise_and(s, _U(1), out=t)
    t += vb
    np.add(s4, _U(2), out=t2)
    np.greater(t, t2, out=t3)
    up &= t3
    np.greater(vbl, s4, out=t3)
    up |= t3
    upin ^= wpin
    np.copyto(t, wpin)
    t *= _U(10)
    sp += t
    np.copyto(t, up)
    s += t
    np.putmask(s, upin, sp)
    return s, k


def _render(x, out, work) -> None:
    """Write the CSV text of each float64 in `x` into the uint64 words `out` (x.shape + (4,)).

    A slot holds the value's repr, then "\r\n" if it is the last along
    x's last axis (a row) and "," otherwise, NUL-padded (see Layout).
    `work` is a uint8 workspace of at least _WORK bytes per value, 8-byte
    aligned; every array of the pass is one of its rows, written in place.
    """
    scale, powers, layouts, suffixes, ascii4 = _tables()
    split = 8 * _ROWS * x.size
    u = work[:split].view(np.uint64).reshape((_ROWS,) + x.shape)
    b = work[split : split + _FLAGS * x.size].view(np.bool_).reshape((_FLAGS,) + x.shape)
    i, f = u.view(np.int64), u.view(np.float64)
    bits = x.view(np.int64)
    special, zero = b[0], b[1]
    mag = i[0]
    np.bitwise_and(bits, np.int64(0x7FFFFFFFFFFFFFFF), out=mag)
    np.right_shift(mag, np.int64(52), out=i[1])
    np.equal(i[1], np.int64(0), out=special)
    np.equal(i[1], np.int64(2047), out=zero)
    special |= zero
    np.equal(mag, np.int64(0), out=zero)
    np.putmask(mag, special, _ONE)  # zeros and the fallbacks render as 1.0 here
    d, k = _shortest(u, b, (scale, powers))
    # d has 16 or 17 digits; make it 17, decpt places the point after digit decpt
    short = u[4]
    np.less(d, _U(10**16), out=b[2])
    np.copyto(short, b[2])
    decpt = k
    decpt += np.int64(17)
    decpt -= short.view(np.int64)
    short *= _U(9)
    short += _U(1)
    d *= short
    # the digits: lead, then hi and lo (8 each) as two 4-digit halves each
    lead, rest, hi, lo, t = i[0], i[1], i[4], i[5], i[6]
    for num, quo, rem, p in ((i[3], lead, rest, 10**16), (rest, hi, lo, 10**8),
                             (hi, i[7], i[8], 10**4), (lo, i[9], i[10], 10**4)):
        np.floor_divide(num, np.int64(p), out=quo)
        np.multiply(quo, np.int64(p), out=t)
        np.subtract(num, t, out=rem)
    z0, z1, z2, t = u[0], u[1], u[3], u[4]
    z0 <<= _U(56)
    z0 |= _ZEROS
    np.putmask(z0, zero, _ZEROS)
    np.take(ascii4, i[7], out=z1, mode="clip")
    np.take(ascii4, i[8], out=t, mode="clip")
    t <<= _U(32)
    z1 |= t
    np.take(ascii4, i[9], out=z2, mode="clip")
    np.take(ascii4, i[10], out=t, mode="clip")
    t <<= _U(32)
    z2 |= t
    # significant digits: from the highest byte of z1, z2 that is not '0'
    # (a float64 conversion gives its bit length exactly: each byte is < 10)
    for z, top in ((z1, 5), (z2, 6)):
        np.bitwise_xor(z, _ZEROS, out=t)
        np.copyto(f[top], t)
        i[top] >>= np.int64(52)
        i[top] -= np.int64(1023)
        i[top] >>= np.int64(3)
    nsig = i[5]  # significant digits less one
    nsig += np.int64(1)
    i[6] += np.int64(9)
    np.maximum(nsig, i[6], out=nsig)
    np.maximum(nsig, np.int64(0), out=nsig)  # eight '0's give top = -128
    # layout (decpt + 3) * 17 + nsig when -3 <= decpt <= 16, else 340 +
    # nsig (decpt + 3 as uint64 is at least 20 otherwise); then 357 more
    # for a negative value and 714 more for a row's last
    layout, positional = i[4], b[3]
    np.add(decpt, np.int64(3), out=layout)
    np.less_equal(layout.view(_U), _U(19), out=positional)
    np.minimum(layout.view(_U), _U(20), out=layout.view(_U))
    layout *= np.int64(17)
    layout += nsig
    np.right_shift(bits, np.int64(63), out=nsig)  # -1 where negative
    nsig &= np.int64(_LAYOUTS)
    layout += nsig
    layout[..., -1] += np.int64(2 * _LAYOUTS)
    w0, w1, w2, a0, a1, a2, p0, p1, p2, p3 = u[5:15]
    np.take(layouts, layout, axis=1, out=u[5:15], mode="clip")
    z0 &= w0
    z1 &= w1
    z2 &= w2
    a0 &= z0
    a1 &= z1
    a2 &= z2
    z0 ^= a0
    z1 ^= a1
    z2 ^= a2
    suffix = layout.view(_U)
    decpt += np.int64(308)
    np.putmask(decpt, positional, np.int64(0))
    np.take(suffixes, decpt, out=suffix, mode="clip")
    # out[j] = (zj ^ aj) | (aj << 8) | (a(j-1) >> 56) | pj
    z0 |= p0
    np.left_shift(a0, _U(8), out=w0)
    np.bitwise_or(z0, w0, out=out[..., 0])
    z1 |= p1
    np.left_shift(a1, _U(8), out=w1)
    z1 |= w1
    np.right_shift(a0, _U(56), out=w1)
    np.bitwise_or(z1, w1, out=out[..., 1])
    z2 |= p2
    np.left_shift(a2, _U(8), out=w2)
    z2 |= w2
    np.right_shift(a1, _U(56), out=w2)
    np.bitwise_or(z2, w2, out=out[..., 2])
    a2 >>= _U(56)
    a2 |= suffix
    np.bitwise_or(a2, p3, out=out[..., 3])
    special ^= zero  # zero is a subset of special
    if not special.any():  # the common pass: np.nonzero would cost 15 times as much
        return
    for j in zip(*np.nonzero(special)):
        text = repr(float(x[j])) + ("\r\n" if j[-1] == x.shape[-1] - 1 else ",")
        out[j] = np.frombuffer(text.encode().ljust(SLOT, b"\0"), "<u8")


def write_rows(fh, columns, lead=None) -> None:
    """Write one CSV row per entry of the float `columns` to the binary file `fh`.

    Row r is its lead bytes (NUL bytes dropped), then ``repr(float(c[r]))``
    of each column, joined by ',' and ended by "\r\n". `lead` is None or a
    pair (prefix, last) of uint8 matrices: row r's lead is row r % P of
    `prefix`, P = len(prefix), then row r // P of `last`; a pass copies
    both by slices, two per P-row slice it meets.
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
    # One allocation serves every pass: the text block, the stacked columns
    # and the render rows, whose bytes take the compaction mask once a pass
    # is rendered. As the largest block the call frees, it also keeps glibc
    # from trimming the heap under the next call's arrays.
    size, width = step * m, start + m * SLOT
    nt, nx = step * width, 8 * size  # bytes of the text block and of the columns
    buf = np.empty(nt + nx + max(_WORK * size, nt), np.uint8)
    text = buf[:nt].reshape(step, width)
    text[:] = 0
    x = buf[nt : nt + nx].view(np.float64).reshape(step, m)
    work = buf[nt + nx :]
    keep = work[:nt].view(np.bool_).reshape(step, width)
    words = text[:, start:].view("<u8").reshape(step, m, 4)
    for i in range(0, n, step):
        rows = min(step, n - i)
        for s in range(i // p, (i + rows - 1) // p + 1):
            lo, hi = max(i, s * p), min(i + rows, (s + 1) * p)
            text[lo - i : hi - i, :mid] = prefix[lo - s * p : hi - s * p]
            text[lo - i : hi - i, mid:end] = last[s]
        np.stack([c[i : i + rows] for c in columns], axis=1, out=x[:rows])
        _render(x[:rows], words[:rows], work)
        np.not_equal(text[:rows], 0, out=keep[:rows])
        fh.write(text[:rows][keep[:rows]])
