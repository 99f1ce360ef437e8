"""``'%.17g' % x`` for every degree of an array at once, on numpy.

The ``%`` is a correctly rounded dtoa that takes its bignum path for 17
digits.  For 1e-4 <= x < 1 they are exact in double arithmetic instead: with
x in [10**e, 10**(e+1)), 10**(16-e) <= 1e20 is an exact double, so Dekker's
error-free product (1971) gives x * 10**(16-e) exactly as hi + lo, and the 17
digits are int(hi) + rint(lo), ties to even, since hi >= 2**53 is even.  +0.0
and 1.0 print "0" and "1"; the rest of [0, 1] (-0.0, below 1e-4, subnormals)
is rare in a report and goes through ``%`` one value at a time.

Texts are built in little-endian words of 4 ASCII bytes, NUL where a byte
holds no character.  An array is written a fixed-size slice at a time, each
slice's text cut into rows at once, so that besides the rows' texts a write
holds one slice's arrays, whatever its length.
"""

import numpy as np

# Each double is above its power of ten, so x >= _LOWS[k] iff x >= 10**(k-4)
# exactly; x * _SCALES[band] has 17 digits, band being how many x reaches.
_LOWS = (1e-4, 1e-3, 1e-2, 1e-1)
_SCALES = np.array([1e20, 1e20, 1e19, 1e18, 1e17])


def _halves(a):
    """Veltkamp's split: ``a`` as the sum of two doubles of 26 bits or fewer."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _divmod(a, b: int):
    """``divmod`` by a constant, on numpy's fast loop for ``//`` (``%`` has none)."""
    q = a // b
    return q, a - q * b


_SCALE_HALVES = _halves(_SCALES)


def _quads():
    """[k]: the 4 digits of k, trailing zeros NUL (all 4 for 0); [10000 + k]:
    all 4.  A number's digit groups after its last nonzero digit drop those
    zeros, as "%g" does."""
    k = np.arange(10000, dtype="<u4")
    quads = np.zeros(20000, "<u4")
    for place in range(4):  # the digit of 10**(3 - place), in byte ``place``
        above, digit = _divmod(k // 10 ** (3 - place), 10)
        digit = (digit + 48) << 8 * place
        quads[:10000] |= digit * (above * 10 ** (4 - place) != k)
        quads[10000:] |= digit
    return quads


_QUADS = _quads()
# [11 band + lead]: the zeros after "0." that a band has, then the lead digit.
_LEADS = ((np.arange(48, 59) << 24) + sum(
    (48 << 8 * j) * (j < 4 - np.arange(5)[:, None]) for j in range(3))).astype("<u4").ravel()
_POINT = np.frombuffer(b"\0\0" + b"0.", "<u4")
_UNITS = np.array([b"0", b"1"], "S24").view(np.uint8).reshape(2, 24)
SLICE = 4096  # floats per slice: its arrays peak under 0.6 MB


def write(x: np.ndarray, joints: bytes) -> list[str] | None:
    """The text of each row of ``x``, a flat float64 array: each float's
    ``%.17g`` followed by its 4 bytes of ``joints`` less their NULs, cut where
    a joint holds "\n"; None if a float is not in [0, 1].  The floats are
    written ``SLICE`` at a time, so the memory besides the rows' texts does
    not grow with ``x``."""
    if not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails both
        return None
    words, rows, carry = np.frombuffer(joints, "<u4"), [], ""
    for at in range(0, len(x), SLICE):
        rows += (carry + _text(x[at:at + SLICE], words[at:at + SLICE])).split("\n")
        carry = rows.pop()  # the start of a row that the next slice ends
    return rows


def _text(x: np.ndarray, joints: np.ndarray) -> str:
    """Each float of ``x``, all in [0, 1], as ``%.17g`` followed by its joint."""
    band = sum((x >= low).view(np.int8) for low in _LOWS)
    hi, (xh, xl), (sh, sl) = x * _SCALES[band], _halves(x), (h[band] for h in _SCALE_HALVES)
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    top, low = _divmod(hi.astype(np.int64) + np.rint(lo).astype(np.int64), 100000000)
    top, low = top.astype(np.int32), low.astype(np.int32)  # 9 digits and 8
    groups = np.empty((4, len(x)), np.int32)  # the 16 digits after the lead one
    high, groups[1] = _divmod(top, 10000)
    lead, groups[0] = _divmod(high, 10000)
    groups[2], groups[3] = _divmod(low, 10000)
    groups[2] += (groups[3] != 0) * 10000  # followed by a nonzero digit
    groups[1] += (low != 0) * 10000
    groups[0] += (groups[1] != 0) * 10000
    # One cell per value: NUL NUL "0." | zeros, lead digit | 16 digits | joint.
    cells = np.empty((len(x), 7), "<u4")
    cells[:, 0], cells[:, 1] = _POINT, _LEADS[band * 11 + lead]
    cells[:, 2:6], cells[:, 6] = _QUADS[groups.T], joints
    text = cells.view(np.uint8)
    if len(odd := np.flatnonzero((band == 0) | (x == 1.0))):
        text[odd, :24] = _UNITS[(x[odd] == 1.0) * 1]
        rare = odd[(x[odd] != 1.0) & (x[odd].view(np.int64) != 0)]  # not 1.0 or +0.0
        texts = np.array(["%.17g" % v for v in x[rare].tolist()], "S24")
        text[rare, :24] = texts.view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0").decode("ascii")
