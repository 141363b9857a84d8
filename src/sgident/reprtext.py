"""Numbers rendered as Python's ``repr`` text, a whole array per call.

``float_cells`` finds each float64's shortest round-trip digits, the closest
such, with Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020): fixed-width integer arithmetic, here on uint64 arrays.  Unlike Java's
``Double.toString`` it may print one digit: the shorter candidate is tried
whenever s >= 10, and tiny subnormals are not scaled by 10.  Each value gets
a uint8 slot ending in "," and a mask of its ``repr`` bytes; a float slot
holds every byte any layout needs, in order, so the mask follows the layout.
Constants meeting uint64 arrays are ``np.uint64``: under NumPy < 2 a Python
int promotes such an array to float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_cells", "int_cells"]

_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_EXP_BITS = _U(0x7FF << 52)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the table's constants


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 1233 (int or int64 array)."""
    return (e * 913_124_641_741) >> 38


def _g_limbs():
    """g(k) = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1 for every k, split as
    g1 = g >> 63 and g0 = g mod 2**63, each into high and low 32-bit limbs."""
    g = [(10 ** max(-k, 0) << max(e, 0)) // (10 ** max(k, 0) << max(-e, 0)) + 1
         for k in range(_K_MIN, _K_MAX + 1) for e in [125 - _flog2pow10(-k)]]
    return [np.array([v >> shift & mask for v in g], np.uint32)
            for shift, mask in ((95, 2**32 - 1), (63, 2**32 - 1), (32, 2**31 - 1), (0, 2**32 - 1))]


_G_LIMBS = _g_limbs()  # g1h, g1l, g0h, g0l


def _shortest(bits):
    """Schubfach's (d, k) for the bits of finite nonzero doubles x: |x| rounds
    from d * 10**k, d has the fewest digits and is the closest such, ties to
    even.  d < 10**17 and may end in zeros.  Other inputs give garbage."""
    t = bits & _M52
    bq = bits >> _U(52) & _U(0x7FF)
    cb, odd = (t | (bq != 0) * _U(2**52)) << _U(2), (t & _U(1)).astype(np.uint8)  # 4c, c odd
    q = np.maximum(bq, _U(1)).astype(np.int64) - 1075
    irregular = (t == 0) & (bq > _U(1))  # a power of two: the gap below is half the gap above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h, k = (q + _flog2pow10(-k) + 2).astype(np.uint8), k.astype(np.int16)  # 1 <= h <= 4
    del t, bq, q  # every array is a whole chunk of cells: hold few, in small dtypes
    g1h, g1l, g0h, g0l = (limbs.take(k - _K_MIN) for limbs in _G_LIMBS)

    def rop(cp):
        """floor(g * cp / 2**127), its lowest bit set when that is inexact."""
        cph = cp >> _U(32)
        cp &= _M32
        p01, p10 = g0l * cph, g0h * cp
        mid = (g0l * cp >> _U(32)) + (p01 & _M32) + (p10 & _M32)
        x1 = g0h * cph + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
        p00, p01, p10 = g1l * cp, g1l * cph, g1h * cp
        mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
        y1 = g1h * cph + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
        z = (p00 + (p01 + p10 << _U(32)) >> _U(1)) + x1  # the low 64 bits of g1 * cp, halved
        return (y1 + (z >> _U(63))) | ((z & _M63) + _M63 >> _U(63))

    vb = rop(cb << h)
    vbl = rop((cb - _U(2) + irregular) << h) + odd  # an odd c excludes the bounds
    vbr = rop((cb + _U(2)) << h) - odd
    del cb, h, odd, g1h, g1l, g0h, g0l
    s, s4 = vb >> _U(2), vb & ~_U(3)
    # s or s + 1: the one inside the rounding interval, else the closer
    uin, win = vbl <= s4, s4 + _U(4) <= vbr
    mid = s4 + _U(2)
    d = s + ((uin != win) & win | (uin == win) & ((vb > mid) | (vb == mid) & (s & _U(1) == _U(1))))
    # or one digit fewer: 10 s' or 10 s' + 10, when exactly one is inside
    sp10 = s // _U(10) * _U(10)
    upin, wpin = vbl <= sp10 << _U(2), sp10 + _U(10) << _U(2) <= vbr
    d += ((upin != wpin) & (s >= _U(10))) * (sp10 + wpin * _U(10) - d)  # wraps back to the pick
    return d, k


def _digit_tables():
    """For v < 10**4: its digits, each then ".", as a little-endian uint64; and for
    digits 4g+1..4g+4 after a float's first, the count up to v's last nonzero one."""
    v = np.arange(10_000)
    quads, last = np.zeros(10_000, np.uint64), 0
    for i, p in enumerate((1000, 100, 10, 1)):
        digit = v // p % 10
        quads |= (digit + ord("0") + (ord(".") << 8)).astype(np.uint64) << _U(16 * i)
        last = np.where(digit != 0, i + 1, last)
    counts = np.stack([np.where(last > 0, 1 + 4 * g + last, 0) for g in range(4)])
    return quads, counts.astype(np.uint8)


_QUADS, _COUNTS = _digit_tables()
_EXP_DIGITS = np.frombuffer(b"".join(b"%03d," % e for e in range(1000)), np.uint32)  # "XXX,"

# float slot bytes: sign | "0.000" | D0 "." D1 "." ... D16 "." | "e+-" | exponent | ","
_SLOT = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+-e000,", np.uint8)
_DIGIT = 6  # digit j sits at _DIGIT + 2j, followed by its "."
_FIXED = 20 * 17  # layout codes (decpt + 3) * 17 + nd - 1, for -3 <= decpt <= 16
_WORD = _FIXED + 17 * 4  # after the scientific ones: "nan" or "inf" in digits 0-2
_WORDS = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)


def _layout_masks():
    """The slot bytes of each layout code, sign clear and set, for x = 0.D0D1...D(nd-1)
    * 10**decpt.  Fixed: "0." and -decpt zeros, the digits; or "." after digit decpt - 1
    and at least one after it.  Scientific: D0, "." and the rest if any, "e", sign, 2+ digits."""
    masks = np.zeros((_WORD + 1, 2, _SLOT.size), bool)
    masks[..., -1] = masks[:, 1, 0] = True
    digit = _DIGIT + 2 * np.arange(17)
    for code, mask in enumerate(masks[:_WORD]):
        if code < _FIXED:
            decpt, nd = code // 17 - 3, code % 17 + 1
            mask[:, digit[: max(nd, decpt + 1)]] = True
            mask[:, digit[decpt - 1] + 1 if decpt > 0 else slice(1, 3 - decpt)] = True
        else:  # code = _FIXED + (nd - 1) * 4 + 2 * (exponent < 0) + (|exponent| >= 100)
            nd = (code - _FIXED) // 4 + 1
            mask[:, digit[:nd]] = True
            mask[:, digit[0] + 1] = nd > 1  # the "."
            mask[:, 44] = code & 1  # a third exponent digit
            mask[:, [40, 42 if code & 2 else 41, 45, 46]] = True
    masks[_WORD, :, digit[:3]] = True
    return masks.reshape(-1, _SLOT.size)


_MASKS = _layout_masks()


def float_cells(x):
    """float64 array -> (chars, valid), each x.shape + (48,): ``repr`` of each value, then ","."""
    bits = np.ascontiguousarray(x, np.float64).ravel().view(np.uint64)
    regular = (bits & _EXP_BITS != _EXP_BITS) & (bits & _M63 != _U(0))
    d, k = _shortest(bits)
    d *= regular  # zero (and nan, inf) gets the digits of "0.0"
    n = np.searchsorted(_POW10[:18], d, side="right")  # digits in d
    d *= _POW10.take(17 - n)  # now exactly 17 digits, D0 first
    decpt = (n + k).astype(np.int16)
    first = (d // _POW10[16]).astype(np.uint8)
    groups = [(d // _POW10[12 - 4 * g] % _POW10[4]).astype(np.uint16) for g in range(4)]
    del d, n, k
    nd = np.maximum.reduce([counts.take(group) for counts, group in zip(_COUNTS, groups)])
    nd = nd.clip(1).astype(np.int16)  # significant digits; zero has one
    exp = np.abs(decpt - 1)
    code = np.where((decpt < -3) | (decpt > 16),
                    _FIXED + (nd - 1) * 4 + (decpt < 1) * 2 + (exp >= 100),
                    (decpt + 3) * 17 + nd - 1)
    code = code * 2 + (bits >> _U(63)).astype(np.int16)  # and the sign bit
    chars = np.tile(_SLOT, (bits.size, 1))
    chars[:, _DIGIT] = first + ord("0")
    for g in range(4):  # digits 1-16 and their dots fill slot bytes 8..39
        chars.view(np.uint64)[:, 1 + g] = _QUADS.take(groups[g])
    chars.view(np.uint32)[:, -1] = _EXP_DIGITS.take(exp)
    if not regular.all():
        code[~regular] = (1 + 3) * 17 * 2 + code[~regular] % 2  # "0.0" or "-0.0"
        special = np.flatnonzero(bits & _EXP_BITS == _EXP_BITS)
        nan = bits[special] & _M52 != _U(0)
        code[special] = _WORD * 2 + code[special] % 2 * ~nan  # "nan" has no sign
        chars[special[:, None], _DIGIT + 2 * np.arange(3)] = _WORDS[nan.astype(np.intp)]
    return tuple(cells.reshape(np.shape(x) + (_SLOT.size,)) for cells in (chars, _MASKS[code]))


def int_cells(k):
    """int64 array -> (chars, valid), each (k.size, 56): ``repr`` of each value, then ","."""
    k = np.ascontiguousarray(k, np.int64).ravel()
    magnitude = k.view(np.uint64).copy()
    np.negative(magnitude, out=magnitude, where=k < 0)  # wraps, so -2**63 works too
    chars = np.empty((k.size, 56), np.uint8)  # 7 "-" | 8..47 20 digits, right-aligned | 55 ","
    chars[:, 7], chars[:, 55] = ord("-"), ord(",")
    for g in range(5):
        chars.view(np.uint64)[:, 1 + g] = _QUADS.take(magnitude // _POW10[16 - 4 * g] % _U(10**4))
    n = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    valid = np.zeros((k.size, 56), bool)
    valid[:, 7], valid[:, 55] = k < 0, True
    valid[:, 8:48:2] = np.arange(20) >= 20 - n[:, None]  # the digits, not their dots
    return chars, valid
