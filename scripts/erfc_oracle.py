#!/usr/bin/env python3
"""Print the erfc accuracy oracle as a Rust table of literal bit patterns.

Usage: python3 scripts/erfc_oracle.py > crates/soi-num/tests/data/erfc_oracle.rs

Each row is `(x, erfc(x))` as IEEE-754 bit patterns. erfc is evaluated by
mpmath at 256 bits and rounded once to the nearest double (exact rational
conversion, so the rounding is correct, subnormals included). The points
are fixed by a seeded generator, so re-running reproduces the file:

* 80 uniform points in each of [-6, -1), [-1, 1), [1, 6), [6, 12) and
  [12, 27], which land off the 1/32 expansion grid of
  `soi_num::special::erfc`;
* 48 points a few ulp above grid points, where the expansion from the
  next grid point up takes its full step of 1/32, and 24 at midpoints;
* the branch and cut-off points: +-1 and +-6 with their neighbours, a few
  grid points, and 26.5 to 27.3 where erfc falls through the subnormals
  to zero.
"""
import random
import struct
from fractions import Fraction

import mpmath

mpmath.mp.prec = 256


def nearest_double(v):
    """Round an mpf to the nearest double exactly (ties to even)."""
    if v == 0:
        return 0.0
    man, exp = v.man_exp
    q = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return q.numerator / q.denominator


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def points():
    rng = random.Random(20121110)
    xs = []
    for lo, hi in [(-6.0, -1.0), (-1.0, 1.0), (1.0, 6.0), (6.0, 12.0), (12.0, 27.0)]:
        xs += [rng.uniform(lo, hi) for _ in range(80)]
    for _ in range(48):
        x0 = rng.randrange(-192, 864) / 32.0
        xs.append(x0 + rng.choice([1, 2, 3]) * max(abs(x0), 1.0) * 2.0**-52)
    for _ in range(24):
        mid = (rng.randrange(-192, 864) + 0.5) / 32.0
        xs.append(mid + rng.choice([-3, -1, 1, 3]) * abs(mid) * 2.0**-52)
    for e in [-6.0, -1.0, 1.0, 6.0, 12.0, 27.0]:
        xs += [e, e - abs(e) * 2.0**-52, e + abs(e) * 2.0**-52]
    xs += [0.0, -0.0, 1.0 / 32.0, -0.5, 3.0 + 1.0 / 32.0, 20.0, 26.96875]
    xs += [26.5 + 0.05 * i for i in range(17)]
    out, seen = [], set()
    for x in xs:
        b = bits(x)
        if b not in seen:
            seen.add(b)
            out.append(x)
    return out


def main():
    xs = points()
    print("// Generated by scripts/erfc_oracle.py (mpmath %s, 256-bit erfc," % mpmath.__version__)
    print("// rounded once to the nearest double). Do not edit by hand.")
    print("// (x bits, erfc(x) bits), one row per point; %d rows." % len(xs))
    print("pub const ERFC_ORACLE: &[(u64, u64)] = &[")
    for x in xs:
        y = nearest_double(mpmath.erfc(mpmath.mpf(x)))
        print("    (0x%016x, 0x%016x), // %r -> %r" % (bits(x), bits(y), x, y))
    print("];")


if __name__ == "__main__":
    main()
