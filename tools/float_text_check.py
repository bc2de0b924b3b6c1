"""Cross-check the CSV float kernel against Python's '%.17g'.

Usage, from any directory:

    python tools/float_text_check.py [--count N] [--seed S]

Formats N random 64-bit patterns viewed as float64 (seeded, default
2,000,000) and the edge list of edge_floats() through this checkout's
fluxline.csvio kernel, and compares every value's bytes with '%.17g' of it
('nan' for any NaN). Prints how many values there were and the share the
kernel handed to Python's own '%.17g' (near rounding ties and |x| outside
its table), or, on the first mismatch, that value and both texts, and exits 1.
Only the kernel's exponent guess calls a transcendental, so its bytes must
not depend on the SIMD target numpy dispatches to (NPY_DISABLE_CPU_FEATURES).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def near_ties() -> list:
    """Floats x whose x / 10**k lies within 0.5 / 5**k of a rounding tie, for k = 17 .. 22.

    With m * 2**e = x and e >= k, x / 10**k is (m * 2**(e - k) mod 5**k) / 5**k
    past an integer, so m solving m * 2**(e - k) = (5**k +- 1) / 2 (mod 5**k)
    puts it 1 / (2 * 5**k) from a half, nearer than the kernel's scaling error.
    """
    out = []
    for k in range(17, 23):
        lo, hi = 10 ** (16 + k), 10 ** (17 + k)
        for e in range(lo.bit_length() - 54, hi.bit_length() - 52):
            for side in (1, -1):
                m = (5**k + side) // 2 * pow(2 ** (e - k), -1, 5**k) % 5**k
                m += -(-(2**52 - m) // 5**k) * 5**k  # the least solution of 53 bits
                out += [math.ldexp(n, e) for n in (m, m + 5**k) if n < 2**53 and lo <= n << e < hi]
    return out


def edge_floats() -> np.ndarray:
    """Every 10**k and both neighbours, 17-digit carries, notation switches, near ties and specials."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = [
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf),
        # 17-digit roundings that carry into the next decade
        [9.9999999999999999e22, 9.99999999999999999e-5, 99999999999999999.0, 0.99999999999999999],
        # subnormals and the normal range's ends
        [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
        # exact ties at 17 digits, and values within 2**-40 .. 2**-52 of one after scaling
        [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 2.5e15 + 0.5],
        near_ties(),
        [0.0, math.inf],
    ]
    x = np.concatenate([np.asarray(v, dtype=np.float64) for v in values])
    # NaNs of either sign and several payloads
    nans = (np.uint64(0x7FF) << np.uint64(52)) | np.array([1, 1 << 51, (1 << 51) | 5, (1 << 52) - 1], dtype=np.uint64)
    return np.concatenate([x, -x, nans.view(np.float64), (nans | np.uint64(1 << 63)).view(np.float64)])


def reference(x: float) -> str:
    return "nan" if math.isnan(x) else "%.17g" % x


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from fluxline import csvio

    bits = np.random.default_rng(args.seed).integers(0, 2**64, size=args.count, dtype=np.uint64, endpoint=False)
    x = np.concatenate([bits.view(np.float64), edge_floats()])
    fallback = 0
    for lo in range(0, len(x), csvio.CHUNK_ROWS):
        part = x[lo : lo + csvio.CHUNK_ROWS]
        finite = part[np.isfinite(part) & (part != 0)]
        fallback += np.count_nonzero(~csvio._digits(np.abs(finite))[2])
        for value, row in zip(part.tolist(), csvio._float_text(part)):
            got, want = row.tobytes().replace(b"\0", b"").decode(), reference(value)
            if got != want:
                print(f"mismatch: {value!r} ({np.float64(value).view(np.uint64):#018x}): kernel {got!r}, '%.17g' {want!r}")
                return 1
    print(f"{len(x)} values match '%.17g'; {fallback} ({fallback / len(x):.2e}) took Python's fallback")
    return 0


if __name__ == "__main__":
    sys.exit(main())
