"""Products of large integers through the system's GMP library, by ``ctypes``.

GMP (``libgmp.so.10``) multiplies by Toom-Cook and FFT algorithms, where
CPython stops at Karatsuba: it squares a 290 000-bit integer about ten times
as fast, the copies in and out included.  :func:`mul` calls its ``mpn_mul``
and ``mpn_sqr`` on arrays of 64-bit limbs, which on a little-endian machine
are byte for byte what ``int.to_bytes(n, "little")`` writes, so Python holds
every operand and product.  :func:`load` opens the library by soname on its
first call, never at import (``ctypes.util.find_library`` would start a
process); where it does not load, or has other limbs, :func:`mul` uses ``*``.
Products past :data:`MAX_PRODUCT_BITS` stay with Python too: GMP aborts the
process where its own Toom or FFT scratch space cannot be allocated.
"""

from __future__ import annotations

import functools
import sys

SONAME = "libgmp.so.10"

# calculus.peel_block sends a binomial chain's products here once the chain's
# argument has more bits than this: below it the calls and copies cost more
# than GMP saves on a square (measured on x86-64, Python 3.11 and GMP 6.2)
CROSSOVER = 5300

# 2**32 bits, a 512 MiB product, well below GMP's own limit of 2**37 bits
MAX_PRODUCT_BITS = 1 << 32


@functools.cache
def load():
    """``(mpn_mul, mpn_sqr, view)``, opened on the first call; None where the
    library or a function is missing, or its limbs are not little-endian 64-bit."""
    try:
        import ctypes

        lib = ctypes.CDLL(SONAME)
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        mpn_mul, mpn_sqr = lib.__gmpn_mul, lib.__gmpn_sqr
    except (ImportError, OSError, ValueError, AttributeError):
        return None
    if limb_bits != 64 or sys.byteorder != "little":
        return None
    # view(bytearray) is the product pointer: a c_char * size would be a new class per size
    rp, sp, size = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_char_p, ctypes.c_long  # size: mp_size_t
    mpn_mul.argtypes, mpn_mul.restype = [rp, sp, size, sp, size], None  # (rp, s1p, s1n, s2p, s2n)
    mpn_sqr.argtypes, mpn_sqr.restype = [rp, sp, size], None  # (rp, s1p, n)
    return mpn_mul, mpn_sqr, ctypes.c_ubyte.from_buffer


def _limbs(n: int) -> tuple[bytes, int]:
    """The non-negative ``n`` as little-endian 64-bit limbs, and their count."""
    count = (n.bit_length() + 63) >> 6
    return n.to_bytes(8 * count, "little"), count


def mul(a: int, b: int) -> int:
    """``a * b``, multiplied by GMP when :func:`load` finds the library and
    the product fits :data:`MAX_PRODUCT_BITS`, else by Python; ``mul(a, a)``
    squares, as GMP squares faster than it multiplies."""
    gmp = load()
    if gmp is None or not a or not b or a.bit_length() + b.bit_length() > MAX_PRODUCT_BITS:
        return a * b  # zero too: an mpn size is at least 1
    mpn_mul, mpn_sqr, view = gmp
    x, n = _limbs(abs(a))
    if a is b:
        out = bytearray(16 * n)
        mpn_sqr(view(out), x, n)
    else:
        y, m = _limbs(abs(b))
        if n < m:  # mpn_mul takes the longer operand first
            x, n, y, m = y, m, x, n
        out = bytearray(8 * (n + m))
        mpn_mul(view(out), x, n, y, m)
    product = int.from_bytes(out, "little")
    return product if (a < 0) == (b < 0) else -product
