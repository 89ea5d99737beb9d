"""Binomial chains of large integers through the system's GMP library, by ``ctypes``.

GMP (``libgmp.so.10``) multiplies by Toom-Cook and FFT algorithms, where
CPython stops at Karatsuba: it squares a 290 000-bit integer about ten times
as fast, the copies in and out included.  :func:`chain` steps a binomial
chain on arrays of 64-bit limbs, which on a little-endian machine are byte
for byte what ``int.to_bytes(n, "little")`` writes: each step's ``mpn_mul``
or ``mpn_sqr`` product lands in a ``bytearray``, is divided exactly in place
by ``mpn_divexact_1``, read once by ``int.from_bytes`` and handed as it
stands to the next step, so Python holds every operand and GMP no integer.
:func:`load` opens the library by soname on its first call, never at import
(``ctypes.util.find_library`` would start a process).  Where it does not
load, lacks a function or has other limbs, and for a chain whose products
could pass :data:`MAX_PRODUCT_BITS`, :func:`chain` gives None and Python
multiplies: GMP aborts the process where its own Toom or FFT scratch space
cannot be allocated.
"""

from __future__ import annotations

import functools
import sys

SONAME = "libgmp.so.10"

# calculus._chain asks for a binomial chain C(c, 1..v) here once its largest
# product, about v * bits(c), has more bits than this: below it the calls and
# copies cost more than GMP saves (measured on x86-64, Python 3.11 and GMP 6.2)
CROSSOVER = 8000

# 2**32 bits, a 512 MiB product, well below GMP's own limit of 2**37 bits
MAX_PRODUCT_BITS = 1 << 32


@functools.cache
def load():
    """``(mpn_mul, mpn_sqr, mpn_add, mpn_divexact_1, view)``, opened on the first call;
    None where the library or a function is missing, or its limbs are not
    little-endian 64-bit."""
    try:
        import ctypes

        lib = ctypes.CDLL(SONAME)
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        mpn_mul, mpn_sqr, mpn_add = lib.__gmpn_mul, lib.__gmpn_sqr, lib.__gmpn_add
        mpn_divexact_1 = lib.__gmpn_divexact_1
    except (ImportError, OSError, ValueError, AttributeError):
        return None
    if limb_bits != 64 or sys.byteorder != "little":
        return None
    # view(bytearray) points at a product: a c_char * size would be a new class per size
    rp, sp, size = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_char_p, ctypes.c_long  # size: mp_size_t
    mpn_mul.argtypes, mpn_mul.restype = [rp, rp, size, sp, size], None  # (rp, s1p, s1n, s2p, s2n)
    mpn_sqr.argtypes, mpn_sqr.restype = [rp, sp, size], None  # (rp, s1p, n)
    mpn_add.argtypes, mpn_add.restype = [rp, rp, size, sp, size], None  # (rp, s1p, s1n, s2p, s2n)
    mpn_divexact_1.argtypes, mpn_divexact_1.restype = [rp, rp, size, ctypes.c_uint64], None  # (rp, sp, n, d)
    return mpn_mul, mpn_sqr, mpn_add, mpn_divexact_1, ctypes.c_ubyte.from_buffer


def _limbs(n: int) -> tuple[bytes, int]:
    """The non-negative ``n`` as little-endian 64-bit limbs, and their count."""
    count = (n.bit_length() + 63) >> 6
    return n.to_bytes(8 * count, "little"), count


def chain(d: int, v: int) -> list[int] | None:
    """The magnitudes |C(-d, k)| = C(d + k - 1, k) for k = 1..v, for d >= 1,
    multiplied by GMP; None where :func:`load` finds no library, or where
    the last product would pass :data:`MAX_PRODUCT_BITS`.

    Stepped as ``calculus._chain`` steps C(-d, 1..v): M_1 = d, then
    M_(k+1) = M_k (d + k) / (k + 1), a lopsided product on the limbs the
    step before left, but M_2 = (d*d + d) / 2 and, with u = M_2 + d,
    M_4 = (u*u + u) / 6 square, as GMP squares faster than it multiplies.
    """
    gmp = load()
    if gmp is None or v * (d + v).bit_length() > MAX_PRODUCT_BITS:  # M_k (d + k) < (d + v)**v
        return None
    mpn_mul, mpn_sqr, mpn_add, mpn_divexact_1, view = gmp
    magnitudes = [d]
    for k in range(1, v):
        if k == 1 or k == 3:
            x, n = _limbs(d if k == 1 else magnitudes[1] + d)
            out = bytearray(16 * n)
            product = view(out)
            mpn_sqr(product, x, n)
            mpn_add(product, product, 2 * n, x, n)  # u*u + u < 2**(128 n): no carry out
        else:  # mpn_mul takes the longer operand first: M_k has no fewer limbs than d + k
            y, m = _limbs(d + k)
            out = bytearray(8 * (n + m))
            product = view(out)
            mpn_mul(product, operand, n, y, m)
        mpn_divexact_1(product, product, len(out) >> 3, 6 if k == 3 else k + 1)
        magnitudes.append(int.from_bytes(out, "little"))
        # the product and the exact division can each leave the top limb empty
        operand, n = product, (magnitudes[-1].bit_length() + 63) >> 6
    return magnitudes
