"""Products of large integers through the system's GMP library, by ``ctypes``.

GMP (``libgmp.so.10``) multiplies large integers by Toom-Cook and FFT
algorithms, where CPython stops at Karatsuba: it squares a 290 000-bit
integer about ten times as fast, the copies in and out included.
:func:`load` opens the library by soname on its first call, never at
import (``ctypes.util.find_library`` would start a process), and returns
None where it does not load; :func:`mul` then multiplies with ``*``.
Products past :data:`MAX_PRODUCT_BITS` stay with Python too, as GMP aborts
the process where an allocation fails instead of raising ``MemoryError``.
"""

from __future__ import annotations

import functools

SONAME = "libgmp.so.10"

# calculus.peel_block sends a binomial chain's products here once the chain's
# argument has more bits than this: below it the calls and copies cost more
# than GMP saves on a square (measured on x86-64, Python 3.11 and GMP 6.2)
CROSSOVER = 5300

# 2**32 bits, a 512 MiB product, well below GMP's own limit of 2**37 bits
MAX_PRODUCT_BITS = 1 << 32


@functools.cache
def load():
    """The library's typed functions, opened on the first call; None where
    the library or one of its functions is missing."""
    try:
        import ctypes

        lib = ctypes.CDLL(SONAME)
    except (ImportError, OSError):
        return None

    class Mpz(ctypes.Structure):
        # __mpz_struct of gmp.h: allocated limbs, signed used limbs, limbs
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]

    mpz, size_t, c_int, byte = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int, ctypes.c_ubyte
    signatures = {
        "init": ([mpz], None),
        "clear": ([mpz], None),
        # (rop, count, order, size, endian, nails, op)
        "import": ([mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p], None),
        # (rop, countp, order, size, endian, nails, op) -> rop
        "export": ([ctypes.POINTER(byte), ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz], ctypes.c_void_p),
        "mul": ([mpz, mpz, mpz], None),
        "sizeinbase": ([mpz, c_int], size_t),
    }
    # the export writes through a view of a bytearray's first byte, as an
    # array type c_char * size would be a new class, with its cycles, per call
    gmp = {"Mpz": Mpz, "byte": byte}
    for name, (argtypes, restype) in signatures.items():
        try:
            function = getattr(lib, "__gmpz_" + name)
        except AttributeError:
            return None
        function.argtypes, function.restype = argtypes, restype
        gmp[name] = function
    return gmp


def _set(gmp: dict, z, n: int) -> None:
    """Copy the non-negative ``n`` into the initialised GMP integer ``z``."""
    words = (n.bit_length() + 63) >> 6
    gmp["import"](z, words, 1, 8, 1, 0, n.to_bytes(8 * words, "big"))


def mul(a: int, b: int) -> int:
    """``a * b``, multiplied by GMP when :func:`load` finds the library and
    the product fits :data:`MAX_PRODUCT_BITS`, else by Python; ``mul(a, a)``
    squares, as GMP squares faster than it multiplies."""
    gmp = load()
    if gmp is None or a.bit_length() + b.bit_length() > MAX_PRODUCT_BITS:
        return a * b
    negative = (a < 0) != (b < 0)
    square = a is b
    x, y, product = gmp["Mpz"](), gmp["Mpz"](), gmp["Mpz"]()
    for z in (x, y, product):
        gmp["init"](z)
    try:
        _set(gmp, x, abs(a))
        if not square:
            _set(gmp, y, abs(b))
        gmp["mul"](product, x, x if square else y)
        size = (gmp["sizeinbase"](product, 2) + 63) // 64 * 8
        out = bytearray(size)
        gmp["export"](gmp["byte"].from_buffer(out), None, 1, 8, 1, 0, product)
    finally:
        for z in (x, y, product):
            gmp["clear"](z)
    n = int.from_bytes(out, "big")
    return -n if negative else n
