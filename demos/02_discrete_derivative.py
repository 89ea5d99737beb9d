"""
The discrete derivative and what it reads off a sample window
=============================================================

delta(f)(x) = f(x+1) - f(x) drops the degree of a polynomial by one,
exactly like d/dx.  Repeating it until the window is constant reveals
the degree and the scaled leading coefficient without any algebra on
coefficients: a window of samples is all it takes.
"""

from __future__ import annotations

from hilbert_lambda import Polynomial, Sequence, delta, reduce, sample_points


def show(seq: Sequence) -> str:
    return "(" + ", ".join(str(v) for v in seq.window()) + ")"


# start from an arbitrary window of values
window = Sequence([18, 2, 8, 2, 11])
print(f"window        {show(window)}")
print(f"delta         {show(delta(window))}")

# sample x^2 at 0..4 and difference it twice: the second difference of a
# degree-2 polynomial is the constant 2! * (leading coefficient)
square = Polynomial([0, 0, 1])
samples = sample_points(square, 4)
print()
print(f"x^2 at 0..4   {show(samples)}")
first = delta(samples)
second = delta(first)
print(f"delta once    {show(first)}")
print(f"delta twice   {show(second)}")

# reduce() runs that loop for you and returns (degree, constant)
degree, constant = reduce(samples)
print()
print(f"reduce says: degree {degree}, constant {constant} = 2! * 1")

# the constant equals m! * leading coefficient for any polynomial
p = Polynomial([1, 0, 0, 2])  # 2x^3 + 1
m, c = reduce(sample_points(p, p.degree()))
print(f"2*x^3 + 1: degree {m}, constant {c} = 3! * 2")
