"""A 50-digit truth for the standard setup on the model's thermal state,
in stdlib ``decimal`` only.

The thermal X state of (d, j, t) has the levels J/2 (|00> and |11>) and
E-/+ = -J/2 -/+ J r with r = sqrt(1 + d^2). Its Boltzmann factors a (of
|00> and of |11>), b (of E-) and c (of E+) are taken relative to the
lowest level, and Z = 2a + b + c. For the standard setup (sigma_x and
sigma_z on qubit 0, each controlled by itself on qubit 1, O = sigma_x +
sigma_z, phase theta) every column below is a closed form in them:

* gamma = 1 - Tr rho^2 = (2a^2 + 4ab + 4ac + 2bc) / Z^2;
* C = max(|b - c| - 2a, 0) / Z;
* both reduced states are I/2, so l_tra = 1 + cos theta;
* <sz sz> = (2a - b - c) / Z and <sx sx>^2 = (b - c)^2 cos^2 phi / Z^2
  with cos phi = 1 / r; each control explains the square of its
  correlator, so lhs = 2 - <sx sx>^2 - <sz sz>^2 and
  w = 1 + cos theta - <sx sx>^2 - <sz sz>^2.

Every input float is read exactly, and every operation runs at
``DIGITS`` significant digits plus guard digits; cos theta is its Taylor
series. Nothing here calls the package.
"""

from decimal import Decimal, localcontext

DIGITS = 50
_GUARD = 10


def _cos(x: Decimal) -> Decimal:
    """cos x by its Taylor series, summed until a term drops below the
    working precision."""
    x2 = x * x
    term = total = Decimal(1)
    k = 0
    while True:
        k += 2
        term = -term * x2 / (k * (k - 1))
        if term == 0 or abs(term) < abs(total).scaleb(-(DIGITS + _GUARD)):
            return +total
        total += term


def row(d: float, j: float, t: float, theta: float) -> dict:
    """gamma, concurrence, l_tra, lhs and w of the row (d, j, t, theta),
    as Decimals correct to about DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        d, j, t, theta = (Decimal(x) for x in (d, j, t, theta))
        r2 = 1 + d * d
        r = r2.sqrt()
        levels = {"a": j / 2, "b": -j / 2 - j * r, "c": -j / 2 + j * r}
        ground = min(levels.values())
        a, b, c = ((-(e - ground) / t).exp() for e in levels.values())
        z = 2 * a + b + c
        zz = (2 * a - b - c) / z
        xx2 = (b - c) ** 2 / (z * z * r2)
        l_tra = 1 + _cos(theta)
        out = {
            "gamma": (2 * a * a + 4 * a * b + 4 * a * c + 2 * b * c) / (z * z),
            "concurrence": max(abs(b - c) - 2 * a, Decimal(0)) / z,
            "l_tra": l_tra,
            "lhs": 2 - xx2 - zz * zz,
            "w": l_tra - xx2 - zz * zz,
        }
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return {name: +value for name, value in out.items()}
