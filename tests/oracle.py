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
  w = 1 + cos theta - <sx sx>^2 - <sz sz>^2, with the tightness u = lhs /
  w (None where w is 0);
* the entropic columns (sigma_x and sigma_z measured on qubit 0, qubit 1
  the memory) are base-2 entropies H of spectra, less S(B) = 1, the
  entropy of the memory's reduced state I/2. rho has the spectrum
  {a, a, b, c} / Z, so h_ab = H(a, a, b, c) - 1. Measuring sigma_z
  leaves the diagonal of rho, {a, m, m, a} / Z with m = (b + c) / 2, so
  h_sb = H(a, m, m, a) - 1. Measuring sigma_x leaves two 2 x 2 memory
  blocks (a + m, +/- chi*; +/- chi, a + m) / (2Z), where |chi| =
  |b - c| / 2 is the |01><10| coherence of Z rho; each has the
  eigenvalues (a + m +/- |chi|) / (2Z), that is p / Z and q / Z with
  p = (a + b) / 2 and q = (a + c) / 2, so h_rb = H(p, p, q, q) - 1. The
  maximal overlap of the sigma_x and sigma_z eigenbases is 1/2, so the
  overlap term is 1, eur_rhs = 1 + h_ab and u_eur = (h_rb + h_sb) /
  eur_rhs (None where eur_rhs is 0).

Every input float is read exactly, and every operation runs at
``DIGITS`` significant digits plus guard digits; cos theta is its Taylor
series and each logarithm ``Decimal.ln``, but those of a, b and c,
which are their exponents. Nothing here calls the package.
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
    """gamma, concurrence, l_tra, lhs, w, u, h_rb, h_sb, h_ab, eur_rhs and
    u_eur of the row (d, j, t, theta), as Decimals correct to about DIGITS
    digits (u None where w is 0, u_eur None where eur_rhs is 0)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + _GUARD
        d, j, t, theta = (Decimal(x) for x in (d, j, t, theta))
        r2 = 1 + d * d
        r = r2.sqrt()
        levels = {"a": j / 2, "b": -j / 2 - j * r, "c": -j / 2 + j * r}
        ground = min(levels.values())
        exponents = [-(e - ground) / t for e in levels.values()]
        a, b, c = (x.exp() for x in exponents)
        z = 2 * a + b + c
        zz = (2 * a - b - c) / z
        xx2 = (b - c) ** 2 / (z * z * r2)
        l_tra = 1 + _cos(theta)
        ln_z, ln_2 = z.ln(), Decimal(2).ln()

        def entropy(*spectrum):
            """Base-2 entropy of the spectrum {x / z} from the (x, ln x) of
            its values, with 0 log 0 = 0: sum x (ln z - ln x) / (z ln 2)."""
            return sum(x * (ln_z - ln_x) for x, ln_x in spectrum if x) / (z * ln_2)

        ln_a, ln_b, ln_c = exponents
        m, p, q = (b + c) / 2, (a + b) / 2, (a + c) / 2
        ln_m, ln_p, ln_q = (x.ln() if x else x for x in (m, p, q))
        h_ab = entropy((a, ln_a), (a, ln_a), (b, ln_b), (c, ln_c)) - 1
        h_sb = entropy((a, ln_a), (m, ln_m), (m, ln_m), (a, ln_a)) - 1
        h_rb = entropy((p, ln_p), (p, ln_p), (q, ln_q), (q, ln_q)) - 1
        rhs = 1 + h_ab
        lhs, w = 2 - xx2 - zz * zz, l_tra - xx2 - zz * zz
        out = {
            "gamma": (2 * a * a + 4 * a * b + 4 * a * c + 2 * b * c) / (z * z),
            "concurrence": max(abs(b - c) - 2 * a, Decimal(0)) / z,
            "l_tra": l_tra,
            "lhs": lhs,
            "w": w,
            "u": lhs / w if w else None,
            "h_rb": h_rb,
            "h_sb": h_sb,
            "h_ab": h_ab,
            "eur_rhs": rhs,
            "u_eur": (h_rb + h_sb) / rhs if rhs else None,
        }
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return {name: None if value is None else +value for name, value in out.items()}
