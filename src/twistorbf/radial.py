"""Weight-homogeneous chart functions on the Riemann sphere.

Everything the spectral models integrate or multiply lives in the family

    f(z) = sum_{a-b = w} c_{ab} z^a zbar^b / (1 + |z|^2)^gamma

for a fixed torus weight w.  Such functions are closed under products,
conjugation and d/dzbar, their integrals against powers of D = 1 + |z|^2
have closed Beta-function values, and a radial Gauss rule in the compactified
variable t = (|z|^2 - 1)/(|z|^2 + 1) integrates the whole class exactly.
That exactness is what keeps every residual below shows up at roundoff level.
"""

from __future__ import annotations

import math

import numpy as np


class RadialFun:
    """A finite sum c_{ab} z^a zbar^b D^-gamma, all terms of one weight a-b."""

    __slots__ = ("gamma", "terms")

    def __init__(self, terms=None, gamma=0):
        self.gamma = int(gamma)
        self.terms = {}
        if terms:
            w = None
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError("negative exponent")
                if w is None:
                    w = a - b
                elif a - b != w:
                    raise ValueError("mixed weights in one RadialFun")
                if c != 0:
                    self.terms[(int(a), int(b))] = complex(c)

    @property
    def weight(self):
        for (a, b) in self.terms:
            return a - b
        return 0

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.terms.values())

    def copy(self):
        f = RadialFun(gamma=self.gamma)
        f.terms = dict(self.terms)
        return f

    # -- algebra ----------------------------------------------------------

    def scale(self, s):
        f = RadialFun(gamma=self.gamma)
        f.terms = {k: s * c for k, c in self.terms.items()}
        return f

    def add(self, other):
        if self.gamma != other.gamma:
            g = max(self.gamma, other.gamma)
            return self.pad_gamma(g).add(other.pad_gamma(g))
        f = RadialFun(gamma=self.gamma)
        f.terms = dict(self.terms)
        for k, c in other.terms.items():
            f.terms[k] = f.terms.get(k, 0.0) + c
        f._clean()
        return f

    def mul(self, other):
        f = RadialFun(gamma=self.gamma + other.gamma)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                f.terms[k] = f.terms.get(k, 0.0) + c1 * c2
        f._clean()
        return f

    def conj(self):
        f = RadialFun(gamma=self.gamma)
        f.terms = {(b, a): c.conjugate() for (a, b), c in self.terms.items()}
        return f

    def pad_gamma(self, gamma_new):
        """Rewrite with a larger denominator exponent, same function."""
        d = gamma_new - self.gamma
        if d < 0:
            raise ValueError("can only pad upward")
        if d == 0:
            return self.copy()
        f = RadialFun(gamma=gamma_new)
        for (a, b), c in self.terms.items():
            for k in range(d + 1):
                key = (a + k, b + k)
                f.terms[key] = f.terms.get(key, 0.0) + c * math.comb(d, k)
        return f

    def dbar(self):
        """d/dzbar; weight goes up by one.

        On z^a zbar^b D^-g the derivative is
        b z^a zbar^(b-1) D^-g - g z^(a+1) zbar^b D^-(g+1); the first piece is
        put over D^(g+1) by inserting D = 1 + z zbar.
        """
        f = RadialFun(gamma=self.gamma + 1)
        for (a, b), c in self.terms.items():
            if b > 0:
                for da, db in ((0, -1), (1, 0)):
                    key = (a + da, b + db)
                    f.terms[key] = f.terms.get(key, 0.0) + c * b
            key = (a + 1, b)
            f.terms[key] = f.terms.get(key, 0.0) - c * self.gamma
        f._clean()
        return f

    def _clean(self, tol=0.0):
        for k in [k for k, c in self.terms.items() if abs(c) <= tol]:
            del self.terms[k]

    def trim(self, rel=1e-13):
        """Drop structurally-cancelled dust relative to the largest term."""
        if not self.terms:
            return self
        big = max(abs(c) for c in self.terms.values())
        self._clean(rel * big)
        return self

    # -- canonical (weight, offset-coefficients) form ---------------------

    def canonical(self):
        """Return (w, m0, coeff_vector): f = z^A zbar^B sum_m c_m u^m D^-gamma
        with (A, B) = (max(w,0), max(-w,0)) and m running from m0."""
        if not self.terms:
            return 0, 0, np.zeros(0, dtype=complex)
        w = self.weight
        ms = sorted(min(a, b) for (a, b) in self.terms)
        m0, m1 = ms[0], ms[-1]
        c = np.zeros(m1 - m0 + 1, dtype=complex)
        for (a, b), v in self.terms.items():
            c[min(a, b) - m0] += v
        return w, m0, c

    # -- evaluation -------------------------------------------------------

    def profile(self, u, extra=0.0):
        """Radial profile r^|w| sum c_m u^m / D^(gamma+extra) at u = |z|^2.

        Stable for large u via the reversed polynomial; requires the profile
        to be bounded (true once extra carries the right metric weight, and
        checked loudly otherwise).
        """
        u = np.asarray(u, dtype=float)
        w, m0, c = self.canonical()
        gt = self.gamma + extra
        out = np.zeros(u.shape, dtype=complex)
        lo = u <= 1.0
        if np.any(lo):
            ul = u[lo]
            s = np.zeros(ul.shape, dtype=complex)
            for cm in c[::-1]:
                s = s * ul + cm
            s *= ul ** m0
            out[lo] = (ul ** (abs(w) / 2.0)) * s / (1.0 + ul) ** gt
        hi = ~lo
        if np.any(hi):
            up = 1.0 / u[hi]
            s = np.zeros(up.shape, dtype=complex)
            for cm in c:
                s = s * up + cm
            mmax = m0 + len(c) - 1
            e = gt - abs(w) / 2.0 - mmax
            out[hi] = (up ** e) * s / (1.0 + up) ** gt
        return out

    def eval(self, z, extra=0.0):
        """Value f(z) D^-extra, vectorized and large-|z| stable."""
        z = np.asarray(z, dtype=complex)
        u = np.abs(z) ** 2
        w = self.weight
        absz = np.where(u > 0, np.abs(z), 1.0)
        phase = (z / absz) ** w
        vals = self.profile(u, extra=extra) * phase
        if w != 0:
            # only the (0,0) term survives at the origin, and w != 0 excludes it
            vals = np.where(u == 0, 0.0, vals)
        return vals

    def boundedness_margin(self, extra=0.0):
        """gamma + extra - |w|/2 - m_max; negative means growth at infinity."""
        w, m0, c = self.canonical()
        mmax = m0 + len(c) - 1 if len(c) else 0
        return self.gamma + extra - abs(w) / 2.0 - mmax


def monomial(a, b, gamma=0, coeff=1.0):
    return RadialFun({(a, b): coeff}, gamma=gamma)


def integral_exact(f):
    """Integral of f over the plane against dx dy, in closed form.

    Only weight-zero functions have nonzero integral; each diagonal term
    z^a zbar^a D^-gamma contributes pi * a! (gamma-a-2)! / (gamma-1)!.
    Raises on non-integrable terms.
    """
    total = 0.0 + 0.0j
    for (a, b), c in f.terms.items():
        if a != b:
            continue
        if f.gamma < a + 2:
            raise ValueError("non-integrable term z^%d zbar^%d D^-%d" % (a, b, f.gamma))
        total += c * math.pi / ((f.gamma - 1) * math.comb(f.gamma - 2, a))
    return complex(total)


def hermitian_inner(f, g, weight_exponent):
    """Closed-form integral of f conj(g) D^-weight_exponent dx dy."""
    if f.weight != g.weight:
        return 0.0 + 0.0j
    prod = f.mul(g.conj())
    prod.gamma += int(weight_exponent)
    if weight_exponent != int(weight_exponent):
        raise ValueError("weight exponent must be integral here")
    return integral_exact(prod)


def bilinear_integral(f, g):
    """Closed-form integral of f g dx dy (no conjugation)."""
    if f.weight + g.weight != 0:
        return 0.0 + 0.0j
    return integral_exact(f.mul(g))


class RadialGrid:
    """Gauss-Legendre rule in t = (u-1)/(u+1), exact for the chart family.

    Integrates int_0^inf q(u) du exactly whenever q(u) D^gamma is polynomial
    of degree <= gamma - 2 with gamma <= 2 n_nodes - 1... in practice: the
    family z^a zbar^b D^-gamma maps to polynomials of degree gamma - 2 in t,
    so n_nodes >= (gamma_max - 1) / 2 suffices.

    The nodes also sit on the positive real axis as chart points `z`, with
    weights `w = pi du` and `D = 1 + u`: the attributes a SphereGrid offers.
    There every chart function's phase is 1, so basis values on this rule
    are radial profiles, and the sum of w times a weight-0 profile is the
    dx dy integral that the uniform angular rule of a SphereGrid with the
    same radial nodes gives.
    """

    def __init__(self, n_nodes=48):
        t, wt = np.polynomial.legendre.leggauss(int(n_nodes))
        self.n_nodes = int(n_nodes)
        self.t = t
        self.u = (1.0 + t) / (1.0 - t)
        self.du = wt * 2.0 / (1.0 - t) ** 2
        self.z = np.sqrt(self.u) + 0j
        self.w = math.pi * self.du
        self.D = 1.0 + self.u

    def integrate_radial(self, values):
        """pi * int values(u) du: the dx dy integral of a weight-0 profile."""
        return np.sum(values * self.w, axis=-1)


class SphereGrid:
    """Product rule (radial Gauss) x (uniform angle) for dx dy integrals."""

    def __init__(self, n_radial=64, n_theta=None):
        if n_theta is None:
            n_theta = 2 * int(n_radial)
        rad = RadialGrid(n_radial)
        th = 2.0 * math.pi * np.arange(n_theta) / n_theta
        r = np.sqrt(rad.u)
        self.n_radial = int(n_radial)
        self.n_theta = int(n_theta)
        self.z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        # dx dy = r dr dtheta = (1/2) du dtheta
        wq = (0.5 * rad.du)[:, None] * (2.0 * math.pi / n_theta) * np.ones(n_theta)[None, :]
        self.w = wq.ravel()
        self.u = (np.abs(self.z) ** 2)
        self.D = 1.0 + self.u

    def integrate(self, values):
        return np.sum(values * self.w, axis=-1)
