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

    # -- evaluation -------------------------------------------------------

    def profile(self, u, extra=0.0):
        """Radial profile r^|w| sum c_m u^m / D^(gamma+extra) at u = |z|^2:
        the one-row case of `ChartTable.profiles`."""
        u = np.asarray(u, dtype=float)
        prof = ChartTable([self]).profiles(u.ravel(), extra)[0]
        return prof.astype(complex).reshape(u.shape)

    def eval(self, z, extra=0.0):
        """Value f(z) D^-extra, vectorized and large-|z| stable."""
        return ChartTable([self]).values(z, extra)[0]


# rows x points per pass of `ChartTable.values`: a pass holds a few such
# temporaries, small beside the output; 2^15 to 2^18 ran about equally fast
# on tables of 50 to 290 rows
CHUNK_ELEMENTS = 1 << 16


def _powers(base, exps):
    """(stack of base ** x over the distinct x in exps, row of each exponent
    in it): one scalar power per distinct exponent, since numpy's fast paths
    for x = 0.5, 1, 2, ... take a scalar only."""
    index = {}
    rows = [index.setdefault(x, len(index)) for x in exps.tolist()]
    pows = np.empty((len(index),) + base.shape, dtype=base.dtype)
    for i, x in enumerate(index):
        pows[i] = base ** x
    return pows, rows


class ChartTable:
    """Chart functions f_i = z^A zbar^B sum_m c_im u^m D^-gamma_i, with
    (A, B) = (max(w, 0), max(-w, 0)) and m running from m0, read off their
    terms into one padded coefficient table and evaluated row by row in one
    array pass.

    Each row holds the torus weight w, m0, the coefficient count and gamma.
    The u <= 1 branch sums the polynomial by Horner from the top coefficient
    down, the u > 1 branch the reversed polynomial from m0 up; `lo` and `hi`
    hold the coefficients in each loop's order, zero-padded where the loop
    starts, so a row's sum stays exactly 0 until its first coefficient and
    every row takes the floating-point steps of a loop over that row alone.
    The coefficients are stored real when all are (a complex Horner sums
    real and imaginary parts apart, so both give the same values).
    """

    def __init__(self, funs):
        self.weights = np.array([f.weight for f in funs], dtype=int)
        self.gamma = np.array([f.gamma for f in funs], dtype=int)
        # the power m = min(a, b) of u in each term z^a zbar^b of each row
        powers = [[min(ab) for ab in f.terms] for f in funs]
        self.m0 = np.array([min(p, default=0) for p in powers], dtype=int)
        self.count = np.array([max(p, default=-1) + 1 for p in powers],
                              dtype=int) - self.m0
        row = np.repeat(np.arange(len(funs)), [len(p) for p in powers])
        j = np.array([m for p in powers for m in p], dtype=int) - self.m0[row]
        c = np.array([v for f in funs for v in f.terms.values()],
                     dtype=complex)
        if not np.any(c.imag):
            c = c.real
        width = self.count.max(initial=0)
        self.lo = np.zeros((len(funs), width), dtype=c.dtype)
        self.hi = np.zeros((len(funs), width), dtype=c.dtype)
        self.lo[row, width - 1 - j] = c
        self.hi[row, width - self.count[row] + j] = c
        # points per pass of `values`
        self.step = max(1, CHUNK_ELEMENTS // max(1, len(funs)))

    def margins(self, extra):
        """gamma + extra - |w|/2 - m_max of each row: the profile at extra
        is bounded at infinity exactly where this is >= 0."""
        return (self.gamma + extra - np.abs(self.weights) / 2.0
                - (self.m0 + self.count - 1))

    def profiles(self, u, extra):
        """Radial profiles r^|w| sum_m c_m u^m / D^(gamma+extra) of every row
        at the points u = |z|^2 (1-D), shape (rows, len(u)).

        For u > 1 the sum runs over the reversed polynomial in 1/u, which is
        stable for large u on every row with a nonnegative margin."""
        gt = self.gamma + extra
        half = np.abs(self.weights) / 2.0
        out = np.empty((len(self.weights), len(u)), dtype=self.lo.dtype)
        small = u <= 1.0
        for at, x, coeffs, exps in (
                (small, u[small], self.lo, (self.m0, half)),
                # with x = 1/u, x^margin D(x)^-gt = u^(|w|/2 + m_max) D(u)^-gt,
                # and u^-m_max turns the sum into the reversed polynomial
                (~small, 1.0 / u[~small], self.hi, (self.margins(extra),))):
            if not x.size:
                continue
            s = np.zeros((len(coeffs), len(x)), dtype=coeffs.dtype)
            for c in coeffs.T:
                s *= x
                s += c[:, None]
            for e in exps:
                pows, rows = _powers(x, e)
                s *= pows[rows]
            # a complex value over a real D is numpy's value times 1.0 / D
            pows, rows = _powers(1.0 + x, gt)
            s *= (1.0 / pows)[rows]
            out[:, at] = s
        return out

    def values(self, z, extra):
        """Values f_i(z) D^-extra of every row, shape (rows,) + z.shape."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty((len(self.weights), flat.size), dtype=complex)
        for k in range(0, flat.size, self.step):
            zc = flat[k:k + self.step]
            u = np.abs(zc) ** 2
            # the unit phase z/|z| is taken as 1 at the origin, where a
            # profile of nonzero weight carries the factor |z|^|w| = 0
            unit = np.where(u > 0, zc / np.where(u > 0, np.abs(zc), 1.0),
                            1.0)
            pows, rows = _powers(unit, self.weights)
            np.multiply(self.profiles(u, extra), pows[rows],
                        out=out[:, k:k + self.step])
        return out.reshape((len(self.weights),) + z.shape)


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


def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1].

    The nodes are numpy's.  Its weights err by up to 1.5e-12 relative at the
    outer nodes for n = 48..96, which breaks the rule's exactness at about
    1e-13; 2 / ((1 - t^2) P_n'(t)^2), with P_n' from the three-term
    recurrence, meets the moments to 1e-14.
    """
    t = np.polynomial.legendre.leggauss(n)[0]
    p0, p1 = np.ones_like(t), t
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
    dp = n * (p0 - t * p1) / ((1.0 - t) * (1.0 + t))
    return t, 2.0 / ((1.0 - t) * (1.0 + t) * dp * dp)


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
        t, wt = gauss_legendre(int(n_nodes))
        self.n_nodes = int(n_nodes)
        self.t = t
        self.u = (1.0 + t) / (1.0 - t)
        self.du = wt * 2.0 / (1.0 - t) ** 2
        self.z = np.sqrt(self.u) + 0j
        self.w = math.pi * self.du
        self.D = 1.0 + self.u


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
