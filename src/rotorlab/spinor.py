"""The null tetrad (k, m, a, b) that a spinor and its mate generate.

Pauli matrices are taken in the standard basis (sigma^0 = identity).  The
spinor built from angles follows the explicit parametrization

    kappa = exp(i Phi/2) sqrt(Psi) [exp(-i phi/2) cos(theta/2),
                                    exp( i phi/2) sin(theta/2)],

whose mate in components is tau = (-conj(kappa^1), conj(kappa^0)) / (kappa^+ kappa),
so that kappa^0 tau^1 - kappa^1 tau^0 = 1.  ``tetrad_from_angles`` forms
k = kappa^+ sigma kappa, m = tau^+ sigma tau and a + i b = tau^+ sigma kappa
with each complex number held as a (re, im) pair of generic scalars, so it
takes floats, batches of floats or jets (for exact parameter-derivatives of
tetrad paths) alike.  ``null_from_angles`` / ``angles_from_null`` map the
null vector k = K (1, n(theta, phi)) to and from its chart angles.

Every tetrad it builds is in the special gauge: with k = K (1, n) and
K = Psi, m = (1, -n) / K, a = (0, a_) and b = (0, n x a_), so a^0 and b^0
and their rates along any path vanish.  The phase Phi is the rotation
angle of (a, b): Phi + delta gives (cos(delta) a - sin(delta) b,
sin(delta) a + cos(delta) b), with k and m unchanged.
"""

from __future__ import annotations

from . import jets
from .minkowski import dot, four


def tetrad_relations(k, m, a, b) -> dict:
    """The ten scalar products of a null tetrad minus their required values
    (k.m = 2, a.a = b.b = -1, all others 0); jet-generic."""
    return {"kk": dot(k, k), "mm": dot(m, m), "km-2": dot(k, m) - 2.0,
            "aa+1": dot(a, a) + 1.0, "bb+1": dot(b, b) + 1.0, "ab": dot(a, b),
            "ak": dot(a, k), "bk": dot(b, k), "am": dot(a, m), "bm": dot(b, m)}


def gauge_transform(k, m, a, b, alpha, beta):
    """The tetrad (k, m, a, b) with a, b, m shifted along k; all scalar
    products are preserved.  Component by component, so alpha, beta and the
    vectors may be floats, batches or jets."""
    s = alpha**2 + beta**2
    return (k, four(*(m[i] + 2.0 * alpha * a[i] + 2.0 * beta * b[i] + s * k[i]
                      for i in range(4))),
            four(*(a[i] + alpha * k[i] for i in range(4))),
            four(*(b[i] + beta * k[i] for i in range(4))))


# -- the tetrad from angle data --------------------------------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cconj(x):
    return (x[0], -x[1])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _pauli_pairs(xi, eta):
    """xi^+ sigma^mu eta on (re, im) component pairs; generic scalars."""
    a0, a1 = _cconj(xi[0]), _cconj(xi[1])
    p00, p11 = _cmul(a0, eta[0]), _cmul(a1, eta[1])
    p01, p10 = _cmul(a0, eta[1]), _cmul(a1, eta[0])
    s2 = (p01[1] - p10[1], p10[0] - p01[0])  # -i a0 eta1 + i a1 eta0
    return _cadd(p00, p11), _cadd(p01, p10), s2, (p00[0] - p11[0], p00[1] - p11[1])


def _four_part(s, part):
    """The real (part 0) or imaginary (part 1) parts of four (re, im) pairs."""
    return four(*(z[part] for z in s))


def tetrad_from_angles(theta, phi, psi, Phi):
    """Tetrad (k, m, a, b) from angle data; accepts floats, jets or batches
    of either.

    Returns four four-vectors whose entries match the scalar type of the
    inputs, so feeding jets yields exact tetrad derivatives along a path.
    """
    half_t, half_p, half_P = 0.5 * theta, 0.5 * phi, 0.5 * Phi
    c, s = jets.cos(half_t), jets.sin(half_t)
    r = jets.sqrt(psi)
    ep = (jets.cos(half_p), jets.sin(half_p))      # exp(+i phi/2)
    em = _cconj(ep)
    eP = (jets.cos(half_P), jets.sin(half_P))      # exp(+i Phi/2)
    emP = _cconj(eP)

    kap = (
        _cmul(eP, _cmul(em, (r * c, 0.0 * c))),
        _cmul(eP, _cmul(ep, (r * s, 0.0 * s))),
    )
    inv_r = 1.0 / r
    tau = (
        _cmul(emP, _cmul(em, (-inv_r * s, 0.0 * s))),
        _cmul(emP, _cmul(ep, (inv_r * c, 0.0 * c))),
    )
    t = _pauli_pairs(tau, kap)
    return (_four_part(_pauli_pairs(kap, kap), 0), _four_part(_pauli_pairs(tau, tau), 0),
            _four_part(t, 0), _four_part(t, 1))


# -- the null vector in chart angles ----------------------------------------


def null_from_angles(theta, phi, K):
    """k = K (1, sin(theta) cos(phi), sin(theta) sin(phi), cos(theta));
    accepts floats, jets or batches of either."""
    st = jets.sin(theta)
    return four(K + 0.0 * theta, K * (st * jets.cos(phi)), K * (st * jets.sin(phi)),
                K * jets.cos(theta))


def angles_from_null(k):
    """(theta, phi, K) with ``null_from_angles(theta, phi, K) == k``, theta in
    [0, pi] and phi in (-pi, pi]; accepts floats, jets or batches of either."""
    n1, n2, n3 = k[1] / k[0], k[2] / k[0], k[3] / k[0]
    return jets.acos(n3), jets.atan2(n2, n1), k[0]
