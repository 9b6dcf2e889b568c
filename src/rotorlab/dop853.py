"""DOP853 over a forward span, with its dense output.

The explicit Runge-Kutta 8(5,3) pair of Dormand and Prince and its 7th-order
dense output (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10), as
scipy 1.17.1's ``solve_ivp(method="DOP853", dense_output=True)`` writes them:
the same first step, step-size control, 5/3 error norm and interpolant, every
float operation in the same order, on scipy's own tableau, which the first
solve loads by itself (``scipy_module``).  So the step ends, the dense output
and the right-hand-side calls are scipy's, bit for bit, without the
scipy.integrate package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size control
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimate + 1)
RTOL, ATOL = 1e-10, 1e-12  # error tolerances
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def scipy_module(name):
    """scipy's module ``name``, an extension or source file under scipy's
    directory, run without the ``__init__`` of the packages above it.  It is
    registered under its real name, and one imported earlier is returned, so
    the process holds one such module whichever import comes first."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:-1]),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        (importlib.machinery.SourceFileLoader, importlib.machinery.SOURCE_SUFFIXES),
    ).find_spec(name)
    if spec is None:
        missing = name if scipy else "scipy"
        raise ModuleNotFoundError(f"No module named {missing!r}", name=missing)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tableau():
    """scipy's DOP853 coefficients: N_STAGES, C, A, B, E3, E5 and D."""
    return scipy_module("scipy.integrate._ivp.dop853_coefficients")


class StepSizeError(ArithmeticError):
    """The step size fell below ten float spacings; args (message, t, y) at
    the last step's end."""


class DenseSolution:
    """The dense output over the steps ending at ``ts`` (``ts[0]`` is the
    start).  A time outside [t_min, t_max] reads the state at the nearer end,
    as np.interp does, instead of extrapolating an end step's polynomial: for
    DOP853 that extrapolation can leave the light cone within a period."""

    def __init__(self, ts, y_old, F):
        self.ts = np.array(ts)
        self.t_min, self.t_max = self.ts[0], self.ts[-1]
        self._h, self._y_old, self._F = np.diff(self.ts), np.array(y_old), np.array(F)

    def __call__(self, t):
        """The state, (n,) at a time and (n, B) at B times; a step end reads
        the earlier step's polynomial."""
        t = np.clip(t, self.t_min, self.t_max)
        i = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self._h) - 1)
        x = ((t - self.ts[i]) / self._h[i])[..., None]
        y = np.zeros(np.shape(t) + self._y_old.shape[1:])
        for k in range(6, -1, -1):
            y += self._F[i, k]
            y *= x if k % 2 == 0 else 1 - x
        y += self._y_old[i]
        return y.T


def _first_step(fun, t0, y0, f0, span):
    """The first step's size, from the RMS scales of the state and the slope
    and one trial Euler step (Hairer, Norsett & Wanner, II.4)."""
    scale, rms = ATOL + np.abs(y0) * RTOL, len(y0) ** 0.5
    d0, d1 = np.linalg.norm(y0 / scale) / rms, np.linalg.norm(f0 / scale) / rms
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = np.linalg.norm((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / rms / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), span)
    return min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 8), span)


def _error_norm(K, h, scale, tableau):
    """The RMS norm of the 5th-order error estimate, corrected by the 3rd."""
    err5, err3 = np.dot(K.T, tableau.E5) / scale, np.dot(K.T, tableau.E3) / scale
    err5_norm_2, err3_norm_2 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    return np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))


def solve(fun, t_span, y0) -> DenseSolution:
    """Integrate y' = fun(t, y) from the finite y0 over t_span = (t0, t1),
    t1 > t0; StepSizeError when the step size collapses."""
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not (t_bound > t and np.isfinite(y).all()):
        raise ValueError(f"need a forward span and a finite start: {t_span}, {y}")
    tableau = _tableau()
    C, A, B, D, stages = tableau.C, tableau.A, tableau.B, tableau.D, tableau.N_STAGES
    f = fun(t, y)
    h_abs = _first_step(fun, t, y, f, t_bound - t)
    K = np.empty((len(C), len(y)))  # the stages, in rows
    ts, y_old, F = [t], [], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeError(TOO_SMALL_STEP, t, y)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, stages):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:stages].T, B)
            f_new = K[stages] = fun(t + h, y_new)
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            error_norm = _error_norm(K[:stages + 1], h, scale, tableau)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        for s in range(stages + 1, len(C)):  # the dense output's extra stages
            K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
        delta_y = y_new - y
        F.append(np.concatenate([[delta_y, h * f - delta_y, 2 * delta_y - h * (f_new + f)],
                                 h * np.dot(D, K)]))
        ts.append(t_new)
        y_old.append(y)
        t, y, f = t_new, y_new, f_new
    return DenseSolution(ts, y_old, F)
