"""DOP853 over a forward span, with its dense output.

The explicit Runge-Kutta 8(5,3) pair of Dormand and Prince and its 7th-order
dense output (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10), as
scipy 1.17.1's ``solve_ivp(method="DOP853", dense_output=True)`` writes them:
the same first step, step-size control, 5/3 error norm and interpolant, every
float operation in the same order.  So the step ends, the dense output and the
right-hand-side calls are scipy's, bit for bit, without scipy.integrate.  The
tableau's literals are the shortest that round to scipy's coefficients.
"""

from __future__ import annotations

import numpy as np

STAGES = 12  # stages of a step; three more build the dense output
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size control
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimate + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
              0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
              0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((16, 16))  # row s: the weights of the stages before s, {column: weight}
for _row, _entries in enumerate([
    {0: 0.05260015195876773}, {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054}, {0: 0.2413651341592667,
    2: -0.8845494793282861, 3: 0.924834003261792}, {0: 0.037037037037037035,
    3: 0.17082860872947386, 4: 0.12546768756682242}, {0: 0.037109375, 3: 0.17025221101954405,
    4: 0.06021653898045596, 5: -0.017578125}, {0: 0.03709200011850479, 3: 0.17038392571223998,
    4: 0.10726203044637328, 5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
    6: 20.154067550477894, 7: -43.48988418106996}, {0: 0.47766253643826434, 3: -2.4881146199716677,
    4: -0.590290826836843, 5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
    8: -0.020331201708508627}, {0: -0.9371424300859873, 3: 5.186372428844064,
    4: 1.0914373489967295, 5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
    8: 2.4936055526796523, 9: -3.0467644718982196}, {0: 2.273310147516538, 3: -10.53449546673725,
    4: -2.0008720582248625, 5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
    8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636}, {0: 0.054293734116568765,
    5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585, 8: 0.3111643669578199,
    9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
    8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
    11: 0.007567897660545699, 12: -0.008298}, {0: 0.03183464816350214, 5: 0.028300909672366776,
    6: 0.053541988307438566, 7: -0.05492374857139099, 10: -0.00010834732869724932,
    11: 0.0003825710908356584, 12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
    8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
    14: -9.15095847217987},
], start=1):
    A[_row, list(_entries)] = list(_entries.values())
B = A[STAGES, :STAGES]  # the 8th-order weights
E3 = np.zeros(STAGES + 1)  # the 3rd-order error weights
E3[:STAGES] = B
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.zeros(STAGES + 1)  # the 5th-order error weights
E5[[0, *range(5, 12)]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                          1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                          0.08192320648511571, -0.022355307863886294]
D = np.zeros((4, 16))  # the dense output's last four coefficient rows
D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]]


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


def _first_step(fun, t0, y0, f0, span, rtol, atol):
    """The first step's size, from the RMS scales of the state and the slope
    and one trial Euler step (Hairer, Norsett & Wanner, II.4)."""
    scale, rms = atol + np.abs(y0) * rtol, len(y0) ** 0.5
    d0, d1 = np.linalg.norm(y0 / scale) / rms, np.linalg.norm(f0 / scale) / rms
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = np.linalg.norm((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / rms / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), span)
    return min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 8), span)


def _error_norm(K, h, scale):
    """The RMS norm of the 5th-order error estimate, corrected by the 3rd."""
    err5, err3 = np.dot(K.T, E5) / scale, np.dot(K.T, E3) / scale
    err5_norm_2, err3_norm_2 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    return np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))


def solve(fun, t_span, y0, rtol, atol) -> DenseSolution:
    """Integrate y' = fun(t, y) from the finite y0 over t_span = (t0, t1),
    t1 > t0; StepSizeError when the step size collapses."""
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not (t_bound > t and np.isfinite(y).all()):
        raise ValueError(f"need a forward span and a finite start: {t_span}, {y}")
    f = fun(t, y)
    h_abs = _first_step(fun, t, y, f, t_bound - t, rtol, atol)
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
            for s in range(1, STAGES):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:STAGES].T, B)
            f_new = K[STAGES] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:STAGES + 1], h, scale)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        for s in range(STAGES + 1, len(C)):  # the dense output's extra stages
            K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
        delta_y = y_new - y
        F.append(np.concatenate([[delta_y, h * f - delta_y, 2 * delta_y - h * (f_new + f)],
                                 h * np.dot(D, K)]))
        ts.append(t_new)
        y_old.append(y)
        t, y, f = t_new, y_new, f_new
    return DenseSolution(ts, y_old, F)
