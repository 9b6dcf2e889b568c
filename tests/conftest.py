from dataclasses import fields

import numpy as np
import pytest

from rotorlab.degeneracy import ChartState
from rotorlab.invariants import KinematicJet


def same_bits(a, b):
    """True if a and b hold the same float64 bits in the same shape: -0.0
    differs from 0.0, and a NaN equals a NaN of the same payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def nothing_ahead(forms):
    """One pair of empty (P, Q) arrays per form: no points ahead of a batch's
    in ``noether.batch_casimirs`` and ``cli.noether_residuals``."""
    return [(np.empty(0), np.empty(0))] * len(forms)


def chart_entry(batch: ChartState, i: int) -> ChartState:
    """Entry i of a batch of chart states, as a state: each field's column i."""
    return ChartState(*(tuple(a[i] for a in v) if isinstance(v, tuple) else v[i]
                        for v in (getattr(batch, f.name) for f in fields(batch))))


@pytest.fixture
def rotator_jet():
    """Kinematic jet of the circular solution at t=0 (M = ell = 1, phidot = 1).

    Along x(t) = (t, sin(t)/2, cos(t)/2, 0), k(t) = (1, cos t, -sin t, 0),
    completed with a = (0, 0, 0, 1) constant and b = (0, sin t, cos t, 0).
    """
    return KinematicJet(
        xdot=np.array([1.0, 0.5, 0.0, 0.0]),
        k=np.array([1.0, 1.0, 0.0, 0.0]),
        m=np.array([1.0, -1.0, 0.0, 0.0]),
        a=np.array([0.0, 0.0, 0.0, 1.0]),
        b=np.array([0.0, 0.0, 1.0, 0.0]),
        kdot=np.array([0.0, 0.0, -1.0, 0.0]),
        mdot=np.array([0.0, 0.0, 1.0, 0.0]),
        adot=np.zeros(4),
        bdot=np.array([0.0, 1.0, 0.0, 0.0]),
    )
