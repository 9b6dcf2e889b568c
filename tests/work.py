"""The work a command does, counted: calls of rotorlab's entry points over one
run, each counted on its owner and wherever src binds its name.

Counts do not move with the machine's speed, so the tests that pin how many
passes a run takes share this one counter.
"""

import contextlib
import io
import sys

import numpy as np

from rotorlab import cli, degeneracy, dynamics, fform, invariants, jets, noether

# counter: (owner, name, which calls count, from their arguments)
COUNTED = {
    "kinematic_jets": (invariants, "kinematic_jets", None),
    "hessians": (degeneracy, "hessians", None),
    "chart_scalar_jets": (degeneracy, "chart_scalar_jets", None),
    "chart_scalars": (degeneracy, "chart_scalars", None),
    "pq_from_scalars": (fform, "pq_from_scalars", None),
    "lagrangian_from_scalars": (fform, "lagrangian_from_scalars", None),
    "jacobian_pq": (degeneracy, "jacobian_pq", None),
    "momenta_from_vectors": (noether, "momenta_from_vectors", None),
    "Jet * Jet": (jets.Jet, "__mul__", lambda x, y: isinstance(y, jets.Jet)),
    "FForm._try": (fform.FForm, "_try", None),
    "FForm.eval": (fform.FForm, "eval", None),
    "svd": (np.linalg, "svd", None),
    "FreeMotionTrajectory.jets": (dynamics.FreeMotionTrajectory, "jets", None),
}


def clear_caches():
    """Clear every ``functools.cache`` of rotorlab's modules, so that a count
    does not depend on what an earlier test in this process filled."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rotorlab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def src_calls(monkeypatch, owner, name, record=lambda *args: None):
    """The calls of ``owner.name``, one ``record(*args)`` each, counted on
    owner and wherever src binds the name."""
    original, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    for module in [owner, *sys.modules.values()]:
        if ((module is owner or getattr(module, "__name__", "").startswith("rotorlab"))
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counting)
    return calls


def run_counts(monkeypatch, argv, counters=tuple(COUNTED)):
    """(exit code, {counter: calls}) of one ``rotorlab`` run of ``argv``, its
    caches cleared first; its report is discarded."""
    clear_caches()
    calls = {}
    for c in counters:
        owner, name, which = COUNTED[c]
        calls[c] = src_calls(monkeypatch, owner, name, which or (lambda *args: True))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return code, {c: sum(map(bool, v)) for c, v in calls.items()}
