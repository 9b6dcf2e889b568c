"""Per-layer timing wrappers installed on rotorlab from the outside.

``Tracer.install`` replaces every public function and method of the ten
rotorlab modules, and every name one module imported from another, with a
wrapper that counts calls and accumulates inclusive and self time.  Self time
is inclusive time minus the time of wrapped calls made inside it.  Records
are aggregates kept in memory (one per function, never one per call, which
also covers the jet arithmetic); ``write`` saves them when the run ends.
No file of rotorlab changes, and ``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("jets", "minkowski", "spinor", "invariants", "fform", "noether",
          "degeneracy", "dynamics", "reports", "cli")

# Jet arithmetic and elementary functions: what ``jets.ops`` counts.
_JET_ARITHMETIC = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__pow__", "__abs__")
_JET_FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log", "tanh", "acos", "atan2")
JET_OPS = tuple(f"jets.Jet.{m}" for m in _JET_ARITHMETIC if m not in
                ("__radd__", "__rmul__")) + tuple(f"jets.{f}" for f in _JET_FUNCTIONS)

CLI_SUITES = {"tetrad": "suite_tetrad", "invariants": "suite_invariants",
              "casimir": "suite_casimir", "degeneracy": "suite_degeneracy",
              "dynamics": "suite_dynamics", "count-invariants": "suite_count"}

# (metric, unit, better) of the traced run, in report order
PER_LAYER = (
    ("jets.ops", "count", "lower"),
    ("jets.self_s", "s", "lower"),
    ("jets.mul_us", "us", "lower"),
    ("jets.mean_width", "vars", "lower"),
    ("minkowski.calls", "count", "lower"),
    ("minkowski.self_s", "s", "lower"),
    ("spinor.calls", "count", "lower"),
    ("spinor.self_s", "s", "lower"),
    ("invariants.kinematic_jets", "count", "lower"),
    ("invariants.kinematic_jet_us", "us", "lower"),
    ("invariants.count_s", "s", "lower"),
    ("invariants.self_s", "s", "lower"),
    ("fform.evals", "count", "lower"),
    ("fform.eval_us", "us", "lower"),
    ("fform.lagrangian_calls", "count", "lower"),
    ("fform.lagrangian_us", "us", "lower"),
    ("fform.self_s", "s", "lower"),
    ("noether.momenta_calls", "count", "lower"),
    ("noether.momenta_us", "us", "lower"),
    ("noether.self_s", "s", "lower"),
    ("degeneracy.hessian_calls", "count", "lower"),
    ("degeneracy.hessian_us", "us", "lower"),
    ("degeneracy.chart_lagrangian_calls", "count", "lower"),
    ("degeneracy.chart_lagrangian_us", "us", "lower"),
    ("degeneracy.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.integrate_s", "s", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.el_residual_calls", "count", "lower"),
    ("dynamics.el_residuals_us", "us", "lower"),
    ("dynamics.trajectory_jets_calls", "count", "lower"),
    ("dynamics.export_s", "s", "lower"),
    ("reports.render_s", "s", "lower"),
    ("reports.doc_bytes", "bytes", "lower"),
    *((f"cli.suite.{name}_s", "s", "lower") for name in CLI_SUITES),
    ("trace.overhead_s", "s", "lower"),
)


def _wrappable(mod_name, owner_name, attr, obj):
    if not inspect.isfunction(obj) or obj.__module__ != mod_name:
        return False
    if owner_name == "Jet":
        return attr in _JET_ARITHMETIC or not attr.startswith("_")
    return not attr.startswith("_")


class Tracer:
    def __init__(self):
        self.records = {}  # key -> [layer, calls, inclusive_s, self_s]
        self._stack = [0.0]  # time of wrapped children, one slot per open call
        self._jets_made = [0, 0]  # jets constructed, sum of their widths
        self.steps = 0
        self.doc_bytes = 0
        self._patches = []  # (owner, attr, original)

    def _wrap(self, layer, key, fn, after=None):
        rec = self.records.setdefault(key, [layer, 0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[1] += 1
                rec[2] += dt
                rec[3] += dt - child
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _patch(self, owner, attr, new):
        """Replace an attribute, or a dict entry when ``owner`` is a dict."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self):
        mods = {name: importlib.import_module(f"rotorlab.{name}") for name in LAYERS}
        hooks = {"dynamics.integrate": self._count_steps,
                 "reports.render_reports": self._count_bytes}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if _wrappable(mod.__name__, "", attr, obj):
                    key = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(layer, key, obj, hooks.get(key))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        if not _wrappable(mod.__name__, obj.__name__, mattr, meth):
                            continue
                        if id(meth) not in wrappers:
                            key = f"{layer}.{meth.__qualname__}"
                            wrappers[id(meth)] = self._wrap(layer, key, meth)
                        self._patch(obj, mattr, wrappers[id(meth)])
        # every module-level reference: definitions, imported names, dispatch dicts
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patch(obj, k, wrappers[id(v)])
        self._patch_jet_init(mods["jets"].Jet)
        return self

    def _patch_jet_init(self, Jet):
        made = self._jets_made
        init = Jet.__init__

        def counting_init(self_, f, g, h):
            init(self_, f, g, h)
            made[0] += 1
            made[1] += self_.g.shape[0]

        self._patch(Jet, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _count_steps(self, traj):
        self.steps += len(traj.sol.ts) - 1

    def _count_bytes(self, doc):
        self.doc_bytes += len(doc.encode())

    # -- metrics ---------------------------------------------------------------

    def _calls(self, *keys):
        return sum(self.records[k][1] for k in keys if k in self.records)

    def _incl(self, *keys):
        return sum(self.records[k][2] for k in keys if k in self.records)

    def _mean_us(self, *keys):
        calls = self._calls(*keys)
        return 1e6 * self._incl(*keys) / calls if calls else 0.0

    def layer_calls(self, layer):
        return sum(r[1] for r in self.records.values() if r[0] == layer)

    def layer_self(self, layer):
        return sum(r[3] for r in self.records.values() if r[0] == layer)

    def metrics(self, overhead_s: float) -> dict:
        jets_made, width = self._jets_made
        traj_jets = ("dynamics.Trajectory.jets", "dynamics.FreeMotionTrajectory.jets",
                     "dynamics.IntegratedTrajectory.jets")
        values = {
            "jets.ops": self._calls(*JET_OPS),
            "jets.self_s": self.layer_self("jets"),
            "jets.mul_us": self._mean_us("jets.Jet.__mul__"),
            "jets.mean_width": width / jets_made if jets_made else 0.0,
            "minkowski.calls": self.layer_calls("minkowski"),
            "minkowski.self_s": self.layer_self("minkowski"),
            "spinor.calls": self.layer_calls("spinor"),
            "spinor.self_s": self.layer_self("spinor"),
            "invariants.kinematic_jets": self._calls("invariants.random_kinematic_jet"),
            "invariants.kinematic_jet_us": self._mean_us("invariants.random_kinematic_jet"),
            "invariants.count_s": self._incl("invariants.reproduce_invariant_count"),
            "invariants.self_s": self.layer_self("invariants"),
            "fform.evals": self._calls("fform.FForm.eval"),
            "fform.eval_us": self._mean_us("fform.FForm.eval"),
            "fform.lagrangian_calls": self._calls("fform.lagrangian_from_vectors"),
            "fform.lagrangian_us": self._mean_us("fform.lagrangian_from_vectors"),
            "fform.self_s": self.layer_self("fform"),
            "noether.momenta_calls": self._calls("noether.momenta_from_vectors"),
            "noether.momenta_us": self._mean_us("noether.momenta_from_vectors"),
            "noether.self_s": self.layer_self("noether"),
            "degeneracy.hessian_calls": self._calls("degeneracy.hessian"),
            "degeneracy.hessian_us": self._mean_us("degeneracy.hessian"),
            "degeneracy.chart_lagrangian_calls": self._calls("degeneracy.chart_lagrangian"),
            "degeneracy.chart_lagrangian_us": self._mean_us("degeneracy.chart_lagrangian"),
            "degeneracy.self_s": self.layer_self("degeneracy"),
            "dynamics.steps": self.steps,
            "dynamics.integrate_s": self._incl("dynamics.integrate"),
            "dynamics.self_s": self.layer_self("dynamics"),
            "dynamics.el_residual_calls": self._calls("dynamics.el_residuals"),
            "dynamics.el_residuals_us": self._mean_us("dynamics.el_residuals"),
            "dynamics.trajectory_jets_calls": self._calls(*traj_jets),
            "dynamics.export_s": self._incl("dynamics.export_trajectory"),
            "reports.render_s": self._incl("reports.render_reports"),
            "reports.doc_bytes": self.doc_bytes,
            **{f"cli.suite.{name}_s": self._incl(f"cli.{fn}")
               for name, fn in CLI_SUITES.items()},
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}

    def write(self, path):
        """Save the per-function records, slowest self time first."""
        rows = sorted(self.records.items(), key=lambda kv: -kv[1][3])
        data = {key: {"layer": r[0], "calls": r[1], "inclusive_s": r[2], "self_s": r[3]}
                for key, r in rows if r[1]}
        data["jets.created"] = {"count": self._jets_made[0], "widths": self._jets_made[1]}
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
