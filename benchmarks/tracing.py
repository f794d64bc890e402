"""
Per-layer tracing from outside the library.

Wrappers are installed on every binding a caller actually uses: a module
function is replaced in each loaded `garside` module that holds it (summit
imports cstar_representative and _seed_trajectories by name, transport
imports cyc_q and closed_orbit), and a method is replaced on its class.  A
target that no longer exists is skipped, so its metrics are absent instead
of crashing the run.

Spans are folded as they close: per (parent span, span) the tracer keeps a
call count, total time and self time (total minus the time of the child
spans), so millions of kernel calls cost no memory per call.  A layer's
self time is the sum of the self times of its spans.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, attribute path); the layer is the span name's prefix.
TARGETS = {
    "braid.meet": ("garside.braid", "BraidStructure.meet"),
    "braid.join": ("garside.braid", "BraidStructure.join"),
    "braid.mul": ("garside.braid", "BraidStructure.mul"),
    "braid.left_quotient": ("garside.braid", "BraidStructure.left_quotient"),
    "braid.right_complement": ("garside.braid", "BraidStructure.right_complement"),
    "braid.left_complement": ("garside.braid", "BraidStructure.left_complement"),
    "braid.tau": ("garside.braid", "BraidStructure.tau"),
    "core.normalize": ("garside.core", "normalize"),
    "core.mul": ("garside.core", "CanonicalElement.__mul__"),
    "core.inv": ("garside.core", "CanonicalElement.inv"),
    "core.divides": ("garside.core", "CanonicalElement.divides"),
    "cycling.cyc_q": ("garside.cycling", "cyc_q"),
    "cycling.closed_orbit": ("garside.cycling", "closed_orbit"),
    "cycling.representative": ("garside.cycling", "cstar_representative"),
    "transport.push": ("garside.transport", "TransportContext.push"),
    "transport.pull": ("garside.transport", "TransportContext.pull"),
    "transport.orbit_build": ("garside.transport", "OrbitTransport.__init__"),
    "transport.conjugator": ("garside.transport", "minimal_recurrent_conjugator"),
    "transport.seed": ("garside.transport", "_seed_trajectories"),
    "summit.closure": ("garside.summit", "_summit_closure"),
    "summit.trajectory": ("garside.cycling", "_closure_trajectory"),
    "summit.decide": ("garside.summit", "decide_conjugacy"),
    "rigid.rigid_power": ("garside.rigid", "rigid_power"),
}

LAYERS = ("braid", "core", "cycling", "transport", "summit", "rigid")

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]
        self.fold: dict[tuple[str, str], list] = {}
        self.installed: set[str] = set()
        self.meet_pairs: set = set()
        self.orbit_steps = 0
        self.atoms_tried = 0
        self.atoms_kept = 0
        self.members = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        observers = {
            "braid.meet": self._see_meet,
            "cycling.closed_orbit": self._see_orbit,
            "transport.seed": self._see_seed,
            "summit.closure": self._see_closure,
        }
        for span, (modname, path) in TARGETS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, span, observers.get(span)))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, span, observers.get(span))
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "garside" or name.startswith("garside.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            self.installed.add(span)

    def _wrap(self, fn, span: str, observe):
        stack, fold, perf = self.stack, self.fold, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                rec = fold.get((parent[0], span))
                if rec is None:
                    rec = fold[(parent[0], span)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers for counts that calls alone do not give ---------------

    def _see_meet(self, args, result) -> None:
        self.meet_pairs.add((args[1], args[2]))

    def _see_orbit(self, args, result) -> None:
        self.orbit_steps += len(result.elements)

    def _see_seed(self, args, result) -> None:
        self.atoms_tried += len(args[0].struct.atoms)
        self.atoms_kept += len(result)

    def _see_closure(self, args, result) -> None:
        self.members += len(result)

    # -- results -------------------------------------------------------------

    def calls(self, span: str) -> int | None:
        if span not in self.installed:
            return None
        return sum(rec[0] for (_, s), rec in self.fold.items() if s == span)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name; a metric whose span is gone is absent."""
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, span: str) -> None:
            n = self.calls(span)
            if n is not None:
                out[name] = (n, "count")

        put("braid.meet.calls", "braid.meet")
        put("braid.join.calls", "braid.join")
        put("braid.mul.calls", "braid.mul")
        meets = self.calls("braid.meet")
        if meets:
            out["braid.meet.distinct_frac"] = (len(self.meet_pairs) / meets, "ratio")
        put("core.normalize.calls", "core.normalize")
        put("core.mul.calls", "core.mul")
        put("core.inv.calls", "core.inv")
        put("cycling.cyc_q.calls", "cycling.cyc_q")
        if "cycling.closed_orbit" in self.installed:
            out["cycling.orbit_steps"] = (self.orbit_steps, "count")
        put("cycling.representative.calls", "cycling.representative")
        put("transport.pull.calls", "transport.pull")
        put("transport.push.calls", "transport.push")
        put("transport.orbit_builds", "transport.orbit_build")
        put("transport.conjugator.calls", "transport.conjugator")
        if "transport.seed" in self.installed:
            frac = self.atoms_kept / self.atoms_tried if self.atoms_tried else 0.0
            out["transport.atoms_kept_frac"] = (frac, "ratio")
        if "summit.closure" in self.installed:
            out["summit.members"] = (self.members, "count")
        put("summit.trajectories", "summit.trajectory")
        put("rigid.rigid_power.calls", "rigid.rigid_power")
        for layer in LAYERS:
            if any(span.startswith(layer + ".") for span in self.installed):
                self_s = sum(rec[2] for (_, s), rec in self.fold.items()
                             if s.startswith(layer + "."))
                out[f"{layer}.self_s"] = (self_s, "s")
        return out

    def folded(self) -> dict[str, list]:
        """The folded spans, 'parent>span' -> [calls, total_s, self_s]."""
        return {f"{p}>{s}": [rec[0], round(rec[1], 6), round(rec[2], 6)]
                for (p, s), rec in sorted(self.fold.items())}
