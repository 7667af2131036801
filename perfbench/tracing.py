"""Per-layer call counts and self time, recorded around v2xsim entry points.

The wrappers live here, outside the program: `Tracer.install` replaces each
entry point by a timed wrapper wherever a v2xsim module looks the name up
(the engine imports `sps_select`, `path_loss_db`, ... by name, the CLI
imports `run` by name), and `Tracer.uninstall` puts the originals back.

A layer's self time is the time inside its wrapped calls minus the time
covered by wrapped calls nested in them, so the layers' self times add up
to the time spent inside any wrapped call.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_timer(counts, args, result):
    counts["timer_pops"] += 1
    if result is not None:  # a pop that starts a transmission; the rest are stale
        counts["timer_useful"] += 1


def _count_selection(counts, args, result):
    counts["selections"] += 1


def _count_keep(counts, args, result):
    if result is not None:  # a keep/reselect draw happened at counter expiry
        counts["keep_draws"] += 1
        counts["keeps"] += int(result)


def _count_decisions(counts, args, result):
    counts["decisions"] += len(args[0])


# (layer, owner, attribute, observer): owner is a module name for functions
# and "module:Class" for methods.
ENTRY_POINTS = (
    ("scenario", "v2xsim.scenario", "spawn", None),
    ("scenario", "v2xsim.scenario:Geometry", "step", None),
    ("scenario", "v2xsim.scenario:Geometry", "distance_matrix", None),
    ("scenario", "v2xsim.scenario:Geometry", "los_matrix", None),
    ("scenario", "v2xsim.scenario:Geometry", "propagation_distance_matrix", None),
    ("channel", "v2xsim.channel", "path_loss_db", None),
    ("channel", "v2xsim.channel:LinkShadowing", "evolve_matrix", None),
    ("access.csma", "v2xsim.access:CsmaNode", "on_packet", None),
    ("access.csma", "v2xsim.access:CsmaNode", "on_busy", None),
    ("access.csma", "v2xsim.access:CsmaNode", "on_idle", None),
    ("access.csma", "v2xsim.access:CsmaNode", "on_timer", _count_timer),
    ("access.csma", "v2xsim.access:CsmaNode", "on_tx_end", None),
    ("access.csma", "v2xsim.access:CsmaNode", "take_packet", None),
    ("access.sps", "v2xsim.access", "sps_select", _count_selection),
    ("access.sps", "v2xsim.access", "sps_after_transmission", _count_keep),
    ("engine", "v2xsim.cli", "run", None),
    ("engine.reception", "v2xsim.engine", "decide_reception_vector", _count_decisions),
    ("metrics.prr", "v2xsim.metrics:PrrSeries", "add_many", None),
    ("metrics.ipg", "v2xsim.metrics:IpgStore", "add", None),
    ("metrics.ccdf", "v2xsim.metrics", "ipg_ccdf", None),
    ("metrics.ccdf", "v2xsim.metrics", "mae", None),
    ("abstraction", "v2xsim.abstraction", "threshold_from_curve", None),
    ("abstraction", "v2xsim.abstraction", "select_beta", None),
    ("config", "v2xsim.config", "load_config", None),
    ("config", "v2xsim.config", "build_setup", None),
    ("cli.io", "v2xsim.cli", "load_curve_csv", None),
    ("cli.io", "v2xsim.cli", "write_prr_csv", None),
    ("cli.io", "v2xsim.cli", "write_ipg_csv", None),
    ("cli.io", "v2xsim.cli", "write_mae_csv", None),
    ("cli.io", "v2xsim.cli", "write_manifest", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


class Tracer:
    """Counts and self times of one traced stretch of work."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # per open wrapped call: time covered by wrapped children
        self._undo = []

    def _wrap(self, layer, fn, observe):
        calls, self_s, counts, open_calls = self.calls, self.self_s, self.counts, self._open

        def traced(*args, **kwargs):
            open_calls.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - open_calls.pop()
                calls[layer] += 1
                if open_calls:
                    open_calls[-1] += elapsed
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self):
        for layer, owner, name, observe in ENTRY_POINTS:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[name]
                if isinstance(raw, staticmethod):
                    traced = staticmethod(self._wrap(layer, raw.__func__, observe))
                else:
                    traced = self._wrap(layer, raw, observe)
                setattr(cls, name, traced)
                self._undo.append((cls, name, raw))
                continue
            original = getattr(module, name)
            traced = self._wrap(layer, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "v2xsim" and getattr(mod, name, None) is original:
                    setattr(mod, name, traced)
                    self._undo.append((mod, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
