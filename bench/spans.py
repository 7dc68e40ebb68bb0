"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each traced function with a wrapper at every
module binding inside the `bhk` package. Patching only the defining module
would miss calls made through copies such as `from .symmetry import
aut_group` in `duality` and `cli`. The wrappers keep spans on one stack (the
benchmark drives one op at a time in one thread), so a span's self time is
its duration minus the time covered by the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer -> public functions traced in it. `errors` does no work and is not a layer.
TRACED = {
    "cli": ("parse_input", "run_command"),
    "delsarte": ("build_delsarte", "transpose"),
    "smoothness": ("adequacy", "atomic_decomposition"),
    "symmetry": (
        "aut_group",
        "sl_subgroup",
        "j_subgroup",
        "subgroup_generated",
        "enumerate_intermediate",
    ),
    "duality": ("make_pair", "dual_group", "mirror_pair", "pairing"),
    "picard": (
        "picard_report",
        "picard_closed_form",
        "picard_by_counting",
        "picard_by_orbits",
        "transcendental_set",
        "transcendental_set_orbits",
        "orbit_decomposition",
        "aged_elements",
        "prime_scan",
    ),
    "arith": ("det_adjugate", "multiplicative_order", "minus_one_power_exists", "euler_phi"),
}

COUNTERS = ("symmetry.elements", "picard.aged")


def _group_order_sum(result) -> int:
    """Sum of `.order` over the groups in a result: one group or a list of them."""
    items = result if isinstance(result, (list, tuple)) else (result,)
    return sum(x.order for x in items if isinstance(getattr(x, "order", None), int))


class Tracer:
    """Call counts, self time and raised counts per traced function, plus counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.doc_starts: list[float] = []
        self.last_end = 0.0
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in the loaded `bhk` modules.

        A function (or layer module) the program no longer defines is listed in
        `absent` instead of failing.
        """
        originals = {}
        for layer, names in TRACED.items():
            try:
                module = importlib.import_module(f"bhk.{layer}")
            except ModuleNotFoundError:
                module = None
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
                else:
                    self.absent.append(f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "bhk" or mod_name.startswith("bhk.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.raised.clear()
        self.counters.clear()
        self.doc_starts.clear()

    def _wrap(self, qualname: str, fn):
        stack = self._stack
        is_parse = qualname == "cli.parse_input"
        counts_groups = qualname.startswith(("symmetry.", "duality.dual_group"))
        counts_aged = qualname == "picard.aged_elements"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            if is_parse:
                self.doc_starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[qualname] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[qualname] += 1
                self.self_s[qualname] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.last_end = end
            if counts_groups:
                self.counters["symmetry.elements"] += _group_order_sum(result)
            elif counts_aged:
                self.counters["picard.aged"] += len(result)
            return result

        return wrapper
