"""Per-function tracing of symrank from outside the program.

`Tracer.install` rebinds chosen public functions in every loaded symrank
module that refers to them (a function imported with `from .x import f` is
bound in both modules), so calls between modules and inside one module both
pass through the wrapper.  For each traced name it records the number of
calls, inclusive time (outermost call only, so recursion is not counted
twice) and self time (inclusive time minus the time of wrapped callees).
`uninstall` restores the original bindings.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, function) -> name reported; both closed forms report as one name
TRACED = {
    ("primes", "sieve"): "primes.sieve",
    ("primes", "select_pair"): "primes.select_pair",
    ("primes", "verify_gaps"): "primes.verify_gaps",
    ("curves", "check_rr_hypothesis"): "curves.check_rr_hypothesis",
    ("curves", "family_data"): "curves.family_data",
    ("curves", "genus_X0"): "curves.genus_X0",
    ("ntheory", "factorize"): "ntheory.factorize",
    ("ntheory", "is_prime"): "ntheory.is_prime",
    ("bounds", "constructive_bound"): "bounds.constructive_bound",
    ("bounds", "closed_form_quadratic"): "bounds.closed_form",
    ("bounds", "closed_form_prime"): "bounds.closed_form",
    ("bounds", "prior_bound"): "bounds.prior_bound",
    ("bounds", "compare_all"): "bounds.compare_all",
    ("cli", "main"): "cli.main",
    ("fields", "find_irreducible"): "fields.find_irreducible",
    ("fields", "is_irreducible"): "fields.is_irreducible",
    ("fields", "invert"): "fields.invert",
    ("multiplier", "plan_evaluation"): "multiplier.plan_evaluation",
    ("multiplier", "build_algorithm"): "multiplier.build_algorithm",
    ("multiplier", "verify"): "multiplier.verify",
    ("multiplier", "emit_tensor"): "multiplier.emit_tensor",
    ("multiplier", "parse_tensor"): "multiplier.parse_tensor",
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # work counters measured at the call boundary
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # time inside wrapped calls made from outside symrank
        self._stack: list[float] = []  # per active wrapped call: time of wrapped callees
        self._saved: list[tuple[object, str, object]] = []
        self._observers = self._make_observers()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_time += dt - stack.pop()
                if not stat.active:
                    stat.total += dt
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return traced

    def _make_observers(self) -> dict:
        c = self.counters

        def sieve(args, kwargs, result, dt):
            c["primes.sieve.entries"] += args[0] if args else kwargs["limit"]

        def rr(args, kwargs, result, dt):
            q, n = args[0], args[1]
            c["curves.check_rr_hypothesis.operand_bits"] += n * math.log2(q)

        def verify(args, kwargs, result, dt):
            c[f"multiplier.verify.{result.mode}_s"] += dt
            c[f"multiplier.verify.{result.mode}_pairs"] += result.pairs_checked

        return {"primes.sieve": sieve, "curves.check_rr_hypothesis": rr, "multiplier.verify": verify}

    def install(self) -> None:
        modules = {
            short: sys.modules[f"symrank.{short}"] for short in {m for m, _ in TRACED}
        }
        loaded = [m for key, m in sys.modules.items() if key == "symrank" or key.startswith("symrank.")]
        for (short, attr), name in TRACED.items():
            original = getattr(modules[short], attr)
            wrapper = self._wrap(name, original)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()
