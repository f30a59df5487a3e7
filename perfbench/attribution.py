"""Per-layer self time and exact call counts from a cProfile run.

``cProfile`` records, per function, its self time (``tottime``) and its
call count.  Grouping self time by the ``repro`` layer of the function's
module splits a traced pass's wall time across layers without double
counting: every function's self time lands in exactly one layer, and
code outside ``repro`` lands in ``numpy`` (numpy and scipy, including
their builtin methods) or ``python`` (everything else).
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spec import LAYERS, layer_of

#: (metric, module, function-name predicate): exact call counts read
#: from the profile.  A module ending in ``.`` matches its submodules.
CALL_COUNTS = (
    ("grid.arrival_calls", "repro.grid.network", lambda f: f == "arrival_time"),
    ("grid.duration_calls", "repro.grid.host", lambda f: f == "duration_for_work"),
    ("problems.iterate_calls", "repro.problems.", lambda f: f == "iterate"),
    ("numerics.newton_calls", "repro.numerics.newton", lambda f: f.startswith("newton")),
    (
        "numerics.banded_factor_calls",
        "repro.numerics.banded",
        lambda f: f in ("lu_factor", "lu_factor_scalar"),
    ),
)


@dataclass
class Attribution:
    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name, _, _ in CALL_COUNTS}
    )
    unmapped: set[str] = field(default_factory=set)


class ModuleResolver:
    """Maps profiler file names to dotted ``repro`` module names."""

    def __init__(self, repro_dir: Path) -> None:
        self.repro_dir = repro_dir.resolve()
        self._cache: dict[str, str | None] = {}

    def module(self, filename: str) -> str | None:
        if filename not in self._cache:
            self._cache[filename] = self._resolve(filename)
        return self._cache[filename]

    def _resolve(self, filename: str) -> str | None:
        if filename.startswith(("~", "<")):
            return None
        try:
            rel = Path(filename).resolve().relative_to(self.repro_dir)
        except ValueError:
            return None
        parts = ["repro", *rel.with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)


def _external_layer(filename: str, funcname: str) -> str:
    if filename.startswith("~"):
        # Builtins: "<built-in method numpy....>", "<method 'x' of 'numpy.ndarray' objects>".
        return "numpy" if "numpy" in funcname or "scipy" in funcname else "python"
    parts = Path(filename).parts
    return "numpy" if "numpy" in parts or "scipy" in parts else "python"


def attribute(profile: cProfile.Profile, resolver: ModuleResolver) -> Attribution:
    """Group a finished profile's self time by layer; read call counts."""
    out = Attribution()
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
    ):
        module = resolver.module(filename)
        if module is None:
            layer = _external_layer(filename, funcname)
        else:
            layer = layer_of(module)
            if layer is None:
                out.unmapped.add(module)
                layer = "python"
            for metric, target, matches in CALL_COUNTS:
                in_target = (
                    module.startswith(target)
                    if target.endswith(".")
                    else module == target
                )
                if in_target and matches(funcname):
                    out.calls[metric] += ncalls
        out.self_s[layer] += tottime
    return out
