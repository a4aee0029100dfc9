"""Layer spans for the traced benchmark run, recorded from outside the library.

``Tracer.install`` replaces the public functions and methods of ``f2``,
``cfk``, ``surgery``, ``obstructions`` and ``cli`` with timing wrappers.
A function is patched under every module attribute bound to it, because
callers resolve it by name: ``surgery`` calls ``f2.rank``, while
``obstructions`` and ``cli`` hold their own references to
``cone_rank_chain`` and friends.  ``Tracer.remove`` puts every original
back.

Spans live in flat in-memory arrays while the timed work runs.  ``summary``
turns them into additive per-layer sums afterwards: a span's self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import time
from array import array

# Layer kinds.  The index of a kind is what the span arrays store.
KINDS = (
    "f2.elim_cone",
    "f2.elim_small",
    "f2.homology",
    "f2.induced",
    "f2.matmul",
    "cfk.parse",
    "cfk.validate",
    "cfk.genus",
    "cfk.region",
    "cfk.chainmap",
    "surgery.chain_route",
    "surgery.homological_route",
    "surgery.formula",
    "surgery.t",
    "surgery.hypothesis",
    "surgery.cone_assemble",
    "obstructions.check",
    "cli.run",
)
_KIND = {name: i for i, name in enumerate(KINDS)}

# (module, attribute, kind): module-level functions, patched wherever bound.
_FUNCTIONS = (
    ("f2", "rank", "f2.elim_small"),  # reclassified as f2.elim_cone inside the chain route
    ("f2", "rref", "f2.elim_small"),
    ("f2", "kernel_basis", "f2.elim_small"),
    ("f2", "solve", "f2.elim_small"),
    ("f2", "induced_map_on_homology", "f2.induced"),
    ("surgery", "cone_rank_chain", "surgery.chain_route"),
    ("surgery", "cone_rank_homological", "surgery.homological_route"),
    ("surgery", "rank_formula", "surgery.formula"),
    ("surgery", "t_invariant", "surgery.t"),
    ("surgery", "hypothesis_verdicts", "surgery.hypothesis"),
    ("obstructions", "cosmetic_pair_check", "obstructions.check"),
    ("obstructions", "complement_check", "obstructions.check"),
    ("obstructions", "hypothesis_check", "obstructions.check"),
    ("cli", "main", "cli.run"),
)

# (module, class, method, kind): methods patched on the class itself.
_METHODS = (
    ("f2", "F2Matrix", "__matmul__", "f2.matmul"),
    ("f2", "HomologyBasis", "__init__", "f2.homology"),
    ("cfk", "CfkComplex", "from_json", "cfk.parse"),
    ("cfk", "CfkComplex", "validate", "cfk.validate"),
    ("cfk", "CfkComplex", "genus", "cfk.genus"),
    ("cfk", "CfkComplex", "region_complex", "cfk.region"),
    ("cfk", "CfkComplex", "v_hat", "cfk.chainmap"),
    ("cfk", "CfkComplex", "h_hat", "cfk.chainmap"),
    ("surgery", "MappingCone", "total_boundary", "surgery.cone_assemble"),
)

_MODULES = ("f2", "cfk", "surgery", "obstructions", "cli")
_MARK = "_perfbench_original"


def _modules() -> dict:
    import importlib

    mods = {name: importlib.import_module(f"hfsurgery.{name}") for name in _MODULES}
    mods["hfsurgery"] = importlib.import_module("hfsurgery")
    return mods


class Tracer:
    """Span recorder; install it, run the traced work, remove it, summarize."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.kind = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._seen: set = set()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; the next pass starts clean.

        The arrays are cleared in place because the wrappers hold them."""
        for arr in (self.kind, self.start, self.end, self.parent):
            del arr[:]
        self._stack.clear()
        self._seen.clear()
        self.counts = {
            "cone_dim": 0,
            "cone_nnz": 0,
            "region_calls": 0,
            "region_hits": 0,
            "chainmap_calls": 0,
            "chainmap_hits": 0,
        }

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, kind_name: str, on_enter=None):
        kind_index = _KIND[kind_name]
        kinds, starts, ends, parents = self.kind, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            k = on_enter(args, stack, kinds) if on_enter is not None else kind_index
            i = len(kinds)
            kinds.append(k)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", kind_name)
        return wrapper

    def _rank_enter(self, args, stack, kinds):
        # The rank of the cone boundary, called directly by the chain route.
        if stack and kinds[stack[-1]] == _KIND["surgery.chain_route"]:
            m = args[0]
            self.counts["cone_dim"] += m.rows
            self.counts["cone_nnz"] += sum(row.bit_count() for row in m.data)
            return _KIND["f2.elim_cone"]
        return _KIND["f2.elim_small"]

    def _seen_enter(self, counter: str, kind_name: str, key_of):
        """Counts calls, and hits: calls for a complex and tag seen before."""
        kind_index = _KIND[kind_name]
        calls, hits = f"{counter}_calls", f"{counter}_hits"

        def enter(args, stack, kinds):
            key = key_of(args)
            self.counts[calls] += 1
            if key in self._seen:
                self.counts[hits] += 1
            else:
                self._seen.add(key)
            return kind_index

        return enter

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = _modules()
        region_enter = self._seen_enter("region", "cfk.region", lambda a: (id(a[0]), a[1]))
        v_enter = self._seen_enter("chainmap", "cfk.chainmap", lambda a: (id(a[0]), "v", a[1]))
        h_enter = self._seen_enter("chainmap", "cfk.chainmap", lambda a: (id(a[0]), "h", a[1]))
        enters = {
            ("f2", "rank"): self._rank_enter,
            ("CfkComplex", "region_complex"): region_enter,
            ("CfkComplex", "v_hat"): v_enter,
            ("CfkComplex", "h_hat"): h_enter,
        }
        try:
            for mod_name, attr, kind in _FUNCTIONS:
                original = getattr(mods[mod_name], attr)
                wrapper = self._wrap(original, kind, enters.get((mod_name, attr)))
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
            for mod_name, cls_name, attr, kind in _METHODS:
                cls = getattr(mods[mod_name], cls_name)
                original = cls.__dict__[attr]
                enter = enters.get((cls_name, attr))
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, kind, enter))
                else:
                    wrapper = self._wrap(original, kind, enter)
                self._patch(cls, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- aggregation -------------------------------------------------------------

    def summary(self) -> dict:
        """Additive sums over the recorded spans: self seconds and span count
        per kind, plus the counters.  Sums of several summaries stay valid."""
        n = len(self.kind)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(KINDS)
        calls = [0] * len(KINDS)
        for i in range(n):
            k = self.kind[i]
            self_s[k] += (self.end[i] - self.start[i]) - covered[i]
            calls[k] += 1
        out = {f"{name}.self_s": self_s[i] for i, name in enumerate(KINDS)}
        out.update({f"{name}.calls": calls[i] for i, name in enumerate(KINDS)})
        out.update(self.counts)
        return out


def leftover_wrappers() -> list[str]:
    """Names of library attributes that are still tracer wrappers."""
    found = []
    for mod_name, mod in _modules().items():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, _MARK):
                        found.append(f"{mod_name}.{name}.{attr}")
    return found

