"""Layer spans recorded from outside the package.

`Tracer.install()` wraps the functions each layer is made of, in every
`irrbase` module that holds a reference to them, so nothing under `src/`
changes.  Spans live in memory as `[id, parent, layer, start, end]` lists
and are written out after the timed region.  A `StabChain.build` with an
open `perm.stabilizer` span above it is a Schreier-Sims rerun and belongs
to that layer; any other build is a root chain.

Layers and the functions timed for them:

    construct           realize.instantiate
    perm.root_chain     StabChain.build outside a stabilizer call
    perm.stabilizer     PermGroup.stabilizer_of_point and its reruns
    chains.materialize  chains._matrix_from_group
    chains.search       achievable_lengths, min_base_length, max_irredundant_length
    cli                 cli.run
"""

from __future__ import annotations

import collections
import json
import sys
import time

ROOT_LAYER = "case"
COUNTED = ("sifts", "child")  # counters bumped by _counted wrappers, one per call
SEARCHES = ("achievable_lengths", "min_base_length", "max_irredundant_length")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.active = False

    # -- recording ------------------------------------------------------------

    def _open(self, layer: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, layer, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def _in_layer(self, layer: str) -> bool:
        return any(s[2] == layer for s in self.stack)

    def region(self, fn):
        """Run fn() as the timed region of a case, under a root span."""
        self.active = True
        span = self._open(ROOT_LAYER)
        try:
            return fn()
        finally:
            self._close(span)
            self.active = False

    def _spanned(self, layer, fn, after=None, choose=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(choose() if choose else layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span[2], out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                layer = tracer.stack[-1][2] if tracer.stack else ROOT_LAYER
                tracer.counts[f"{layer}.{name}"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import irrbase.chains as chains
        import irrbase.cli as cli
        import irrbase.realize as realize
        from irrbase.perm import PermGroup, StabChain

        counts = self.counts

        def built(_layer, result):
            group, domain = result
            counts["construct.points"] += domain.size
            counts["construct.gens"] += len(group.generators)

        def chain_done(layer, chain):
            if layer == "perm.root_chain":
                counts["perm.root_chain.levels"] += len(chain.levels)
            else:
                counts["perm.stabilizer.reruns"] += 1

        def materialized(_layer, node):
            counts["chains.materialize.nodes"] += 1
            counts["chains.materialize.cells"] += node.mat.size

        def stabilized(_layer, _group):
            counts["perm.stabilizer.calls"] += 1

        def chain_layer():
            return "perm.stabilizer" if self._in_layer("perm.stabilizer") else "perm.root_chain"

        _replace(realize.instantiate, self._spanned("construct", realize.instantiate, built))
        _replace(cli.run, self._spanned("cli", cli.run))
        _replace(
            chains._matrix_from_group,
            self._spanned("chains.materialize", chains._matrix_from_group, materialized),
        )
        for name in SEARCHES:
            fn = getattr(chains, name)
            _replace(fn, self._spanned("chains.search", fn))

        build = StabChain.__dict__["build"].__func__
        StabChain.build = classmethod(self._spanned(None, build, chain_done, chain_layer))
        StabChain.sift = self._counted("sifts", StabChain.sift)
        PermGroup.stabilizer_of_point = self._spanned(
            "perm.stabilizer", PermGroup.stabilizer_of_point, stabilized
        )
        chains._MatrixNode.child = self._counted("child", chains._MatrixNode.child)
        chains._GroupNode.child = self._counted("child", chains._GroupNode.child)

    # -- reporting ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child_time: collections.Counter = collections.Counter()
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        out: collections.Counter = collections.Counter()
        for span in self.spans:
            out[span[2]] += span[4] - span[3] - child_time[span[0]]
        return dict(out)

    def layer_stats(self) -> dict[str, float]:
        """The per-layer metrics of this process, before any aggregation."""
        selfs = self.self_times()
        c = self.counts
        calls = c["perm.stabilizer.calls"]
        nodes = sum(v for k, v in c.items() if k.endswith(".child"))
        return {
            "construct.s": selfs.get("construct", 0.0),
            "construct.points": c["construct.points"],
            "construct.gens": c["construct.gens"],
            "perm.root_chain.s": selfs.get("perm.root_chain", 0.0),
            "perm.root_chain.levels": c["perm.root_chain.levels"],
            "perm.root_chain.sifts": c["perm.root_chain.sifts"],
            "perm.stabilizer.s": selfs.get("perm.stabilizer", 0.0),
            "perm.stabilizer.calls": calls,
            "perm.stabilizer.reruns": c["perm.stabilizer.reruns"],
            "chains.materialize.s": selfs.get("chains.materialize", 0.0),
            "chains.materialize.nodes": c["chains.materialize.nodes"],
            "chains.materialize.cells": c["chains.materialize.cells"],
            "chains.search.self_s": selfs.get("chains.search", 0.0),
            "chains.search.nodes": nodes,
            "cli.self_s": selfs.get("cli", 0.0),
            "unattributed_s": selfs.get(ROOT_LAYER, 0.0),
            "overhead_s": self.overhead_s(),
        }

    def overhead_s(self, calls: int = 20000) -> float:
        """Estimated cost of the wrappers in this process: the recorded
        spans and counted calls, each priced by timing the same wrapper
        around a no-op on a scratch tracer, minus the bare call."""

        def noop():
            return None

        scratch = Tracer()
        spanned, counted = scratch._spanned("x", noop), scratch._counted("x", noop)

        def per_call(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            return (time.perf_counter() - t0) / calls

        def cost(fn) -> float:
            scratch.spans.clear()
            return scratch.region(lambda: per_call(fn)) - per_call(noop)

        counted_calls = sum(v for k, v in self.counts.items() if k.rsplit(".", 1)[1] in COUNTED)
        return len(self.spans) * cost(spanned) + counted_calls * cost(counted)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "start", "end"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _replace(fn, wrapper) -> None:
    """Point every irrbase module attribute that holds fn at wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "irrbase" or name.startswith("irrbase."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
