"""Layer tracing for one benchmark repetition, installed from outside the engine.

Each wrapper replaces a name where it is looked up: the engine's modules use
``from .x import y``, so ``verify.rank_exact`` and ``sweep.rank_exact`` are
separate bindings of one function and are wrapped separately.  Spans are
aggregated in memory per name (calls, inclusive seconds, self seconds) and
written out once the repetition ends.  A span's self time is its duration
minus the time of the spans opened inside it.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = defaultdict(int)
        self._children = [0.0]  # time spent in child spans of each open span

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _timed_call(self, stat: list, fn, args, kwargs):
        children = self._children
        children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stat[1] += dt
            stat[2] += dt - children.pop()
            children[-1] += dt

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``name``."""
        stat = self._stat(name)
        stat[0] += 1
        return self._timed_call(stat, fn, args, kwargs)

    def timed(self, name: str, iterable):
        """Yield from ``iterable``, timing each step as a span of ``name``."""
        stat = self._stat(name)
        it = iter(iterable)
        sentinel = object()
        while True:
            item = self._timed_call(stat, next, (it, sentinel), {})
            if item is sentinel:
                return
            yield item

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a traced version; ``hook(args, result)``
        runs after the span and its time is kept out of the caller's self time."""
        fn = getattr(owner, attr)
        stat = self._stat(name)
        timed_call, children, clock = self._timed_call, self._children, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            result = timed_call(stat, fn, args, kwargs)
            if hook is not None:
                h0 = clock()
                hook(args, result)
                children[-1] += clock() - h0
            return result

        setattr(owner, attr, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Like ``wrap`` for a generator function: each step is timed."""
        fn = getattr(owner, attr)
        stat = self._stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            return self.timed(name, fn(*args, **kwargs))

        setattr(owner, attr, traced)

    def report(self) -> dict:
        return {
            "calls": {name: s[0] for name, s in self.stats.items()},
            "busy": {name: s[1] for name, s in self.stats.items()},
            "self": {name: s[2] for name, s in self.stats.items()},
            "counts": dict(self.counts),
        }

    # hooks

    def count_nonzero(self, args, result) -> None:
        self.counts["brackets.nonzero"] += result != 0

    def _kernel_input(self, matrix, pivots=None) -> None:
        """Input bits after clearing row denominators, and the Bareiss cell
        updates computed for ``pivots`` leading pivots (all rows if None)."""
        if not matrix or not matrix[0]:
            return
        bits = 0
        for row in matrix:  # entries are Fraction or int
            mult = math.lcm(*(x.denominator for x in row))
            bits = max(bits, max(abs(x.numerator * (mult // x.denominator)).bit_length() for x in row))
        self.counts["matrices.kernel_max_bits"] = max(self.counts["matrices.kernel_max_bits"], bits)
        m, n = len(matrix), len(matrix[0])
        r = min(m, n) if pivots is None else pivots
        self.counts["matrices.kernel_cells"] += sum((m - k - 1) * (n - k - 1) for k in range(r))

    def rank_hook(self, args, rank) -> None:
        self._kernel_input(args[0], rank)

    def det_hook(self, args, det) -> None:
        self._kernel_input(args[0])


def install_layers(tracer: Tracer, workers: int) -> None:
    """Wrap the public functions of each engine layer where they are looked up.

    With more than one worker, ``evaluate_selection`` and everything below it
    run in pool processes: it is pickled by qualified name and the workers
    inherit the parent's modules, so none of that path is wrapped.  The pool's
    wall time in the parent is recorded as the span ``sweep.pool`` instead.
    """
    from gkn_legendre import cli, matrices, oracle, sweep, verify

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_suite", "cli.run_suite")
    tracer.wrap(cli, "run_sweep", "cli.run_sweep")
    tracer.wrap(sweep, "_load_ledger_keys", "sweep._load_ledger_keys")
    tracer.wrap_iter(sweep, "enumerate_selections", "sweep.enumerate_selections")
    if workers > 1:
        sweep.ProcessPoolExecutor = _traced_pool(tracer, sweep.ProcessPoolExecutor)
        return
    tracer.wrap(verify, "bracket", "verify.bracket", tracer.count_nonzero)
    tracer.wrap(verify, "bracket_via_oracle", "verify.bracket_via_oracle")
    tracer.wrap(verify, "build_matrix", "verify.build_matrix")
    tracer.wrap(verify, "rank_exact", "verify.rank_exact", tracer.rank_hook)
    tracer.wrap(matrices, "bracket", "matrices.bracket", tracer.count_nonzero)
    tracer.wrap(sweep, "evaluate_selection", "sweep.evaluate_selection")
    tracer.wrap(sweep, "build_matrix", "sweep.build_matrix")
    tracer.wrap(sweep, "b_block", "sweep.b_block")
    tracer.wrap(sweep, "rank_exact", "sweep.rank_exact", tracer.rank_hook)
    tracer.wrap(sweep, "det_exact", "sweep.det_exact", tracer.det_hook)
    tracer.wrap(oracle, "classical_to_lograt", "oracle.classical_to_lograt")
    tracer.wrap(oracle, "sesquilinear_at", "oracle.sesquilinear_at")
    tracer.wrap(oracle, "endpoint_limit", "oracle.endpoint_limit")
    tracer.wrap(oracle.LogRat, "derivative", "oracle.LogRat.derivative")


def install_poly(tracer: Tracer) -> None:
    """Wrap ``Poly`` multiplication and construction.  These run millions of
    times in the oracle, so they get a traced pass of their own."""
    from gkn_legendre.classical import Poly

    def count_coeffs(args, result):
        tracer.counts["classical.poly_coeffs_built"] += len(args[0].coeffs)

    tracer.wrap(Poly, "__mul__", "classical.Poly.__mul__")
    tracer.wrap(Poly, "__rmul__", "classical.Poly.__mul__")
    tracer.wrap(Poly, "__init__", "classical.Poly.__init__", count_coeffs)


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        def map(self, *args, **kwargs):
            return tracer.timed("sweep.pool", tracer.call("sweep.pool", super().map, *args, **kwargs))

        def shutdown(self, *args, **kwargs):
            return tracer.call("sweep.pool", super().shutdown, *args, **kwargs)

    return TracedPool
