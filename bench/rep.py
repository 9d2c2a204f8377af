"""One benchmark repetition in a fresh interpreter.

Usage: python3 rep.py '<spec json>'

The spec gives the repetition kind (``probe``, ``plain``, ``layers`` or
``poly``), the CLI calls to make, the files they may write, the worker count
and the directory to make the repetition's temp dir in.  Set-up is everything up to ``ready``: the
interpreter start, ``import gkn_legendre``, the temp dir and the argument
build.  The CLI then runs in this process through ``gkn_legendre.cli.main``
with its stdout captured.  A fixed piece of stdlib-only reference work runs
before and after each call, untimed, to gauge the machine's speed at that
moment.  The report is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """This process's own high-water RSS.  ``ru_maxrss`` is not used for it:
    on Linux it keeps the launching process's peak across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_work() -> float:
    """Seconds taken by fixed stdlib-only work (Fraction arithmetic, big-int
    products, small dicts): a gauge of the machine's speed at this moment."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc, big, mod = Fraction(0), 3**400, 7**500
    for i in range(1, 8000):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, i + 1)
        big = big * (i | 1) % mod
        {j: (j, i) for j in range(8)}
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    import gkn_legendre
    from gkn_legendre import cli

    workdir = tempfile.mkdtemp(dir=spec["work_root"])
    os.chdir(workdir)
    paths = {key: os.path.join(workdir, name) for key, name in spec["files"].items()}
    calls = [[arg.format(**paths) for arg in argv] for argv in spec["calls"]]
    report = {
        "ready": time.monotonic(),
        "workdir": workdir,
        "module": gkn_legendre.__file__,
        "version": gkn_legendre.__version__,
    }
    if spec["kind"] == "probe":
        report["refs"] = [reference_work()]
        print(json.dumps(report))
        return 0

    tracer = None
    if spec["kind"] in ("layers", "poly"):
        import tracer as tracing

        tracer = tracing.Tracer()
        if spec["kind"] == "layers":
            tracing.install_layers(tracer, spec["workers"])
        else:
            tracing.install_poly(tracer)

    # the gauge runs before and after each call, outside its timed region
    refs = [reference_work()]
    outs = []
    for argv in calls:
        buf = io.StringIO()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:
            report["error"] = traceback.format_exc()
            code = None
        wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        outs.append({
            "code": code,
            "stdout": buf.getvalue(),
            "wall": wall,
            "cpu": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
            "cpu_children": _cpu(kids1) - _cpu(kids0),
        })
        refs.append(reference_work())
        if code is None:
            break
    report.update(
        refs=refs,
        outs=outs,
        maxrss_self_kb=_peak_rss_kb(),
        maxrss_children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        trace=tracer.report() if tracer else None,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
