"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC names the calls, their deadlines, whether to trace, the source tree
``logres`` must come from, and the output prefix.  The worker writes one JSON
line per call to ``<prefix>.calls.jsonl`` as soon as the call returns, so a
pass that is killed still leaves the calls it finished, and
``<prefix>.final.json`` at the end.  It runs the calls in order, one after
the other, each under its deadline; a failed or timed-out call does not stop
the pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import time

import speed


class Deadline(Exception):
    """The current call ran past its deadline."""


def module_cache_sizes():
    """Entries in the package's cross-call caches."""
    from logres import fractional, germs, groebner, residues
    return {
        "groebner._std_cached": groebner._std_cached.cache_info().currsize,
        "residues._RESIDUE_MODULE_CACHE": len(residues._RESIDUE_MODULE_CACHE),
        "fractional._NZD_CACHE": len(fractional._NZD_CACHE),
        "germs._PARTIALS_CACHE": len(germs._PARTIALS_CACHE),
    }


def peak_rss_mb():
    """Peak resident memory of this process since it started the worker, in
    MB.  ``ru_maxrss`` would also count the parent's memory, which the child
    shares until it executes the interpreter."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    import logres
    from logres.criteria import analyze_text
    from logres.groebner import _std_cached

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(logres.__file__).startswith(src + os.sep):
        sys.exit(f"logres was imported from {logres.__file__}, not {src}")
    caches = module_cache_sizes()
    if any(caches.values()):
        sys.exit(f"caches not empty before the first call: {caches}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(passthrough=(Deadline,))
        tracer.install()

    armed = False

    def on_alarm(signum, frame):
        if armed:
            raise Deadline()

    signal.signal(signal.SIGALRM, on_alarm)
    sampler = speed.Sampler()
    prefix = spec["out"]
    with open(prefix + ".calls.jsonl", "w") as out:
        for i, call in enumerate(spec["calls"]):
            row = {"i": i, "status": "ok"}
            sampler.start()
            start = time.perf_counter()
            armed = True
            signal.setitimer(signal.ITIMER_REAL, call["deadline"])
            try:
                report = analyze_text(call["vars"], call["poly"],
                                      call["factors"], seed=call["seed"])
                armed = False
            except Deadline:
                row["status"] = "timeout"
            except Exception as exc:  # every failure is counted, none aborts
                armed = False
                row["status"] = "error"
                row["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            row["elapsed_s"] = time.perf_counter() - start
            row["seconds"], row["norm_s"] = sampler.stop()
            row["rss_mb"] = peak_rss_mb()
            if row["status"] == "ok":
                extras = report.data["extras"]
                row["verdicts"] = report.verdicts
                row["extras"] = {k: extras.get(k) for k in
                                 ("direct_sum", "mu_residues", "contains_unit")}
                row["sha256"] = hashlib.sha256(
                    report.to_json().encode()).hexdigest()
            out.write(json.dumps(row) + "\n")
            out.flush()

    info = _std_cached.cache_info()
    final = {
        "std_cache": {"hits": info.hits, "misses": info.misses,
                      "currsize": info.currsize, "maxsize": info.maxsize},
        "caches_at_end": module_cache_sizes(),
    }
    if tracer is not None:
        final["trace"] = {
            "metrics": tracer.metrics(),
            "top_level_s": tracer.top_level_seconds(),
            "spans": tracer.spans,
        }
    with open(prefix + ".final.json", "w") as f:
        json.dump(final, f)


if __name__ == "__main__":
    main(sys.argv[1])
