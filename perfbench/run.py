"""Benchmark of logres: time to a verdict for each germ, from a fresh process.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary each

A closed loop with one caller and no threads: each germ is analysed through
``logres.criteria.analyze_text`` after the previous one returns, on the
package source in ``src/`` of the checkout this file sits in.  Every pass of
a workload starts a fresh interpreter (``worker.py``), so the package's
module-level caches start empty, as they do for a ``logres analyze`` user;
the worker checks that they are empty before its first call.  Passes are
repeated while the next one is expected to end within ``--seconds``, at
least one.  Every verdict is checked against the expected table of
``workloads.py``.

End-to-end metrics (``--trace 0``), each the median over the passes:

* ``setup_s``: start a fresh interpreter and ``import logres``, normalised
  by a bare interpreter start (``speed.py``); the median of
  ``SETUP_PROBES`` starts.
* ``wall_s``: the seconds of all calls of a pass, normalised to a reference
  CPU speed (``speed.py``; the raw seconds go to the results file).  A
  failed call is charged its deadline.
* ``germ_s.geomean``: geometric mean of the same per-call seconds, so every
  germ weighs the same.
* ``ok_frac``: calls that finished with the expected verdicts, over calls
  attempted.  A failure is an exception, a deadline hit or a verdict that
  contradicts the table; the summary prints its complement ``failed_frac``.
* ``decided_frac``: share of (call x 7 verdict keys) that are not
  ``undecided``; every key of a failed call counts as undecided.
* ``peak_rss_mb``: peak resident memory of the pass's process (``VmHWM``).

``--trace 1`` runs one untraced pass and then one pass with the tracer of
``tracer.py`` installed, and reports per-layer metrics from the traced one:
``<module>.<function>.calls``, ``.self_s`` (raw seconds) and ``.errors``
for each traced function, the total output size of ``standard_basis``, the hit ratio of the
standard-basis cache, the traced ``wall_s`` over the untraced one
(``trace.overhead``) and the share of the traced pass's measured call time
that the outermost ``criteria.analyze`` spans cover
(``trace.analyze_share``; a timed-out call counts as measured, not as
charged).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is false
when a finished call contradicts its table.  Per-call times, statuses and
the sha256 of each default JSON report, the cache counters, provenance and,
for a traced run, the exact call counts of ``standard_basis`` and
``mora_nf`` go to ``.perfbench/results/``; trace spans go next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)  # the expected tables reuse logres.corpus
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9
# A run must end within 180 s; passes share what is left of this budget.
RUN_BUDGET_S = 165.0


# Children run without the site module (-S): a .pth hook of the host's
# site-packages can double the start-up time and its noise, and the package
# needs only the standard library.  They keep their bytecode, as an
# installed package does.
PYTHON = [sys.executable, "-S"]


def child_env():
    # a fixed string hash keeps set and dict orders, and so the engine's call
    # counts, the same in every run
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup():
    """Normalised seconds to start an interpreter and import the package:
    the median ratio of an importing start to a bare start just before it,
    times ``speed.REF_START_S``; and the raw seconds of every start."""
    cmd = PYTHON + ["-c", "import logres"]
    bare = PYTHON + ["-c", "pass"]
    subprocess.run(cmd, env=child_env(), check=True)  # write bytecode once
    samples = []
    for _ in range(SETUP_PROBES):
        pair = []
        for argv in (bare, cmd):
            start = time.perf_counter()
            subprocess.run(argv, env=child_env(), check=True)
            pair.append(time.perf_counter() - start)
        samples.append(pair)
    ratio = statistics.median(full / empty for empty, full in samples)
    return ratio * speed.REF_START_S, samples


def run_pass(calls, deadlines, trace, prefix, budget):
    """Run one pass in a fresh worker; kill it after `budget` seconds.
    Returns the per-call rows (missing calls filled in as killed) and the
    worker's final record, or None when it did not finish."""
    spec = {"calls": [dict(c, deadline=d) for c, d in zip(calls, deadlines)],
            "trace": trace, "src": SRC, "out": prefix}
    with open(prefix + ".spec.json", "w") as f:
        json.dump(spec, f)
    with open(prefix + ".stderr", "w") as err:
        proc = subprocess.Popen(
            PYTHON + [os.path.join(HERE, "worker.py"), prefix + ".spec.json"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code not in (0, None):
        with open(prefix + ".stderr") as f:
            sys.stderr.write(f.read())
        raise SystemExit(f"worker failed with exit code {code}")
    rows = []
    if os.path.exists(prefix + ".calls.jsonl"):
        with open(prefix + ".calls.jsonl") as f:
            rows = [json.loads(line) for line in f if line.endswith("\n")]
    for i in range(len(rows), len(calls)):
        rows.append({"i": i, "status": "killed", "seconds": deadlines[i],
                     "norm_s": deadlines[i], "elapsed_s": deadlines[i]})
    final = None
    if code == 0:
        with open(prefix + ".final.json") as f:
            final = json.load(f)
    return rows, final


def score_pass(calls, deadlines, rows):
    """Check each call's verdicts, charge it, and sum up the pass.  A failed
    call is charged its deadline, as missing any latency limit: fixing a
    defect that fails fast then cannot read as a slowdown, nor a new fast
    failure as a speed-up."""
    charged, failures, decided = [], [], 0
    for call, deadline, row in zip(calls, deadlines, rows):
        detail = row.get("error", "")
        if row["status"] == "ok":
            wrong = workloads.mismatches(call, row["verdicts"], row["extras"])
            if wrong:
                row["status"], detail = "mismatch", "; ".join(wrong)
        if row["status"] == "ok":
            row["charged_s"] = row["norm_s"]
            decided += sum(row["verdicts"][k] != "undecided"
                           for k in workloads.VERDICT_KEYS)
        else:
            row["charged_s"] = deadline
            failures.append((call["label"], row["status"], detail))
        charged.append(row["charged_s"])
    return {
        "wall_s": sum(charged),
        "raw_wall_s": sum(row["seconds"] for row in rows),
        "measured_s": sum(row["elapsed_s"] for row in rows),
        "geomean_s": math.exp(statistics.fmean(math.log(s) for s in charged)),
        "failures": failures,
        "mismatches": sum(1 for f in failures if f[1] == "mismatch"),
        "decided": decided,
        "rows": rows,
    }


def provenance():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "logres")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = None  # a checkout without .git is identified by src_sha256
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def run_workload(name, seed, seconds, trace, calls=None, deadlines=None):
    """Run one workload and return its result record."""
    started = time.monotonic()
    prov = provenance()
    if calls is None:
        calls = workloads.build(name, seed)
    if deadlines is None:
        deadlines = [workloads.DEADLINE_S[name]] * len(calls)
    work = os.path.join(OUT, "work", f"{name}-{seed}-{trace}-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    setup_s, setup_samples = measure_setup()

    # --trace 1: one untraced pass, then one traced pass.  Otherwise passes
    # repeat while the next one is expected to end within `seconds`.
    def left():
        return RUN_BUDGET_S - (time.monotonic() - started)

    passes, rss = [], []
    passes_started = time.monotonic()
    while True:
        rows, final = run_pass(calls, deadlines, False,
                               os.path.join(work, f"pass{len(passes)}"),
                               left() / 2 if trace else left())
        scored = score_pass(calls, deadlines, rows)
        scored["std_cache"] = final["std_cache"] if final else None
        passes.append(scored)
        peaks = [row["rss_mb"] for row in rows if "rss_mb" in row]
        # a worker killed in its first call leaves no reading; the largest
        # child so far bounds it
        rss.append(max(peaks) if peaks else resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        if final is None or trace:
            break
        elapsed = time.monotonic() - passes_started
        if elapsed + elapsed / len(passes) > min(seconds, left()):
            break
    traced = None
    if trace:
        rows, traced = run_pass(calls, deadlines, True,
                                os.path.join(work, "traced"), left())
        traced_scored = score_pass(calls, deadlines, rows)
    shutil.rmtree(work, ignore_errors=True)

    attempted = len(calls) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    decided = sum(p["decided"] for p in passes)
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "correct": all(p["mismatches"] == 0 for p in passes),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup_samples,
        "passes": [{"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
                    "geomean_s": p["geomean_s"],
                    "failures": p["failures"]} for p in passes],
        "calls": [{"label": c["label"], "vars": c["vars"], "poly": c["poly"],
                   "factors": c["factors"], "seed": c["seed"],
                   "deadline_s": d,
                   "status": [p["rows"][i]["status"] for p in passes],
                   "seconds": [p["rows"][i]["charged_s"] for p in passes],
                   "raw_s": [p["rows"][i]["seconds"] for p in passes],
                   "sha256": passes[0]["rows"][i].get("sha256")}
                  for i, (c, d) in enumerate(zip(calls, deadlines))],
        "std_cache": [p["std_cache"] for p in passes],
        "provenance": prov,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "germ_s.geomean": (statistics.median(p["geomean_s"] for p in passes),
                           "s"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "decided_frac": (decided / (attempted * len(workloads.VERDICT_KEYS)),
                         "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    if trace:
        if traced is None:
            raise SystemExit("the traced pass did not finish within the budget")
        result["end_to_end"] = metrics
        result["traced_wall_s"] = traced_scored["wall_s"]
        metrics = layer_metrics(traced, traced_scored, metrics["wall_s"][0])
        result["determinism"] = {
            key: metrics[key][0] for key in ("groebner.standard_basis.calls",
                                             "groebner.mora_nf.calls")}
        with open(os.path.join(results, f"{name}-seed{seed}-spans.json"),
                  "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": traced["trace"]["spans"]}, f)
    result["metrics"] = metrics
    with open(os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as f:
        json.dump(result, f, indent=1)
    return result


def layer_metrics(final, scored, untraced_wall):
    """Per-layer metrics of a traced pass."""
    layer = {k: tuple(v) for k, v in final["trace"]["metrics"].items()}
    cache = final["std_cache"]
    layer["groebner.std_ideal.hit_ratio"] = (
        cache["hits"] / (cache["hits"] + cache["misses"]), "ratio")
    layer["trace.overhead"] = (scored["wall_s"] / untraced_wall, "ratio")
    layer["trace.analyze_share"] = (
        final["trace"]["top_level_s"] / scored["measured_s"], "ratio")
    return layer


def print_summary(result):
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"passes {len(result['passes'])}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed_frac']:.4f} ratio")
    shown = result.get("end_to_end", result["metrics"])
    if result["trace"]:
        shown = dict(shown, **result["metrics"])
    for key, (value, unit) in shown.items():
        print(f"  {key:50s} {value:14.6f} {unit}")
    seen = set()
    for p in result["passes"]:
        for label, status, detail in p["failures"]:
            if (label, status) not in seen:
                seen.add((label, status))
                print(f"  failed: {label}: {status} {detail}".rstrip())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logres", "__init__.py")):
        sys.exit(f"no logres source tree at {SRC}")
    speed.pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(result)
        results.append(result)
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}
    if len(results) == 1:
        line["metrics"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in results[0]["metrics"].items()}
    else:
        line["metrics"] = {f"{r['workload']}.{k}": {"value": v, "unit": u}
                           for r in results for k, (v, u) in r["metrics"].items()}
    print(json.dumps(line))


if __name__ == "__main__":
    main()
