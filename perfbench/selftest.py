"""Self-test of the benchmark runner on a three-germ slice.

    python3 perfbench/selftest.py

It injects a verdict mismatch (an expectation override, as
``logres.corpus.run_corpus(expected_overrides=...)`` takes) and a timeout (a
deadline far below the germ's run time), and checks that each is counted as
a failure and charged its deadline, that neither stops the pass, and that
the traced pass ends the timed-out span without counting it as an error.
Exits 0 when every check holds.
"""

from __future__ import annotations

import sys

import run
import workloads

SLICE = ("node", "cusp", "two-lines-m1")
EXPECTED_OVERRIDES = {"cusp": {"free": "false"}}
DEADLINE_OVERRIDES = {"node": 0.001}


def slice_calls():
    by = workloads._corpus()
    calls = [workloads._corpus_call(by[name]) for name in SLICE]
    for call in calls:
        call["expected"].update(EXPECTED_OVERRIDES.get(call["label"], {}))
    deadlines = [DEADLINE_OVERRIDES.get(c["label"], 30.0) for c in calls]
    return calls, deadlines


def main():
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    calls, deadlines = slice_calls()
    result = run.run_workload("selftest", 0, 0, False, calls, deadlines)
    statuses = [c["status"][0] for c in result["calls"]]
    check(statuses == ["timeout", "mismatch", "ok"],
          f"statuses timeout, mismatch, ok: {statuses}")
    check(result["attempted"] == 3 and result["failed"] == 2,
          f"2 of 3 calls failed: {result['failed']} of {result['attempted']}")
    check(abs(result["failed_frac"] - 2 / 3) < 1e-12,
          f"failed_frac 2/3: {result['failed_frac']}")
    check(abs(result["metrics"]["ok_frac"][0] - 1 / 3) < 1e-12,
          f"ok_frac 1/3: {result['metrics']['ok_frac'][0]}")
    check(result["correct"] is False, "a mismatch makes the run incorrect")
    charged = [c["seconds"][0] for c in result["calls"][:2]]
    check(charged == [DEADLINE_OVERRIDES["node"], 30.0],
          f"each failed call is charged its deadline: {charged}")
    check(result["calls"][2]["sha256"] is not None,
          "the call after both failures ran and has a report digest")

    traced = run.run_workload("selftest", 0, 0, True, calls, deadlines)
    layer = traced["metrics"]
    check(layer["criteria.analyze.calls"][0] == 3,
          f"3 traced analyze calls: {layer['criteria.analyze.calls'][0]}")
    check(layer["criteria.analyze.errors"][0] == 0,
          "the deadline is not counted as an error of the analyze it ended")
    check(0.9 < layer["trace.analyze_share"][0] <= 1.0,
          f"analyze spans cover the traced wall time: "
          f"{layer['trace.analyze_share'][0]:.4f}")

    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
