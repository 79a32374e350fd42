"""The fdl benchmark: CLI operations in-process, end to end and per layer.

    python3 bench/run.py --workload fixpoint --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each operation is one ``fdl.cli.main(argv)``
call on generated JSON files: argument parsing, document load, concept
parsing, the computation and output formatting.  One caller runs the
round's operations in a fixed order, one after another (a closed loop),
and repeats whole rounds until ``--seconds`` have passed.  ``gc.collect()``,
the machine-speed probe and the answer check of each operation run between
operations, outside the timed region.

Reported times are scaled to a fixed machine speed: each operation's wall
time is multiplied by ``PROBE_S / p``, where ``p`` is the mean time of
``probe()`` run after the previous operation and right after this one.  The machine this was
built on changes speed by 10-30% within seconds; the scaled times repeat
within a few percent (see the README).  Raw wall times are kept in the
results file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps ``fdl``'s
layers in spans (``spans.py``), runs the same loop, then one counted pass
of one round, and prints the per-layer metrics.  The last line
of standard output is one JSON object; details go to ``bench/out/results``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("bench", "out")
SETUP_RUNS = 5

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "cli.output": "cli.output_s",
    "parsing.parse": "parsing.parse_s",
    "interp.load": "interp.load_s",
    "interp.eval": "interp.eval_s",
    "kb.validate": "kb.validate_s",
    "bisim.fixpoint": "bisim.fixpoint_s",
    "minimize.partition": "minimize.partition_s",
    "minimize.quotient": "minimize.quotient_s",
    "minimize.prune": "minimize.prune_s",
}
# count metric -> (span names, count field)
COUNT_METRICS = {
    "bisim.fraction_calls": (("bisim.fixpoint",), "fraction_calls"),
    "bisim.py_calls": (("bisim.fixpoint",), "py_calls"),
    "interp.fraction_calls": (("interp.load", "interp.eval"), "fraction_calls"),
    "interp.py_calls": (("interp.load", "interp.eval"), "py_calls"),
    "minimize.py_calls": (("minimize.partition", "minimize.quotient"), "py_calls"),
}
# peak metric -> span name
PEAK_METRICS = {
    "interp.load_peak_kb": "interp.load",
    "interp.eval_peak_kb": "interp.eval",
    "bisim.fixpoint_peak_kb": "bisim.fixpoint",
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# seconds of probe() that scaled times refer to: a round figure for the
# reference machine (README)
PROBE_S = 0.008
_PROBE_DEGREES = [Fraction(k, 100) for k in range(1, 101)]


def probe() -> float:
    """Seconds of a fixed pure-Python loop of Fraction comparisons."""
    start = time.perf_counter()
    hits = 0
    for _ in range(6):
        for a in _PROBE_DEGREES:
            for b in _PROBE_DEGREES[::7]:
                if a < b:
                    hits += 1
    return time.perf_counter() - start


def setup_once(workload: str, seed: int, inputs_dir: str, src: str) -> tuple:
    """Wall seconds of one fresh set-up process, raw and scaled."""
    env = dict(os.environ, PYTHONPATH=src)
    before = probe()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
         "--seed", str(seed), "--out", inputs_dir],
        env=env, capture_output=True, text=True, timeout=150,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed, elapsed * 2 * PROBE_S / (before + probe())


class Loop:
    """Runs rounds of operations and keeps one record per operation."""

    def __init__(self, ops: List[dict], fdl_main, checker):
        self.ops, self.fdl_main, self.checker = ops, fdl_main, checker
        self.records: List[dict] = []
        self.wrong: List[str] = []
        self._probe = probe()

    def round(self, tracer=None) -> None:
        for op in self.ops:
            gc.collect()
            before = self._probe
            seq = len(self.records)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.fdl_main(op["argv"], out=out, err=err)
                else:
                    rc = tracer.call(seq, self.fdl_main, op["argv"], out=out, err=err)
                elapsed = time.perf_counter() - start
            except Exception:  # an operation that raises is a failed operation
                self._probe = probe()
                self.records.append({"op": op["id"], "kind": op["kind"], "seconds": None,
                                     "scale": 1.0, "failed": "raised"})
                print(f"op {op['id']} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            self._probe = probe()
            verdict = self.checker.check(op, rc, out.getvalue())
            if verdict is not None:
                self.wrong.append(f"op {op['id']} ({op['kind']}): {verdict}")
            failed = "exit 2" if rc == 2 else ("wrong answer" if verdict else None)
            self.records.append({"op": op["id"], "kind": op["kind"], "seconds": elapsed,
                                 "scale": 2 * PROBE_S / (before + self._probe), "failed": failed})

    def run_for(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            self.round(tracer)
            if time.perf_counter() - start >= seconds:
                return

    def times(self, scaled: bool = True) -> List[float]:
        return [r["seconds"] * (r["scale"] if scaled else 1.0)
                for r in self.records if not r["failed"]]

    def median_op(self, scaled: bool = True) -> float:
        """The median over the round's operations of each one's median time.

        Single samples vary by 10-15% even when scaled, and the round's
        operations differ in cost, so the median of all samples can fall
        into the gap between two operations; the median of per-operation
        medians cannot.
        """
        per_op: Dict[int, List[float]] = defaultdict(list)
        for r in self.records:
            if not r["failed"]:
                per_op[r["op"]].append(r["seconds"] * (r["scale"] if scaled else 1.0))
        return statistics.median(statistics.median(v) for v in per_op.values())


def end_to_end(loop: Loop, setup: List[tuple]) -> Dict[str, dict]:
    times = loop.times()
    return {
        "ops_per_s": _metric(len(times) / sum(times), "ops/s"),
        "op_s_p50": _metric(loop.median_op(), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(scaled for _raw, scaled in setup), "s"),
    }


def layer_times(loop: Loop, spans) -> Dict[str, Dict[str, float]]:
    """Self seconds per operation, for all operations and per kind."""
    from spans import self_times

    per_seq = self_times(spans)
    groups: Dict[str, List[int]] = defaultdict(list)
    for seq, record in enumerate(loop.records):
        groups["all"].append(seq)
        groups[record["kind"]].append(seq)
    out = {}
    for group, seqs in groups.items():
        out[group] = {
            metric: sum(per_seq[seq].get(span, 0.0) * loop.records[seq]["scale"]
                        for seq in seqs) / len(seqs)
            for span, metric in SPAN_METRICS.items()
        }
    return out


def counted_pass(loop: Loop, tracer) -> Dict[str, Dict[str, float]]:
    """Counts per operation over one round, for all operations and per kind."""
    first = len(loop.records)
    tracer.start_counting()
    loop.round(tracer)
    counts = tracer.stop_counting()
    groups: Dict[str, List[int]] = defaultdict(list)
    for seq in range(first, len(loop.records)):
        groups["all"].append(seq)
        groups[loop.records[seq]["kind"]].append(seq)
    out = {}
    for group, seqs in groups.items():
        values = {}
        for metric, (spans, field) in COUNT_METRICS.items():
            total = sum(counts.get((seq, span), {}).get(field, 0) for seq in seqs for span in spans)
            values[metric] = total / len(seqs)
        for metric, span in PEAK_METRICS.items():
            values[metric] = max(tracer.peaks_kb.get((seq, span), 0.0) for seq in seqs)
        out[group] = values
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "fdl", "cli.py")):
        print("bench/run.py: no fdl sources under ./src; run it from the repository root",
              file=sys.stderr)
        return 2
    inputs_dir = os.path.join(OUT, "inputs", f"{args.workload}-{args.seed}")
    setup = [setup_once(args.workload, args.seed, inputs_dir, src) for _ in range(SETUP_RUNS)]

    sys.path.insert(0, src)
    import fdl.cli
    from checks import Checker

    with open(os.path.join(inputs_dir, "manifest.json"), encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    loop = Loop(ops, fdl.cli.main, Checker())
    loop.round()  # warm-up round: checked, not counted
    warm = len(loop.records)
    loop.records.clear()

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "setup_runs_s": setup, "warm_up_ops": warm}
    if args.trace == 0:
        loop.run_for(args.seconds)
        metrics = end_to_end(loop, setup)
        raw = loop.times(scaled=False)
        result["raw"] = {"ops_per_s": len(raw) / sum(raw), "op_s_p50": loop.median_op(scaled=False),
                         "setup_s": statistics.median(r for r, _scaled in setup)}
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            loop.run_for(args.seconds, tracer)
            timed = len(loop.records)
            layers = layer_times(loop, tracer.spans)
            result["traced_op_s_p50"] = loop.median_op()
            result["traced_raw_op_s_p50"] = loop.median_op(scaled=False)
            spans = [(s.name, s.start, s.end, s.parent, s.op) for s in tracer.spans]
            counted = counted_pass(loop, tracer)
        finally:
            tracer.uninstall()
        for group, values in counted.items():
            layers[group].update(values)
        result["layers"] = layers
        del loop.records[timed:]  # counted passes are not timed operations
        metrics = {
            name: _metric(value, "s" if name.endswith("_s") else
                          "KiB" if name.endswith("_kb") else "calls/op")
            for name, value in layers["all"].items()
        }
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-spans.json"),
                  "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, handle)

    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if r["failed"])
    result.update(metrics=metrics, attempted=attempted, failed=failed, wrong=loop.wrong,
                  records=loop.records)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("raw", {}).items():
        print(f"{name + ' (raw wall)':24s} {value:.6g}")
    if args.trace:
        for group, values in sorted(result["layers"].items()):
            if group != "all":
                print(f"kind {group}: " + ", ".join(f"{k}={v:.4g}" for k, v in values.items() if v))
        print(f"traced op_s_p50 {result['traced_op_s_p50']:.6g} s "
              f"(raw wall {result['traced_raw_op_s_p50']:.6g} s)")
    for line in loop.wrong[:5]:
        print("wrong answer:", line)
    print(json.dumps({"correct": not loop.wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
