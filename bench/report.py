"""Traced-run report: every per-layer metric on every workload.

Usage, from the root of a source checkout:

    python3 bench/report.py --seed 1 --seconds 16 --out bench/TRACE_REPORT.md

Runs ``run.py --trace 1`` once per workload, one after another, and writes a
Markdown report: the per-layer table, the tracing overhead and the
uninstrumented time, whether each workload's dominant layer is the predicted
one, and the ROADMAP baseline rows the workloads reproduce.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

# the layer (or layers, summed) predicted to hold the largest self-time share
DOMINANT = {
    "decompose_deep": ("clopen", "ground"),
    "uec_pipeline": ("uec",),
    "cli_mix": ("cli.build_parser",),
    "library_batch": ("classification", "averaging"),
}

# ROADMAP.md baseline rows: (label, workload, metric, ROADMAP value)
BASELINE = (
    ("classify, µs per call (ROADMAP: 5.9 µs over 1.56 M pairs)",
     "library_batch", "classification.classify.self_us_per_call", 5.9),
    ("box_intersect share of the disjointness check (ROADMAP: 4.4 s of 5.6 s at depth 80)",
     "decompose_deep", "clopen.box_intersect.share_of_disjoint", 4.4 / 5.6),
)


def shares(metrics: dict) -> dict:
    """Self-time share per layer, with cli.build_parser split out of cli."""
    out = {layer: metrics[f"layer.{layer}.self_share"]["value"] for layer in tracing.LAYERS}
    out["cli.build_parser"] = metrics["cli.build_parser.self_share"]["value"]
    out["cli"] -= out["cli.build_parser"]
    out["uninstrumented"] = metrics["trace.uninstrumented_share"]["value"]
    return out


def dominance(workload: str, metrics: dict) -> tuple:
    """(predicted share, largest other share and its name, holds)."""
    s = shares(metrics)
    predicted = sum(s[name] for name in DOMINANT[workload])
    others = {k: v for k, v in s.items() if k not in DOMINANT[workload]}
    rival = max(others, key=others.get)
    return predicted, rival, others[rival], predicted > others[rival]


def fmt(value) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--out", default=None, help="Markdown file (default: stdout)")
    args = parser.parse_args()

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2]), json.loads(lines[-1]))

    names = list(workloads.WORKLOADS)
    first = results[names[0]][1]["metrics"]
    lines = [f"# Traced run, seed {args.seed}, --seconds {args.seconds}", "",
             f"Python {results[names[0]][0]['python']}.  Each column is one `run.py --trace 1` "
             "run: the same requests run untraced, then traced.", ""]
    lines += ["| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for metric in first:
        row = [fmt(results[n][1]["metrics"][metric]["value"]) for n in names]
        lines.append(f"| `{metric}` | {first[metric]['unit']} | " + " | ".join(row) + " |")

    lines += ["", "## Runs", "", "| workload | requests | untraced s | traced s | overhead "
              "| uninstrumented share | failed / attempted | correct |", "|---|---|---|---|---|---|---|---|"]
    for n in names:
        det, res = results[n]
        m = res["metrics"]
        lines.append(f"| {n} | {det['requests']} | {det['untraced_s']:.3f} | {det['traced_s']:.3f} "
                     f"| {m['trace.overhead_frac']['value']:.1%} "
                     f"| {m['trace.uninstrumented_share']['value']:.1%} "
                     f"| {res['failed']} / {res['attempted']} | {res['correct']} |")

    lines += ["", "## Dominant layer", "",
              "| workload | predicted | its share | largest other | its share | holds |",
              "|---|---|---|---|---|---|"]
    for n in names:
        predicted, rival, rival_share, holds = dominance(n, results[n][1]["metrics"])
        lines.append(f"| {n} | {' + '.join(DOMINANT[n])} | {predicted:.1%} | {rival} "
                     f"| {rival_share:.1%} | {'yes' if holds else 'NO'} |")

    lines += ["", "## ROADMAP baseline rows", "", "| row | measured | ROADMAP |", "|---|---|---|"]
    for label, workload, metric, roadmap in BASELINE:
        value = results[workload][1]["metrics"][metric]["value"]
        lines.append(f"| {label} | {fmt(value)} ({workload}) | {fmt(roadmap)} |")

    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
