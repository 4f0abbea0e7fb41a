"""The sigmaprod benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload decompose_deep --seed 1 --seconds 16 --trace 0

A single client sends each request only after the previous one has
returned, in this process, through ``sigmaprod.cli.dispatch`` + ``render``
(or the public library functions for ``library_batch``).  Inputs come from
the seed; input files are written under ``.bench_tmp/`` and removed at the
end.  A run is a fixed number of request blocks, sized so that it is busy
for about ``--seconds`` at the reference host speed (``hostspeed.py``); all
wall times are rescaled to that speed.  Every answer is graded against
``reference.py`` outside the timed region.  The last line of standard output
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same requests are run untraced and then traced, and the metrics are the
per-layer ones from ``tracing.py``.  The line before the result holds the
details: sample count, raw wall times, failure causes, the SHA-256 of the
rendered outputs in request order, and the self-checks.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from itertools import islice
from pathlib import Path

import hostspeed
import reference as ref
import tracing
import workloads

ROOT = Path.cwd()
TMP = ".bench_tmp"
TRACE_OUT = ".bench_out"
SETUP_REPEATS = 3        # set-up samples before the timed loop
SETUP_INTERVAL_S = 3.0   # then one more per this much busy time, spread over the run
SELFCHECK_REQUESTS = 40

# blocks_per_s: request blocks (workloads.py) per second of --seconds, so
# that a run is busy for about --seconds at the reference speed; a run's
# requests, and so its counts, digest and failures, depend only on the seed
# and --seconds, never on how fast the program is.
# warmup: requests from a separate seed stream, run before timing.
CONFIG = {
    "decompose_deep": {"blocks_per_s": 0.5, "warmup": 6},
    "uec_pipeline": {"blocks_per_s": 3.2, "warmup": 6},
    "cli_mix": {"blocks_per_s": 6.3, "warmup": 50},
    "library_batch": {"blocks_per_s": 25.0, "warmup": 16},
}

# answer corruptions for the self-check that grading is live
CORRUPT = {
    "classify": lambda out: out.update(
        outcome="NOT_HOMEOMORPHIC" if out["outcome"] == "HOMEOMORPHIC" else "HOMEOMORPHIC"),
    "decompose": lambda out: out["pieces"].pop(),
    "uec_pipeline": lambda out: out["points"][0]["per_coordinate"][0]["bits"].__setitem__(
        0, 1 - out["points"][0]["per_coordinate"][0]["bits"][0]),
    "uec_preimage": lambda out: out.update(count=0),
    "classify_row": lambda out: out[0].__setitem__(
        0, "NOT_HOMEOMORPHIC" if out[0][0] == "HOMEOMORPHIC" else "HOMEOMORPHIC"),
    "operator": lambda out: out["rao"].__setitem__(0, False),
}


def load_program():
    """Import sigmaprod from this checkout's ``src``; None if it is not here."""
    src = ROOT / "src"
    if not (src / "sigmaprod" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import sigmaprod  # noqa: F401
    from sigmaprod import averaging, classification, cli, clopen, deltasystem, ground, uec
    return types.SimpleNamespace(averaging=averaging, classification=classification, cli=cli,
                                 clopen=clopen, deltasystem=deltasystem, ground=ground,
                                 uec=uec)


def measure_setup() -> tuple:
    """Wall time of a fresh interpreter importing sigmaprod and sigmaprod.cli,
    raw and rescaled by the host speed sampled just before and after."""
    code = "import sys; sys.path.insert(0, 'src'); import sigmaprod, sigmaprod.cli"
    before = hostspeed.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    raw = time.perf_counter() - t0
    after = hostspeed.sample()
    return raw, raw * hostspeed.REFERENCE_S * 2 / (before + after)


def execute(lib, req):
    if req.argv is not None:
        code, payload = lib.cli.dispatch(list(req.argv))
        return code, lib.cli.render(payload)
    return 0, req.call()


def grade(req, code, out):
    """None when the answer agrees with the reference, else the cause."""
    try:
        if req.argv is not None:
            return ref.CLI_GRADERS[req.kind](req.spec, code, json.loads(out))
        return ref.CALL_GRADERS[req.kind](req.spec, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed-output:{type(exc).__name__}"


def rendered(code, out) -> bytes:
    text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
    return f"{code}\n{text}\n".encode()


def write_files(req):
    for path, text in req.files:
        (ROOT / path).write_text(text)


class Tally:
    """Grades answers as they arrive and keeps the digest and a corruptible sample."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failures: dict = {}
        self.sample = None

    def add(self, req, code, out):
        self.digest.update(rendered(code, out))
        self.attempted += 1
        cause = grade(req, code, out)
        if cause is not None:
            self.failures[cause] = self.failures.get(cause, 0) + 1
        elif self.sample is None and req.kind in CORRUPT:
            self.sample = (req, code, out)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexplained(self) -> int:
        return sum(n for cause, n in self.failures.items() if not cause.startswith("known:"))

    def corruption_detected(self) -> bool:
        """Corrupt one answer that graded correct; the grader must now reject it."""
        if self.sample is None:
            return False
        req, code, out = self.sample
        bad = json.loads(out) if isinstance(out, str) else copy.deepcopy(out)
        CORRUPT[req.kind](bad)
        if isinstance(out, str):
            bad = json.dumps(bad)
        return grade(req, code, bad) is not None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(lib, requests, tally, run=None, tick=None):
    """Closed loop: time each request, grade it untimed.

    The host speed is sampled untimed after each ``hostspeed.INTERVAL_S`` of
    busy time, and ``tick`` is called untimed after each ``SETUP_INTERVAL_S``.
    Returns the raw latencies and the latencies rescaled to the reference
    speed, in seconds.
    """
    speed = hostspeed.Speed()
    speed.take()
    raw, marks = [], []
    since_sample = busy = 0.0
    next_tick = SETUP_INTERVAL_S
    for req in requests:
        write_files(req)
        t0 = time.perf_counter()
        code, out = run(lambda: execute(lib, req)) if run else execute(lib, req)
        dt = time.perf_counter() - t0
        raw.append(dt)
        marks.append(len(speed.samples))
        tally.add(req, code, out)
        busy += dt
        since_sample += dt
        if since_sample >= hostspeed.INTERVAL_S:
            speed.take()
            since_sample = 0.0
        if tick is not None and busy >= next_tick:
            tick()
            next_tick += SETUP_INTERVAL_S
    speed.take()
    return raw, [dt * speed.scale(m) for dt, m in zip(raw, marks)]


def stream(args, tmp, lib, part="timed"):
    return workloads.Stream(args.workload, args.seed, part, tmp, lib)


def run_blocks(args) -> int:
    return max(1, round(CONFIG[args.workload]["blocks_per_s"] * args.seconds))


def inputs_repeat(args, tmp, lib) -> bool:
    """Generating one seed twice gives identical inputs."""
    first, second = (
        [r.fingerprint() for r in islice(
            workloads.requests(args.workload, stream(args, tmp, lib)), SELFCHECK_REQUESTS)]
        for _ in range(2))
    return first == second


def metric(value, unit):
    return {"value": value, "unit": unit}


def warm_up(lib, args, tmp):
    """Run the warm-up stream, then drop what it cached."""
    count = CONFIG[args.workload]["warmup"]
    warm = workloads.requests(args.workload, stream(args, tmp, lib, "warmup"))
    run_loop(lib, islice(warm, count), Tally())
    lib.classification.normal_form.cache_clear()


def end_to_end(lib, args, tmp):
    setup = [measure_setup() for _ in range(SETUP_REPEATS)]
    warm_up(lib, args, tmp)
    tally = Tally()
    raw, lat = run_loop(lib, workloads.requests(args.workload, stream(args, tmp, lib),
                                                run_blocks(args)),
                        tally, tick=lambda: setup.append(measure_setup()))
    rss = peak_rss_mb()
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "throughput_rps": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(p90 * 1e3, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(s for _raw, s in setup), "s"),
    }
    details = {
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "busy_s": sum(lat),
        "raw": {"busy_s": sum(raw),
                "throughput_rps": len(raw) / sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
                "setup_s": statistics.median(r for r, _s in setup)},
        "host_slowdown": sum(raw) / sum(lat),
        "failed_frac": metric(tally.failed / tally.attempted, "ratio"),
        "setup_samples_s": [s for _raw, s in setup],
    }
    return tally, metrics, details


def traced(lib, args, tmp):
    warm_up(lib, args, tmp)
    requests = list(workloads.requests(args.workload, stream(args, tmp, lib), run_blocks(args)))
    count = len(requests)
    normal_form = lib.classification.normal_form

    plain = Tally()
    plain_s = sum(run_loop(lib, requests, plain)[1])

    normal_form.cache_clear()
    tracer = tracing.Tracer()
    tracer.install(lib)
    tally = Tally()
    try:
        traced_s = sum(run_loop(lib, requests, tally, run=tracer.run)[1])
    finally:
        tracer.uninstall()
    info = normal_form.cache_info()
    tracer.write(ROOT / TRACE_OUT / f"spans-{args.workload}.bin",
                 {"workload": args.workload, "seed": args.seed, "requests": count})

    metrics = layer_metrics(tracer, info, traced_s, plain_s, count)
    details = {
        "requests": count,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "outputs_match_untraced": plain.digest.hexdigest() == tally.digest.hexdigest(),
        "spans": len(tracer.span_start),
        "spans_dropped": tracer.dropped,
    }
    return tally, metrics, details


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: tracing.Tracer, cache_info, traced_s, plain_s, count) -> dict:
    c = t.counters
    m = {}

    def s(name):
        m[f"{name}.self_s"] = metric(t.self_s(name), "s")

    def calls(name):
        m[f"{name}.calls"] = metric(t.n_calls(name), "count")

    s("cli.build_parser")
    calls("cli.dispatch")
    s("cli.handler")
    s("cli.render")
    calls("ground.point_in_ambient")
    s("ground.point_in_ambient")
    s("ground.parse")
    for fn in ("box_intersect", "box_is_empty", "box_contains", "box_subset", "box_reduce"):
        calls(f"clopen.{fn}")
        s(f"clopen.{fn}")
    m["clopen.boxes_built"] = metric(c["boxes_built"], "count")
    m["clopen.box_contains_per_sample"] = metric(
        _ratio(c["membership_contains"], c["membership_samples"]), "ratio")
    m["clopen.boxes_built_per_pair"] = metric(
        _ratio(c["disjoint_boxes"], c["disjoint_pairs"]), "ratio")
    m["clopen.box_intersect.share_of_disjoint"] = metric(
        _ratio(t.incl_s("clopen.box_intersect"),
               t.incl_s("classification.check_pairwise_disjoint")), "ratio")
    calls("classification.classify")
    m["classification.classify.self_us_per_call"] = metric(
        _ratio(t.self_s("classification.classify") * 1e6, t.n_calls("classification.classify")),
        "us")
    m["classification.normal_form.hit_ratio"] = metric(
        _ratio(cache_info.hits, cache_info.hits + cache_info.misses), "ratio")
    for fn in ("cb_invariants", "decompose", "check_pairwise_disjoint", "check_sample_membership",
               "limit_neighborhood_boxes", "check_limit_cofinite", "decomposition_to_json"):
        s(f"classification.{fn}")
    calls("uec.phi_preimage")
    s("uec.phi_preimage")
    m["uec.phi_preimage.solutions"] = metric(c["preimage_solutions"], "count")
    s("uec.best_phi_preimage")
    m["uec.best_of_candidates"] = metric(
        _ratio(t.n_calls("uec.best_phi_preimage"), c["best_candidates"]), "ratio")
    calls("uec.phi")
    s("uec.pipeline_check")
    for fn in ("build_operator", "check", "apply", "operator_to_json"):
        s(f"averaging.{fn}")
    calls("averaging.build_operator")
    s("deltasystem.extract_exact")
    s("deltasystem.extract_greedy")
    calls("deltasystem.extract_delta_system")
    s("deltasystem.common_point_witness")
    total = t.incl_s(tracing.ROOT)
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_share"] = metric(_ratio(t.layer_self_s(layer), total), "ratio")
    m["cli.build_parser.self_share"] = metric(_ratio(t.self_s("cli.build_parser"), total), "ratio")
    m["trace.requests"] = metric(count, "count")
    m["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    m["trace.overhead_frac"] = metric(_ratio(traced_s - plain_s, plain_s), "ratio")
    m["trace.uninstrumented_s"] = metric(t.self_s(tracing.ROOT), "s")
    m["trace.uninstrumented_share"] = metric(_ratio(t.self_s(tracing.ROOT), total), "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    lib = load_program()
    if lib is None:
        print(f"bench: no sigmaprod sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    tmp = f"{TMP}/{args.workload}-{args.seed}"
    shutil.rmtree(ROOT / tmp, ignore_errors=True)
    (ROOT / tmp).mkdir(parents=True)
    try:
        repeat_ok = inputs_repeat(args, tmp, lib)
        tally, metrics, details = (traced if args.trace else end_to_end)(lib, args, tmp)
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
        try:
            (ROOT / TMP).rmdir()  # only when no other run still uses it
        except OSError:
            pass

    corruption_ok = tally.corruption_detected()
    traced_ok = details.get("outputs_match_untraced", True)
    correct = repeat_ok and corruption_ok and traced_ok and tally.unexplained == 0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **details,
        "failures": tally.failures,
        "digest": tally.digest.hexdigest(),
        "selfcheck": {"inputs_repeat": repeat_ok, "corruption_detected": corruption_ok},
        "python": sys.version.split()[0],
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
