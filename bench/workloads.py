"""Seeded request streams for the four workloads.

Each workload is an endless stream of stratified blocks: a block has a fixed
composition of request kinds and size classes, and the seed draws the
parameters and the order inside it.  Fixing the composition keeps the cost
mix of a run nearly independent of the seed, so runs with different seeds
agree closely.  A run is a whole number of blocks (``requests``).

A request is data only (argv, input files, and the spec its grader needs);
library requests also carry the prepared objects they are called on, built
here so that object construction stays outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref

TAU_MAX_LEN = 6
TAU_TAILS = (0, 0, 0, 1, 2, ref.W)
RATIONAL_MAX_DEN = 40
POINT_MAX_DEN = 48
TAU_POOL_SIZE = 1000   # parsed taus shared by the classify rows of a stream
ROW_VARIANTS = 30      # fresh related taus in each classify row
# clopen requests per cli_mix block whose box meets the known parse_box defect
# (a repeated coordinate whose last constraint alone gives another answer than
# the merged ones); the other boxes may repeat coordinates harmlessly
DEFECT_BOXES = 2


@dataclass
class Request:
    kind: str
    spec: dict
    argv: list | None = None
    files: list = field(default_factory=list)  # (relative path, text)
    call: object = None                        # library requests: fn() -> result

    def fingerprint(self) -> str:
        return json.dumps([self.kind, self.spec, self.argv, self.files], sort_keys=True)


class Stream:
    """One workload's request stream; ``tmp`` is where its input files go."""

    def __init__(self, name: str, seed: int, part: str, tmp: str, lib):
        self.rng = random.Random(f"{name}/{seed}/{part}")
        self.tmp = tmp
        self.part = part
        self.lib = lib
        self.count = 0
        self.pool = None
        self._taus: dict = {}

    def tau(self, spec):
        """The parsed TauSequence of a tau spec; equal specs share one object."""
        key = (tuple(spec[0]), spec[1])
        if key not in self._taus:
            self._taus[key] = self.lib.ground.parse_tau(ref.tau_text(*spec))
        return self._taus[key]

    def path(self, suffix: str) -> str:
        self.count += 1
        return f"{self.tmp}/{self.part}-{self.count:05d}.{suffix}"


# ---------------------------------------------------------------------------
# generators shared by several workloads


def _tau(rng):
    vals = [rng.choice((0, 0, 1, 2, 3, ref.W)) for _ in range(rng.randint(0, TAU_MAX_LEN))]
    return [vals, rng.choice(TAU_TAILS)]


def _related_tau(rng, tau):
    """A variant sharing tau's invariants often, so every verdict rule occurs."""
    vals, tail = list(tau[0]), tau[1]
    i = ref.tau_invariants(vals, tail)[0]
    roll = rng.random()
    if roll < 0.35 and i != ref.W and i > 0:
        # rewrite at or below the omega-threshold: absorbed, same normal form
        for n in range(1, i):
            vals[n - 1] = rng.choice((0, 1, 3, ref.W))
        return [vals, tail]
    if roll < 0.6 and vals:
        vals[rng.randrange(len(vals))] = rng.choice((0, 1, 2, ref.W))
        return [vals, tail]
    return _tau(rng)


def _rational(rng):
    den = rng.randint(1, RATIONAL_MAX_DEN)
    return Fraction(rng.randint(0, den), den)


def _positive_point(rng, ncoords):
    """Labels to positive rationals with l1 norm at most 1."""
    den = rng.randint(ncoords, POINT_MAX_DEN)
    labels = rng.sample(range(12), ncoords)
    return {str(lab): ref.frac_text(Fraction(rng.randint(1, den // ncoords), den))
            for lab in labels}


def _family(rng, size, ground, lo, hi):
    """Distinct labels 0..size-1 mapped to random sets of size lo..hi."""
    return [[label, sorted(rng.sample(range(ground), rng.randint(lo, hi)))]
            for label in range(size)]


def _box_spec(rng, single_factor=None):
    """A random box; coordinates are drawn with replacement, so they may repeat."""
    if single_factor is not None:
        factors, tail = [single_factor], None
        coords = [0]
    else:
        factors = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        tail = rng.choice((None, 1, 2, 3)) if factors else rng.choice((1, 2, 3))
        coords = list(range(len(factors) + (2 if tail is not None else 0)))
    constraints = []
    for _ in range(rng.randint(1, 3)):
        s = rng.choice(coords)
        f = sorted(rng.sample(range(6), rng.choice((0, 1, 1, 2))))
        g = sorted(rng.sample(range(6), rng.choice((0, 1, 2))))
        constraints.append([s, f, g])
    return {"factors": factors, "tail": tail, "constraints": constraints}


def _decompose(rng, depth, kind=None, samples=100, boxes=10):
    seed = rng.randint(0, 10 ** 6)
    if kind is None:
        kind = rng.choice(((0, 2), (1, 2), (0, 3), (1, 3), (2, 3), "K"))
    if kind == "K":
        element = rng.randint(0, 9)
        spec = {"kind": "classif_K", "depth": depth, "samples": samples, "boxes": boxes}
        argv = ["decompose", "--kind", "classif_K", "--element", str(element)]
    else:
        m, n = kind
        spec = {"kind": "absorb_small", "m": m, "n": n, "depth": depth,
                "samples": samples, "boxes": boxes}
        argv = ["decompose", "--kind", "absorb_small", "--m", str(m), "--n", str(n)]
    argv += ["--depth", str(depth), "--samples", str(samples), "--boxes", str(boxes),
             "--seed", str(seed)]
    return Request("decompose", spec, argv)


def _uec_pipeline(st, ncoords, levels):
    points = [_positive_point(st.rng, ncoords)]
    path = st.path("json")
    spec = {"points": points, "levels": levels}
    return Request("uec_pipeline", spec,
                   ["uec", "pipeline", "--points-file", path, "--levels", str(levels)],
                   [(path, json.dumps(points))])


def _uec_preimage(rng, levels, brute_force=False, limit=None):
    target = ref.frac_text(_rational(rng))
    if limit is None:
        limit = rng.choice((5, 20, 50))
    spec = {"target": target, "levels": levels, "limit": limit, "brute_force": brute_force}
    return Request("uec_preimage", spec,
                   ["uec", "preimage", "--target", target, "--levels", str(levels),
                    "--limit", str(limit)])


# ---------------------------------------------------------------------------
# decompose_deep: the box algebra under the decomposition checks


def decompose_deep(st: Stream):
    rng = st.rng
    combos = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    # (0, 3) is left out of the tail: its cost varies most with the inner
    # seed, which would make p90 depend on the seed rather than the program
    deep = [(1, 3), (2, 3)]
    tail = itertools.count()
    for _block in itertools.count():
        depths = list(range(6, 19)) + [7, 10, 13, 16]
        kinds = combos * 3 + ["K", "K"]  # 17 kinds for the 17 moderate depths
        rng.shuffle(kinds)
        block = [_decompose(rng, d, k) for d, k in zip(depths, kinds)]
        # the deep tail sets p90, and its cost grows steeply with depth, so
        # every run walks the same cycle of the 26 (depth, kind) pairs
        for i in itertools.islice(tail, 3):
            block.append(_decompose(rng, 28 + i * 5 % 13, deep[i % 2]))
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# uec_pipeline: the level decoding and its preimage search


def uec_pipeline(st: Stream):
    """Sizes (coordinates, levels, listing limit) cycle with the block index,
    since the preimage search is exponential in the levels; the seed draws
    the points, the targets and the order."""
    rng = st.rng
    for b in itertools.count():
        block = [_uec_pipeline(st, 1 + (b + j) % 4, levels)
                 for j, levels in enumerate((10, 12, 14, 16, 17, 18))]
        for j, (lo, hi) in enumerate(((12, 15), (16, 18), (19, 21), (12, 21))):
            block.append(_uec_preimage(rng, lo + (b + j) % (hi - lo + 1),
                                       limit=(5, 20, 50)[(b + j) % 3]))
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# cli_mix: many small requests across every subcommand


def _classify_request(rng):
    gamma = rng.choice(("uncountable", "uncountable", "uncountable", "countable"))
    tau = _tau(rng)
    tau2 = _related_tau(rng, tau)
    spec = {"tau": tau, "tau2": tau2, "gamma": gamma}
    return Request("classify", spec, ["classify", "--tau", ref.tau_text(*tau),
                                      "--tau2", ref.tau_text(*tau2), "--gamma", gamma])


def _malformed(st):
    rng = st.rng
    choice = rng.randrange(8)
    if choice == 0:
        argv = ["classify", "--tau", f"{rng.randint(0, 9)},x", "--tau2", "1"]
    elif choice == 1:
        argv = ["uec", "preimage", "--target", f"{rng.randint(1, 9)}/0", "--levels", "4"]
    elif choice == 2:
        argv = ["uec", "preimage", "--target", f"{rng.randint(4, 9)}/3", "--levels", "4"]
    elif choice == 3:
        argv = ["cb", "--ks", f"{rng.randint(1, 4)},a"]
    elif choice == 4:
        argv = ["clopen", "empty", "--box", f"[0: F={{{rng.randint(0, 5)}}} G={{}}] 2"]
    elif choice == 5:
        argv = ["uec", "phi", "--bits", f"01{rng.randint(2, 9)}"]
    elif choice == 6:
        argv = [rng.choice(["avg", "uec", "ds", "clopen"])]
    else:
        path = st.path("json")
        return Request("malformed", {"case": "json"},
                       ["uec", "l0", "--bits-file", path], [(path, "[[0, 1], ")])
    return Request("malformed", {"case": choice}, argv)


def _witness_spec(rng, k, n):
    g_labels = rng.sample(range(20), rng.randint(2, 5))
    h_labels = rng.sample(range(20, 40), rng.randint(n + 2, n + 6))
    pool = g_labels + h_labels

    def sets(own, pinned):
        out = []
        for j in range(k + 1):
            chosen = [e for e in rng.sample(pool, rng.randint(0, 2)) if not (j == pinned and e == own)]
            out.append(sorted(chosen))
        return out

    return {"side_g": {str(l): sets(l, 0) for l in g_labels},
            "side_h": {str(l): sets(l, 1) for l in h_labels}}


def _cli_block(st):
    rng = st.rng
    block = [_classify_request(rng) for _ in range(7)]
    for _ in range(4):
        ks = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        block.append(Request("cb", {"ks": ks}, ["cb", "--ks", ",".join(map(str, ks))]))
    for _ in range(2):
        block.append(_decompose(rng, rng.randint(2, 5), samples=rng.randint(20, 50),
                                boxes=rng.randint(3, 8)))
    for action in ("build", "check", "apply") * 2:
        k, g = rng.randint(1, 2), rng.randint(1, 3)
        spec = {"k": k, "ground": g}
        argv = ["avg", action, "--k", str(k), "--ground", str(g)]
        files = []
        if action == "apply":
            spec["values"] = ref.avg_apply_values(k, g, rng)
            path = st.path("json")
            argv += ["--f", path]
            files = [(path, json.dumps(spec["values"]))]
        block.append(Request(f"avg_{action}", spec, argv, files))
    for _ in range(4):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 12))]
        levels = rng.choice((None, rng.randint(1, 14)))
        spec = {"bits": bits, "levels": levels or max(len(bits), 1)}
        argv = ["uec", "phi", "--bits", "".join(map(str, bits))]
        if levels is not None:
            argv += ["--levels", str(levels)]
        block.append(Request("uec_phi", spec, argv))
    block += [_uec_preimage(rng, rng.randint(3, 10), brute_force=True) for _ in range(3)]
    for _ in range(3):
        bits = [[rng.randint(0, 5), rng.randint(0, 6)] for _ in range(rng.randint(0, 10))]
        path = st.path("json")
        block.append(Request("uec_l0", {"bits": bits}, ["uec", "l0", "--bits-file", path],
                             [(path, json.dumps(bits))]))
    for _ in range(2):
        levels = rng.randint(1, 12)
        block.append(Request("uec_bounds", {"levels": levels},
                             ["uec", "bounds", "--levels", str(levels)]))
    block += [_uec_pipeline(st, rng.randint(1, 2), rng.randint(4, 8)) for _ in range(2)]
    for _ in range(3):
        members = _family(rng, rng.randint(2, 12), 8, 1, 3)
        petals = rng.randint(2, 4)
        path = st.path("txt")
        text = "".join(f"{label}: {{{','.join(map(str, s))}}}\n" for label, s in members)
        block.append(Request("ds_extract", {"members": members, "petals": petals},
                             ["ds", "extract", "--family", path, "--petals", str(petals)],
                             [(path, text)]))
    for _ in range(3):
        k, n = rng.randint(1, 2), rng.randint(1, 2)
        spec = _witness_spec(rng, k, n)
        path = st.path("json")
        block.append(Request("ds_witness", {**spec, "k": k, "n": n},
                             ["ds", "witness", "--spec", path, "--n", str(n), "--k", str(k)],
                             [(path, json.dumps(spec))]))
    actions = ["empty"] * 4 + ["reduce"] * 3 + ["preimage"] * 2
    exposed = set(rng.sample(range(len(actions)), DEFECT_BOXES))
    for slot, action in enumerate(actions):
        k = rng.randint(1, 3)
        while True:
            box = _box_spec(rng, single_factor=k if action == "preimage" else None)
            if ref.repeat_changes_answer(action, box) == (slot in exposed):
                break
        argv = ["clopen", action, "--box", ref.box_text(box)]
        if action == "preimage":
            argv += ["--k", str(k)]
        block.append(Request("clopen", {"action": action, "box": box}, argv))
    block += [_malformed(st) for _ in range(2)]
    rng.shuffle(block)
    return block


def cli_mix(st: Stream):
    while True:
        yield _cli_block(st)


# ---------------------------------------------------------------------------
# library_batch: public library calls whose cost the CLI path hides


def _tau_pool(st):
    """Parsed taus shared by the classify rows of one stream, built on first use."""
    if st.pool is None:
        specs = [_tau(st.rng) for _ in range(TAU_POOL_SIZE)]
        st.pool = [(t, st.tau(t)) for t in specs]
    return st.pool


def _classify_row(st):
    """One tau against 400 others on average: pool members plus fresh variants.

    Row sizes spread evenly over 150..650, so the median latency moves
    smoothly with the speed of the machine instead of jumping between modes.
    """
    rng = st.rng
    gamma = "countable" if rng.random() < 0.25 else "uncountable"
    tau = _tau(rng)
    pool = _tau_pool(st)
    picked = [pool[i] for i in rng.sample(range(len(pool)), rng.randint(120, 620))]
    variants = [_related_tau(rng, tau) for _ in range(ROW_VARIANTS)]
    others = [t for t, _obj in picked] + variants
    t0 = st.tau(tau)
    objs = [obj for _t, obj in picked] + [st.tau(t) for t in variants]
    classification = st.lib.classification

    def call():
        classify = classification.classify
        return [[v.outcome, v.rule] for v in (classify(t0, t, gamma) for t in objs)]

    return Request("classify_row", {"tau": tau, "others": others, "gamma": gamma}, call=call)


def _operator(st, k, g):
    averaging = st.lib.averaging

    def call():
        op = averaging.build_operator(k, g)
        rep = op.check()
        return {"codomain": len(op.codomain), "domain": len(op.domain),
                "terms": sum(len(row) for row in op.rows.values()),
                "rao": [rep.unital, rep.positive, rep.section, rep.fiber_supported]}

    return Request("operator", {"k": k, "ground": g}, call=call)


def _delta(st, size, ground, lo, hi):
    rng, lib = st.rng, st.lib
    members = _family(rng, size, ground, lo, hi)
    petals = rng.randint(2, 5)
    fam = lib.deltasystem.SetFamily.from_pairs(
        (label, lib.ground.Point(tuple(s))) for label, s in members)
    deltasystem = lib.deltasystem

    def call():
        r = deltasystem.extract_delta_system(fam, petals)
        system = r.system
        return {"found": r.ok, "max": r.max_petals, "method": r.method,
                "root": list(system.root) if system else [],
                "labels": list(system.petal_labels) if system else [],
                "size": system.petal_size if system else None}

    return Request("delta", {"members": members, "petals": petals}, call=call)


def _cb_call(st):
    rng = st.rng
    ks = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    classification = st.lib.classification
    return Request("cb_call", {"ks": ks}, call=lambda: list(classification.cb_invariants(ks)))


def library_batch(st: Stream):
    rng = st.rng
    for block_index in itertools.count():
        block = [_classify_row(st) for _ in range(10)]
        # the k=4 operator sets the tail; its ground size cycles so every run
        # sees the same spread of sizes
        block += [_operator(st, rng.randint(1, 2), rng.randint(2, 6)),
                  _operator(st, 3, rng.randint(3, 6)),
                  _operator(st, 4, 3 + block_index % 4)]
        block += [_delta(st, rng.randint(12, 20), 10, 1, 3),
                  _delta(st, rng.randint(60, 400), 30, 2, 4)]
        block.append(_cb_call(st))
        rng.shuffle(block)
        yield block


def requests(name: str, st: Stream, blocks: int | None = None):
    """The first ``blocks`` blocks (all, if None) of a workload's stream, one
    request at a time."""
    for block in itertools.islice(WORKLOADS[name](st), blocks):
        yield from block


WORKLOADS = {
    "decompose_deep": decompose_deep,
    "uec_pipeline": uec_pipeline,
    "cli_mix": cli_mix,
    "library_batch": library_batch,
}
