"""The benchmark's fixed design: workloads, seeded draw, sweeps, digest.

Pure data and arithmetic with no simulator import, so run.py can
report a missing source tree instead of failing on import.
"""

import hashlib
import json

#: Suite workloads drawn per sweep.
DRAW_SIZE = 8
#: Interval samples per cell on the sampled workloads (``--sample 16``).
SAMPLES = 16
#: Worker processes of the re-sweep's fan-out (and of the full-detail
#: reference runs).
SAMPLED_WORKERS = 2
#: ``--seed`` default and the seed held out while the benchmark was tuned.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

#: One line per workload; BENCHMARK.json carries the same text.
WORKLOADS = {
    "twospeed-suite": dict(
        workers=1, sample=None, fill=False, l1_latency=5,
        why="Serial two-speed sweep: core, RFP model, trace build and "
            "warmer do the work; store and supervisor are idle, so a "
            "store change should not move it.",
    ),
    # Serial: with forked workers this sweep's time is bimodal across
    # draws (see CHANGES.md), too unsteady for a gated metric.
    "sampled-sweep-cold": dict(
        workers=1, sample=SAMPLES, fill=False, l1_latency=5,
        why="Serial --sample 16 sweep with an empty cache and checkpoint "
            "store: the store-write path (prewarm warm, capture, put) and "
            "restore; carries sampling accuracy.",
    ),
    "sampled-resweep": dict(
        workers=SAMPLED_WORKERS, sample=SAMPLES, fill=True, l1_latency=6,
        why="l1_latency=6 re-sweep, 2 workers, over a store filled by the "
            "l1_latency=5 sweep: every interval restores, nothing is warmed "
            "or written; the store read path and the worker fan-out.",
    ),
}


def config_specs(l1_latency, full_detail=False):
    """The two swept configs as ``baseline(**overrides)`` keyword dicts:
    the baseline core and the same core with RFP enabled."""
    common = {}
    if l1_latency != 5:
        common["l1_latency"] = l1_latency
    if full_detail:
        common["fast_forward"] = False
    return [dict(common), dict(common, rfp={"enabled": True})]


def allocation(categories):
    """Per-category draw sizes: proportional to category size, at least
    one per category, remainders by largest fractional share.

    ``categories`` maps category -> number of suite workloads in it.
    """
    total = sum(categories.values())
    if len(categories) > DRAW_SIZE:
        raise ValueError("more categories than draw slots")
    shares = {c: DRAW_SIZE * n / total for c, n in categories.items()}
    quota = {c: max(1, int(s)) for c, s in shares.items()}
    while sum(quota.values()) < DRAW_SIZE:
        grow = max(shares, key=lambda c: (shares[c] - quota[c], c))
        quota[grow] += 1
    while sum(quota.values()) > DRAW_SIZE:
        shrink = min((c for c in quota if quota[c] > 1),
                     key=lambda c: (shares[c] - quota[c], c))
        quota[shrink] -= 1
    return quota


def draw(seed, suite):
    """Draw ``DRAW_SIZE`` workload names from ``suite`` (ordered
    ``{name: category}``), stratified over every category.

    Within a category the names are ranked by ``sha256(seed:name)``, which
    is stable across Python versions.  The draw is returned in suite order.
    """
    by_category = {}
    for name, category in suite.items():
        by_category.setdefault(category, []).append(name)
    quota = allocation({c: len(n) for c, n in by_category.items()})
    chosen = set()
    for category, names in by_category.items():
        ranked = sorted(names, key=lambda n: hashlib.sha256(
            ("%d:%s" % (seed, n)).encode("utf-8")).hexdigest())
        chosen.update(ranked[:quota[category]])
    return [name for name in suite if name in chosen]


def canonical(data):
    """Canonical JSON text of one cell's result payload."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(cells):
    """sha256 over the canonical JSON of every cell, in cell order.

    ``cells`` is a list of result payload dicts (``SimResult.data``) or
    ``None`` for a missing cell.
    """
    h = hashlib.sha256()
    for cell in cells:
        h.update(canonical(cell).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
