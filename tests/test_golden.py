"""Golden digests: committed fingerprints of the simulator's results.

Each cell of a seeded workload x config x mode matrix is simulated and
reduced to the sha256 of its canonical ``SimResult`` JSON
(``json.dumps(result.data, sort_keys=True)``).  The expected digests live
in ``tests/golden_digests.json``; any change to the model, the warm-up
path, the sampler or the tracer's metrics shows up here as a digest diff.

A digest diff is never fixed by regenerating alone: the change that
moves it must be explained in CHANGES.md.  After such a change, rewrite
the file with::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden; test_golden.regenerate()"
"""

import contextlib
import hashlib
import json
import os
import tempfile

import pytest

from repro.core.config import baseline
from repro.obs.tracer import Tracer
from repro.sim.checkpoint import CheckpointStore
from repro.sim.runner import simulate, simulate_sampled

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_digests.json")

LENGTH = 8000
WARMUP = 2000

#: One suite workload from each of four Table 3 categories.
WORKLOADS = ("spec06_mcf", "spec06_namd", "spec17_xalancbmk", "hadoop")

CONFIGS = {
    "baseline": lambda: baseline(),
    "rfp": lambda: baseline(rfp={"enabled": True}),
    "vp-eves": lambda: baseline(vp={"enabled": True, "kind": "eves"}),
}

MODES = ("full-detail", "two-speed", "traced", "invariants", "sampled")

#: Environment knobs that change how a cell runs; each cell clears them
#: and sets only what its mode needs.
_RUN_ENV = ("REPRO_FF", "REPRO_TRACE", "REPRO_CHECK_INVARIANTS")


def cell_ids():
    return ["%s/%s/%s" % (workload, config, mode)
            for workload in WORKLOADS for config in CONFIGS for mode in MODES]


@contextlib.contextmanager
def _run_env(**values):
    saved = {name: os.environ.get(name) for name in _RUN_ENV}
    try:
        for name in _RUN_ENV:
            os.environ.pop(name, None)
        os.environ.update(values)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_cell(cell_id, scratch_dir):
    """Simulate one matrix cell; ``scratch_dir`` holds its fresh
    checkpoint store in sampled mode."""
    workload, config_name, mode = cell_id.split("/")
    config = CONFIGS[config_name]()
    if mode == "full-detail":
        with _run_env(REPRO_FF="0"):
            return simulate(workload, config, length=LENGTH, warmup=WARMUP)
    with _run_env():
        if mode == "two-speed":
            return simulate(workload, config, length=LENGTH, warmup=WARMUP)
        if mode == "traced":
            return simulate(workload, config, length=LENGTH, warmup=WARMUP,
                            tracer=Tracer())
        if mode == "invariants":
            return simulate(workload, config, length=LENGTH, warmup=WARMUP,
                            check_invariants=64)
        store = CheckpointStore(os.path.join(scratch_dir, "checkpoints"))
        return simulate_sampled(workload, config, length=LENGTH,
                                warmup=WARMUP, samples=4,
                                checkpoint_store=store)


def digest(result):
    """sha256 of a result's canonical JSON text."""
    text = json.dumps(result.data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(path=GOLDEN_PATH):
    with open(path) as handle:
        return json.load(handle)


def regenerate(path=GOLDEN_PATH):
    """Re-simulate every cell and rewrite the committed digest file."""
    digests = {}
    for cell_id in cell_ids():
        with tempfile.TemporaryDirectory() as scratch_dir:
            digests[cell_id] = digest(run_cell(cell_id, scratch_dir))
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return digests


def test_golden_file_covers_the_matrix():
    assert sorted(load_golden()) == sorted(cell_ids())


@pytest.mark.parametrize("cell_id", cell_ids())
def test_cell_matches_golden_digest(cell_id, tmp_path):
    expected = load_golden()[cell_id]
    assert digest(run_cell(cell_id, str(tmp_path))) == expected, (
        "%s no longer reproduces its golden digest; explain the change in "
        "CHANGES.md and regenerate tests/golden_digests.json" % cell_id)
