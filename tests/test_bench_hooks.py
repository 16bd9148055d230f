"""The benchmark's tracer wraps public names of the package; pin them here.

``bench/tracing.py`` replaces module and class attributes with timing
wrappers and puts the originals back afterwards. A refactor that renames
or removes one of those names fails here instead of in every traced
benchmark run.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from aucseg.bank import TailMemoryBank  # noqa: E402
from aucseg.grids import Batch, FeatureGrid, LabelGrid  # noqa: E402


def _attributes():
    owners = list(tracing.modules().values()) + [TailMemoryBank, Batch, FeatureGrid, LabelGrid]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_wrapped_name():
    before = _attributes()
    patches = tracing.Patches()
    try:
        tracing.Tracer().install(patches)
        assert _attributes() != before
    finally:
        patches.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
