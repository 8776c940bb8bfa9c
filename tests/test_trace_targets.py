"""The traced benchmark wraps layer functions by the names the program uses.

``bench/tracing.py`` replaces each target attribute with a timing wrapper and
puts the original back afterwards. A renamed or removed layer function makes
``enable`` fail here, in tier-1, instead of only in the benchmark's smoke run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_tracer_patches_and_restores_every_target():
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        patched = list(tracer._saved)
        assert len(patched) == len(tracer._targets()) + 1  # plus BlobStore.put
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.disable()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
