"""The benchmark's layer view: every function bench/tracing.py times must
still exist, so that a refactor cannot silently drop a traced layer."""

import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def test_every_traced_layer_exists():
    import vpembed.cli  # noqa: F401  (cli.main is a traced layer)

    sys.path.insert(0, BENCH)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(BENCH)
    tracer = Tracer()
    try:
        tracer.install()
        # _reachable is gone from the library; the benchmark drops it next
        assert set(tracer.absent) <= {"neighborhoods._reachable"}
    finally:
        tracer.uninstall()
