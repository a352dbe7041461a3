"""Fast guard that the benchmark's trace probes still find their targets.

perfbench/tracing.py patches lsast functions by module and name; a renamed
or moved function would otherwise surface only in the slower benchmark
smoke run (python -m pytest perfbench).
"""

import importlib.util
from pathlib import Path

import lsast.cli
import lsast.pipeline
from lsast.gateway import MockGateway

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_scan_probes_install_and_unpatch():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    run_scan, load_scan_directory = lsast.pipeline.run_scan, lsast.cli.load_scan_directory

    tracer = tracing.Tracer()
    tracing.install_scan_probes(tracer, MockGateway, {})
    try:
        assert lsast.pipeline.run_scan is not run_scan
    finally:
        tracer.unpatch()
    assert lsast.pipeline.run_scan is run_scan
    assert lsast.cli.load_scan_directory is load_scan_directory
