"""Fast guards of what the benchmark relies on in lsast.

perfbench/tracing.py patches lsast functions by module and name,
perfbench/mock_model.py's gateway answers lsast's prompts with the
complete(prompt) -> str contract, and perfbench/run.py measures index files
through the paths `VectorIndex.save` returns. A renamed or moved function,
or a changed contract, would otherwise surface only in the slower benchmark
smoke run (python -m pytest perfbench).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import lsast.cli
import lsast.pipeline
from lsast.annotate import annotate_lines
from lsast.gateway import MockGateway, PredictedFinding, parse_scan_response
from lsast.index import IndexEntry, IndexKind, VectorIndex
from lsast.pipeline import RetrievalMode, ScanResult, persist_scan
from lsast.prompts import (
    ABSTRACTION_PROMPT,
    FUNCTIONALITY_PROMPT,
    build_scan_prompt,
    render_derivation_prompt,
)
from lsast.sast import Finding, format_findings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_probes_install_and_unpatch():
    tracing = _load("tracing")
    run_scan, load_scan_directory = lsast.pipeline.run_scan, lsast.cli.load_scan_directory

    tracer = tracing.Tracer()
    tracing.install_scan_probes(tracer, MockGateway, {})
    try:
        assert lsast.pipeline.run_scan is not run_scan
    finally:
        tracer.unpatch()
    assert lsast.pipeline.run_scan is run_scan
    assert lsast.cli.load_scan_directory is load_scan_directory


@pytest.mark.parametrize("regime, spans", [
    ([], {"pipeline.load_records", "evaluation.match", "evaluation.metrics"}),
    (["--truth", "labels"], {"pipeline.load_records", "evaluation.labels", "evaluation.metrics"}),
    (["--retrieval"], {"pipeline.load_records", "evaluation.retrieval"}),
], ids=["scanner", "labels", "retrieval"])
def test_eval_probes_record_their_spans(tmp_path, capsys, regime, spans):
    # perfbench/run.py reports each evaluation.* layer from these spans; an
    # eval that stops calling a probed name would read 0 there, not fail
    finding = Finding(cwe_ids=["79"], rule_id="r", title="t", description="d",
                      file_path="a.js", line_start=2, line_end=2)
    result = ScanResult(target_path="a.js", mode=RetrievalMode.RAW_LSAST, k=3,
                        scanner_findings=[finding],
                        predicted=[PredictedFinding("CWE-79", "r", 2, 2, "x")])
    record_id = json.loads(persist_scan(result, tmp_path / "scans").read_text())["record_id"]
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"record": record_id, "finding": 0, "verdict": "tp"}) + "\n")

    tracing = _load("tracing")
    tracer = tracing.Tracer()
    tracing.install_scan_probes(tracer, MockGateway, {})
    try:
        assert lsast.cli.main(["eval", "--records", str(tmp_path / "scans"),
                               "--labels", str(labels), *regime]) == 0
    finally:
        tracer.unpatch()
    capsys.readouterr()
    assert spans <= {span[1] for span in tracer.spans}


def test_bench_gateway_keeps_the_complete_contract():
    gateway = _load("mock_model").SlowMockGateway()
    code = "var q = req.query.q\ndb.find({$where: q})\nres.send(q)"
    finding = Finding(cwe_ids=["943"], rule_id="r", title="t", description="d",
                      file_path="a.js", line_start=2, line_end=2)
    prompt = build_scan_prompt(annotate_lines(code), sast=format_findings([finding])).text
    answer = gateway.complete(prompt)
    assert isinstance(answer, str)
    assert not parse_scan_response(answer).parse_degraded
    for template in (FUNCTIONALITY_PROMPT, ABSTRACTION_PROMPT):
        assert isinstance(gateway.complete(render_derivation_prompt(template, code)), str)
    assert gateway.calls == {"derive": 2, "scan": 1}


def test_index_save_writes_only_the_path_it_returns(tmp_path):
    # perfbench/run.py sums the sizes of the paths `save` returns as
    # index.file_bytes; a file written beside them would go uncounted
    entries = [IndexEntry(sequence=s, kind=IndexKind.FUNCTIONALITY, derived_text=f"t{s}",
                          embedding=np.eye(4)[s]) for s in range(2)]
    index = VectorIndex(kind=IndexKind.FUNCTIONALITY, dimension=4, embedder_id="e",
                        corpus_digest="d", entries=entries)
    path = tmp_path / "indexes" / "functionality.jsonl"
    assert index.save(path) == path
    assert [p.name for p in path.parent.iterdir()] == [path.name]
