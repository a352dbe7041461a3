"""One-off run at the shape of the ROADMAP baseline table, for comparison.

Shape: N reports with one fenced snippet each, 100 targets of 200 lines,
combined_lsast with k=3, lsast's plain MockGateway and the OfflineEmbedder.
Each step runs once, as the table was measured. Writes
perfbench/results/roadmap_crosscheck.json and prints a comparison with the
table; a ratio outside 0.75..1.33 is flagged.

    python3 perfbench/crosscheck.py --reports 2000 8000
"""

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ROADMAP "Baseline" table: reports -> seconds per column
ROADMAP_TABLE = {
    2000: {"ingest_s": 0.06, "catalog_s": 0.08, "index_builds_s": 1.1, "index_save_load_s": 0.3,
           "scan_batch_s": 4.3, "recorded_total_s": 0.68},
    8000: {"ingest_s": 0.17, "catalog_s": 0.18, "index_builds_s": 3.5, "index_save_load_s": 1.3,
           "scan_batch_s": 13.4, "recorded_total_s": 0.77},
}


def measure(reports: int, workspace: Path) -> dict:
    import lsast
    from generate import Shape, generate

    shape = Shape(reports=reports, targets=100, target_lines=(200, 200), findings_per_target=(2, 2),
                  multi_snippet_share=0.0, no_code_share=0.0, long_body_share=0.0)
    inputs = generate(1, shape, workspace)
    out = {}

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        out[name] = out.get(name, 0.0) + time.perf_counter() - t0
        return result

    gateway, embedder = lsast.MockGateway(), lsast.OfflineEmbedder()
    corpus = lsast.ReportCorpus(workspace / "corpus")
    timed("ingest_s", corpus.ingest_reports, inputs.reports_path)
    timed("catalog_s", corpus.build_snippet_catalog, llm=gateway)
    indexes = {}
    for kind in (lsast.IndexKind.FUNCTIONALITY, lsast.IndexKind.ABSTRACTION):
        indexes[kind], _ = timed("index_builds_s", lsast.VectorIndex.build, corpus, kind,
                                 llm=gateway, embedder=embedder)
    path = timed("index_save_load_s", indexes[lsast.IndexKind.FUNCTIONALITY].save,
                 workspace / "functionality.jsonl")
    timed("index_save_load_s", lsast.VectorIndex.load, path)

    findings = lsast.parse_scanner_report(inputs.sast_path.read_bytes()).findings
    context = lsast.ScanContext(
        gateway=lsast.MockGateway(), corpus=corpus,
        functionality_index=indexes[lsast.IndexKind.FUNCTIONALITY],
        abstraction_index=indexes[lsast.IndexKind.ABSTRACTION],
        embedder=embedder, scanner=lambda target: findings,
    )
    cwd = os.getcwd()
    os.chdir(workspace / "repo")
    try:
        results = timed("scan_batch_s", lsast.run_scan_batch, inputs.targets,
                        lsast.RetrievalMode.COMBINED_LSAST, k=3, context=context)
    finally:
        os.chdir(cwd)
    failures = [r for r in results if isinstance(r, lsast.ScanFailure)]
    if failures:
        raise SystemExit(f"{len(failures)} scans failed; first: {failures[0]}")
    out["recorded_total_s"] = sum(r.timings["total_s"] for r in results)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reports", type=int, nargs="+", default=[2000, 8000])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    rows = []
    for reports in args.reports:
        workspace = ROOT / ".perfbench_work" / f"crosscheck-{reports}-{os.getpid()}"
        workspace.mkdir(parents=True)
        try:
            measured = measure(reports, workspace)
        finally:
            shutil.rmtree(workspace, ignore_errors=True)
        roadmap = ROADMAP_TABLE.get(reports, {})
        ratios = {k: measured[k] / roadmap[k] for k in roadmap}
        flagged = sorted(k for k, r in ratios.items() if not 0.75 <= r <= 4 / 3)
        rows.append({"reports": reports, "measured": measured, "roadmap": roadmap,
                     "ratio": ratios, "flagged": flagged})
        print(f"{reports} reports:")
        for key, value in measured.items():
            ref = roadmap.get(key)
            note = f"  roadmap {ref:.2f} s  ratio {value / ref:.2f}" if ref else ""
            print(f"  {key:18s} {value:8.3f} s{note}{'  <-- differs by more than a quarter' if key in flagged else ''}")

    result = {
        "env": {"python": platform.python_version(), "machine": platform.machine(),
                "cpus": os.cpu_count(), "blas_threads": 1},
        "shape": "N reports x 1 fenced snippet; 100 targets x 200 lines; combined_lsast, k=3; MockGateway",
        "rows": rows,
    }
    out_dir = Path(__file__).resolve().parent / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "roadmap_crosscheck.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
