"""Offline end-to-end benchmark of the lsast batch pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload retrieval_scan --seed 1 --seconds 20 --trace 0

Each workload is one client running a closed loop over a fixed target list:
set up (ingest, catalog, index build/save/load, scanner-report parse)
several times, scan the whole list and persist every record until
`--seconds` have passed, then evaluate the records under all three regimes
through `lsast eval --format json`. Inputs come from a seeded generator and
the model is a bench-local mock (mock_model.SlowMockGateway); nothing leaves
the machine. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics. Every run checks
the program's outputs and exits 1 if a check fails. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
# share of --seconds spent repeating eval rounds (three regimes each)
EVAL_SHARE = 0.3

# sha256 over the sorted record essences of one pass at the default seed
PINNED_ESSENCE = {
    ("retrieval_scan", "full"): "45aa73184c13871804041ef87a36a62d3b5c6ae6425f6d067976d0869cbcbf85",
    ("repo_scan", "full"): "fa5d588f673f35fefd061560a9fd9aa5eea026dd5b119fe2cd040982563bd8d5",
    ("slow_model", "full"): "1028e2fde41c994e7dd2e4c1d2ddcf53d4e6ff4d3a174c4be5dea721327871a2",
    ("retrieval_scan", "smoke"): "08225109c20eb850eea8b72dc2b810eba1c8d5c9b19a0066a341201f9fff87d6",
    ("repo_scan", "smoke"): "8d7330b369a20f4edd9666db73fdffcaede77f3c6b2f684b6be38baabe96fdcc",
    ("slow_model", "smoke"): "fa0e1a9bf5573c4b832db1193cc1039a64a2b901c6b1b5f5eb856098b0b313e1",
}


@dataclass(frozen=True)
class Workload:
    mode: str
    parallelism: int
    full: object  # generate.Shape
    smoke: object
    setup_reps: int
    derive_latency_s: float = 0.0
    scan_latency_s: float = 0.0


def workloads():
    from generate import Shape

    return {
        # corpus digest, query derivation/embedding/matrix search and prompt
        # assembly sit on the scan path; index build/save/load in setup
        "retrieval_scan": Workload(
            mode="combined_lsast", parallelism=1, setup_reps=3,
            full=Shape(reports=2000, targets=200, target_lines=(190, 210), findings_per_target=(1, 3)),
            smoke=Shape(reports=60, targets=12, target_lines=(40, 60), findings_per_target=(1, 3)),
        ),
        # repo-wide scanner report: sast path matching (targets x findings),
        # annotate, prompt, parse, persist and eval; no corpus, no index
        "repo_scan": Workload(
            mode="raw_lsast", parallelism=1, setup_reps=30,
            full=Shape(reports=0, targets=300, target_lines=(50, 400), findings_per_target=(10, 30),
                       repo_wide_report=True),
            smoke=Shape(reports=0, targets=20, target_lines=(20, 60), findings_per_target=(5, 15),
                        repo_wide_report=True),
        ),
        # model latency dominates; vendored duplicates exercise the derivation cache
        "slow_model": Workload(
            mode="combined_lsast", parallelism=2, setup_reps=3,
            derive_latency_s=0.010, scan_latency_s=0.040,
            full=Shape(reports=150, targets=200, target_lines=(150, 250), findings_per_target=(1, 3),
                       duplicate_share=0.25),
            smoke=Shape(reports=20, targets=12, target_lines=(30, 60), findings_per_target=(1, 3),
                        duplicate_share=0.25),
        ),
    }


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def scan_rate(passes: list, traced: bool) -> float:
    """Targets scanned and persisted per second over the (un)traced passes.

    A ratio of totals, not a median over passes or batches: a shared 2-vCPU
    VM was seen to alternate between a fast and a ~25% slower state every
    second or two, and a total weights the two states by their share of the run.
    """
    chosen = [(wall, n) for was_traced, wall, n in passes if was_traced == traced]
    return sum(n for _, n in chosen) / sum(wall for wall, _ in chosen)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, size: str, workspace: Path, trace: bool):
        import lsast
        import generate
        import mock_model
        import tracing

        self.lsast = lsast
        self.mock_model = mock_model
        self.tracing = tracing
        self.name = name
        self.workload = workload
        self.seed = seed
        self.size = size
        self.ws = workspace
        self.trace = trace
        self.mode = lsast.RetrievalMode(workload.mode)
        self.retrieval = self.mode.uses_functionality or self.mode.uses_abstraction
        self.inputs = generate.generate(seed, getattr(workload, size), workspace)
        self.tracer = tracing.Tracer()
        self.gateways: dict = {"setup": [], "scan": []}
        self.scan_times: list[float] = []
        self.attempted = self.failed = 0
        self.pass_stats: list[dict] = []
        self.filter_stats = {"pairs": 0, "kept": 0}
        self.prompt_stats = {"builds": 0, "chars": 0}
        self._stats_lock = threading.Lock()

    # -- probes ------------------------------------------------------------------

    def _observe_filter(self, args, result):
        with self._stats_lock:
            self.filter_stats["pairs"] += len(args[0])
            self.filter_stats["kept"] += len(result)

    def _observe_prompt(self, args, result):
        with self._stats_lock:
            self.prompt_stats["builds"] += 1
            self.prompt_stats["chars"] += len(result.text)

    def install_probes(self):
        self.tracing.install_scan_probes(self.tracer, self.mock_model.SlowMockGateway, {
            "sast.filter": self._observe_filter,
            "prompts.build": self._observe_prompt,
        })

    def install_timer(self):
        """Untraced runs keep only a bare timer around each run_scan call."""
        import lsast.pipeline as pipeline

        original = pipeline.run_scan
        times = self.scan_times

        def timed_run_scan(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        pipeline.run_scan = timed_run_scan
        return lambda: setattr(pipeline, "run_scan", original)

    def gateway(self, phase: str):
        """One gateway per phase, as each CLI subcommand makes its own."""
        gw = self.mock_model.SlowMockGateway(self.workload.derive_latency_s, self.workload.scan_latency_s)
        self.gateways[phase].append(gw)
        return gw

    # -- setup -------------------------------------------------------------------

    def setup(self) -> dict:
        """Empty workspace to ready-to-scan; returns the loaded state."""
        lsast = self.lsast
        call = self.tracer.call if self.trace else (lambda _name, fn, *args, **kwargs: fn(*args, **kwargs))
        state = {}
        if self.retrieval:
            corpus_dir, index_dir = self.ws / "corpus", self.ws / "indexes"
            corpus = lsast.ReportCorpus(corpus_dir)
            summary = call("corpus.ingest", corpus.ingest_reports, self.inputs.reports_path)
            check(summary.skipped == 0, f"ingest skipped {summary.skipped} records")
            catalog = call("corpus.catalog", corpus.build_snippet_catalog, llm=self.gateway("setup"))
            check(catalog.reports_without_code == 0, "catalog left reports without code")
            embedder = lsast.OfflineEmbedder()
            gateway = self.gateway("setup")
            paths = {}
            for kind in (lsast.IndexKind.FUNCTIONALITY, lsast.IndexKind.ABSTRACTION):
                index, built = call(f"index.build.{kind.value}", lsast.VectorIndex.build,
                                    corpus, kind, llm=gateway, embedder=embedder)
                check(not built.failures and not built.degraded, f"{kind.value} build failed")
                paths[kind] = call("index.save", index.save, index_dir / f"{kind.value}.jsonl")
            # the loads `lsast scan` makes
            state["corpus"] = call("corpus.load", lambda: lsast.ReportCorpus(corpus_dir))
            state["functionality"] = call("index.load", lsast.VectorIndex.load, paths[lsast.IndexKind.FUNCTIONALITY])
            state["abstraction"] = call("index.load", lsast.VectorIndex.load, paths[lsast.IndexKind.ABSTRACTION])
            state["embedder"] = embedder
            state["index_bytes"] = sum(p.stat().st_size for p in paths.values())
        raw = self.inputs.sast_path.read_bytes()
        report = call("sast.parse_report", lsast.parse_scanner_report, raw)
        check(not report.warnings, f"scanner report warnings: {report.warnings[:3]}")
        state["findings"] = report.findings
        return state

    # -- scan --------------------------------------------------------------------

    def scan_pass(self, state: dict, out_dir: Path, traced: bool) -> tuple[float, list]:
        """Scan and persist the whole target list; returns (wall seconds, [(outcome, path)])."""
        lsast = self.lsast
        findings = state["findings"]
        context = lsast.ScanContext(
            gateway=self.gateway("scan"),
            corpus=state.get("corpus"),
            functionality_index=state.get("functionality"),
            abstraction_index=state.get("abstraction"),
            embedder=state.get("embedder"),
            scanner=lambda target: findings,
            attach_scanner_findings=True,
        )
        persist = self.tracer.wrap("pipeline.persist", lsast.persist_scan) if traced else lsast.persist_scan
        t0 = time.perf_counter()
        try:
            outcomes = lsast.run_scan_batch(self.inputs.targets, self.mode, k=3, context=context,
                                            parallelism=self.workload.parallelism)
        except lsast.ScanError as exc:
            raise CheckFailed(f"every scan failed: {exc}") from None
        paths = [None if isinstance(o, lsast.ScanFailure) else persist(o, out_dir) for o in outcomes]
        return time.perf_counter() - t0, list(zip(outcomes, paths))

    def check_pass(self, results: list) -> dict:
        """Verify one pass's records; returns its essence digest and stats."""
        lsast = self.lsast
        failures = [o for o, _ in results if isinstance(o, lsast.ScanFailure)]
        self.attempted += len(results)
        self.failed += len(failures)
        check(not failures, f"{len(failures)} scans failed; first: {failures[:1]}")
        check(len(results) == len(self.inputs.targets), "record count differs from targets")
        essences, record_ids = [], {}
        total_s = included = dropped = 0
        for outcome, path in results:
            loaded = lsast.load_scan(path)  # verifies the content digest
            record = json.loads(path.read_text(encoding="utf-8"))
            essences.append(lsast.record_essence(record))
            result = loaded.result
            target = result.target_path
            record_ids[target] = loaded.record_id
            want = [(cwe, start, end) for cwe, start, end, _ in self.inputs.answers[target]]
            got = [(int(f.cwe_id.removeprefix("CWE-")), f.line_start, f.line_end) for f in result.predicted]
            check(got == want, f"{target}: predicted {got}, mock planned {want}")
            attached = sorted((int(f.cwe_ids[0]), f.line_start, f.line_end) for f in result.scanner_findings)
            check(attached == sorted(self.inputs.entries[target]),
                  f"{target}: attached scanner findings differ from the report's findings for it")
            total_s += result.timings.get("total_s", 0.0)
            included += len(result.included_report_ids)
            dropped += len(result.dropped_report_ids)
        digest = hashlib.sha256("\n".join(sorted(essences)).encode("utf-8")).hexdigest()
        return {"digest": digest, "record_ids": record_ids, "total_s": total_s,
                "included": included, "dropped": dropped,
                "bytes": sum(p.stat().st_size for _, p in results)}

    # -- eval --------------------------------------------------------------------

    def expected_retrieval(self, records_dir: Path) -> dict:
        counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for scan in self.lsast.load_scan_directory(records_dir):
            result = scan.result
            truth = {f"CWE-{c}" for c, _, _ in self.inputs.entries[result.target_path]}
            retrieved = dict.fromkeys(result.retrieved_report_ids["functionality"]
                                      + result.retrieved_report_ids["abstraction"])
            covered = set()
            for report_id in retrieved:
                cwe = self.inputs.report_cwes[report_id]
                if cwe in truth:
                    counts["tp"] += 1
                    covered.add(cwe)
                else:
                    counts["fp"] += 1
            counts["fn"] += len(truth - covered)
        return counts

    def eval_round(self, config: Path, records_dir: Path, labels: Path, expected: dict) -> float:
        import lsast.cli as cli

        main = self.tracer.wrap("cli.eval", cli.main) if self.trace else cli.main
        base = ["--config", str(config), "eval", "--records", str(records_dir), "--format", "json"]
        regimes = {
            "scanner": base + ["--truth", "scanner"],
            "labels": base + ["--truth", "labels", "--labels", str(labels)],
            "retrieval": base + ["--retrieval"],
        }
        elapsed = 0.0
        for regime, argv in regimes.items():
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            elapsed += time.perf_counter() - t0
            check(code == 0, f"eval {regime} exited {code}: {err.getvalue()[-300:]}")
            columns = json.loads(out.getvalue())["columns"]
            check([c["name"] for c in columns] == [self.mode.value], f"eval {regime}: columns {columns}")
            check(columns[0]["counts"] == expected[regime],
                  f"eval {regime}: counts {columns[0]['counts']}, predicted {expected[regime]}")
        return elapsed

    # -- run ---------------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        tracer = self.tracer
        if self.trace:
            self.install_probes()
        setup_times = []
        for _ in range(self.workload.setup_reps):
            state = None
            shutil.rmtree(self.ws / "corpus", ignore_errors=True)
            shutil.rmtree(self.ws / "indexes", ignore_errors=True)
            tracer.begin("setup")
            gc.collect()
            t0 = time.perf_counter()
            state = self.setup()
            setup_times.append(time.perf_counter() - t0)

        os.chdir(self.ws / "repo")
        digests = set()
        passes = []  # (traced, seconds, targets)
        scan_started = time.perf_counter()
        first_dir = None
        while True:
            traced = self.trace and len(passes) % 2 == 1
            if self.trace and not traced:
                tracer.unpatch()
            restore = None if traced else self.install_timer()
            tracer.begin("scan" if traced else "untraced")
            out_dir = self.ws / "scans" / f"pass-{len(passes)}"
            gc.collect()
            wall, results = self.scan_pass(state, out_dir, traced)
            if restore:
                restore()
            if self.trace and not traced:
                self.install_probes()
            print(f"pass {len(passes)} traced={traced}: {len(results)} targets in {wall:.3f} s", file=sys.stderr)
            stats = self.check_pass(results)
            digests.add(stats["digest"])
            check(len(digests) == 1, "record essences differ between passes")
            passes.append((traced, wall, len(results)))
            self.pass_stats.append(stats)
            if first_dir is None:
                first_dir = out_dir
            else:
                shutil.rmtree(out_dir)
            elapsed = time.perf_counter() - scan_started
            enough = not self.trace or len(passes) >= 2
            if enough and elapsed + elapsed / len(passes) / 2 >= seconds:
                break
        if self.seed == DEFAULT_SEED:
            pinned = PINNED_ESSENCE[(self.name, self.size)]
            check(digests == {pinned}, f"essence digest {digests} differs from pinned {pinned}")

        config = self.ws / "config.json"
        config.write_text(json.dumps({
            "corpus_dir": str(self.ws / "corpus"),
            "index_dir": str(self.ws / "indexes"),
            "scan_dir": str(first_dir),
        }), encoding="utf-8")
        labels = self.ws / "labels.jsonl"
        with open(labels, "w", encoding="utf-8") as handle:
            for target, record_id in self.pass_stats[0]["record_ids"].items():
                finding, verdict = self.inputs.label_for(target)
                handle.write(json.dumps({"record": record_id, "finding": finding, "verdict": verdict}) + "\n")
        expected = {
            "scanner": self.inputs.scanner_counts,
            "labels": self.inputs.label_counts,
            "retrieval": self.expected_retrieval(first_dir),
        }
        # `lsast eval` runs in a process of its own that holds no corpus or index
        index_bytes = state.get("index_bytes", 0)
        del state, results
        eval_times = []
        eval_started = time.perf_counter()
        while len(eval_times) < 3 or time.perf_counter() - eval_started < EVAL_SHARE * seconds:
            tracer.begin("eval")
            gc.collect()
            eval_times.append(self.eval_round(config, first_dir, labels, expected))
        tracer.unpatch()
        return {
            "setup_times": setup_times,
            "index_bytes": index_bytes,
            "passes": passes,
            "eval_rate": 3 * len(self.inputs.targets) * len(eval_times) / sum(eval_times),
            "digest": digests.pop(),
        }


def end_to_end_metrics(bench: Bench, run: dict) -> dict:
    times = bench.scan_times
    return {
        "setup_s": (statistics.median(run["setup_times"]), "s"),
        "scan_files_per_s": (scan_rate(run["passes"], traced=False), "files/s"),
        "scan_ms_p50": (1000 * statistics.median(times), "ms"),
        "scan_ms_p95": (1000 * percentile(times, 95), "ms"),
        "eval_records_per_s": (run["eval_rate"], "records/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(bench: Bench, run: dict) -> dict:
    tracer = bench.tracer
    summary = tracer.summarize()
    setups = tracer.phase_runs["setup"]
    passes = tracer.phase_runs["scan"]
    rounds = tracer.phase_runs["eval"]

    def get(phase, name, key="layer_s", per=1):
        return summary.get((phase, name), {}).get(key, 0.0) / per

    def setup_s(name):
        return get("setup", name, "wall_s", setups)

    def scan_s(name, key="layer_s"):
        return get("scan", name, key, passes)

    def eval_s(name):
        return get("eval", name, "layer_s", rounds)

    traced_rate = scan_rate(run["passes"], traced=True)
    untraced_rate = scan_rate(run["passes"], traced=False)
    hits, derives = tracer.derive_hits("scan")
    gateways = bench.gateways
    # one setup plus one scan pass
    setup_gws, scan_gws = gateways["setup"], gateways["scan"]
    calls = {
        kind: sum(g.calls[kind] for g in setup_gws) / setups + sum(g.calls[kind] for g in scan_gws) / len(scan_gws)
        for kind in ("derive", "scan")
    }
    busy = sum(g.busy_s for g in setup_gws) / setups + sum(g.busy_s for g in scan_gws) / len(scan_gws)
    stats = bench.pass_stats
    included = sum(s["included"] for s in stats)
    dropped = sum(s["dropped"] for s in stats)
    run_scan_wall = get("scan", "pipeline.run_scan", "wall_s")
    untraced_run_scan = sum(bench.scan_times)
    index_bytes = run["index_bytes"]
    s = "s"
    return {
        "corpus.ingest_s": (setup_s("corpus.ingest"), s),
        "corpus.catalog_s": (setup_s("corpus.catalog"), s),
        "corpus.load_s": (setup_s("corpus.load"), s),
        "corpus.digest_calls": (get("scan", "corpus.digest", "calls", passes), "count"),
        "corpus.digest_s": (scan_s("corpus.digest"), s),
        "index.build_s.functionality": (setup_s("index.build.functionality"), s),
        "index.build_s.abstraction": (setup_s("index.build.abstraction"), s),
        "index.embed_calls": (get("setup", "index.embed", "calls", setups), "count"),
        "index.embed_s": (get("setup", "index.embed", "self_s", setups), s),
        "index.save_s": (setup_s("index.save"), s),
        "index.load_s": (setup_s("index.load"), s),
        "index.file_bytes": (index_bytes, "bytes"),
        "index.search_s": (scan_s("index.search"), s),
        "index.search_embedded_s": (scan_s("index.search_embedded", "self_s"), s),
        "index.derive_calls": (derives / max(passes, 1), "count"),
        "index.derive_hit_ratio": (hits / derives if derives else 0.0, "ratio"),
        "gateway.calls.derive": (calls["derive"], "count"),
        "gateway.calls.scan": (calls["scan"], "count"),
        "gateway.busy_s": (busy, s),
        "gateway.parse_s": (scan_s("gateway.parse"), s),
        "sast.parse_report_s": (setup_s("sast.parse_report"), s),
        "sast.filter_s": (scan_s("sast.filter"), s),
        "sast.filter_pairs": (bench.filter_stats["pairs"] / passes, "count"),
        "sast.filter_keep_ratio": (bench.filter_stats["kept"] / max(bench.filter_stats["pairs"], 1), "ratio"),
        "annotate.annotate_s": (scan_s("annotate.annotate"), s),
        "prompts.build_s": (scan_s("prompts.build"), s),
        "prompts.report_keep_ratio": (included / (included + dropped) if included + dropped else 1.0, "ratio"),
        "prompts.chars_mean": (bench.prompt_stats["chars"] / max(bench.prompt_stats["builds"], 1), "chars"),
        "pipeline.run_scan_s": (run_scan_wall / max(passes, 1), s),
        "pipeline.run_scan_self_s": (scan_s("pipeline.run_scan"), s),
        "pipeline.persist_s": (scan_s("pipeline.persist"), s),
        "pipeline.persist_bytes": (statistics.mean(st["bytes"] for st in stats), "bytes"),
        "pipeline.load_records_s": (eval_s("pipeline.load_records"), s),
        "pipeline.timings_coverage": (sum(st["total_s"] for st in stats) / (run_scan_wall + untraced_run_scan), "ratio"),
        "evaluation.match_s": (eval_s("evaluation.match"), s),
        "evaluation.labels_s": (eval_s("evaluation.labels"), s),
        "evaluation.retrieval_s": (eval_s("evaluation.retrieval"), s),
        "cli.eval_self_s": (eval_s("cli.eval"), s),
        "trace.overhead_pct": (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke runs in seconds and exists to test the harness")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lsast" / "__init__.py").is_file():
        print(f"error: lsast sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy's BLAS would otherwise start one thread per CPU next to the
    # workload's own scan threads; a workload uses at most nproc threads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    workspace = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workspace.mkdir(parents=True)
    cwd = os.getcwd()
    correct, error = True, None
    try:
        bench = Bench(args.workload, table[args.workload], args.seed, args.size, workspace, bool(args.trace))
        try:
            run = bench.run(args.seconds)
        except CheckFailed as exc:
            correct, error = False, str(exc)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workspace, ignore_errors=True)

    attempted, failed = max(bench.attempted, 1), bench.failed
    if not correct:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    metrics = per_layer_metrics(bench, run) if args.trace else end_to_end_metrics(bench, run)
    if args.trace:
        bench.tracer.dump(work_root / f"trace-{args.workload}-{args.seed}.jsonl")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(run['passes'])} passes of {len(bench.inputs.targets)} targets, "
          f"essence sha256 {run['digest']}")
    print(f"  scan_failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
