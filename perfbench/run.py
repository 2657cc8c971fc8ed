"""Seeded end-to-end benchmark of ``zsl-kep run`` and ``zsl-kep score``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs for the workload are generated from
the seed under ``.bench_work/``, the program is driven through
``zsl_kep.cli.main`` in a fresh interpreter (``child.py``) with a
latency-injecting mock LLM, and every output is checked. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run. The lines before it give
every metric with its unit and sample count.
"""

import argparse
import glob
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# setup probes before every child process of an untraced cycle, so that they
# sample the same stretch of host speed as the commands
SETUP_PROBES_PER_CHILD = 2
# several score processes per cycle, so that score time covers more of the run
SCORE_PROCESSES = 3
CHILD_TIMEOUT_S = 120
FLOAT_TOLERANCE = 1e-9


def log(message: str) -> None:
    print(message, flush=True)


def run_child(mode: str, *argv: str) -> str:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), mode, "--root", ROOT,
                           *argv], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def start_calibrator(path: str) -> subprocess.Popen:
    """Starts hostspeed.py and waits for its first sample."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "hostspeed.py"), path],
                            env={**os.environ, "PYTHONHASHSEED": "0"}, cwd=ROOT)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    while not (os.path.exists(path) and os.path.getsize(path)):
        if proc.poll() is not None or time.perf_counter() > deadline:
            stop(proc)
            raise RuntimeError("host speed calibrator did not start")
        time.sleep(0.05)
    return proc


def stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    proc.wait()


def measure(gen, work: str, seconds: float, trace: bool) -> dict:
    """Cycles of one ``run`` process and SCORE_PROCESSES ``score`` processes
    until ``seconds`` have passed, at least two cycles; with ``trace`` every
    second cycle is traced, with one process of each. Untraced cycles put
    SETUP_PROBES_PER_CHILD setup probes before each child. The host speed
    calibrator runs throughout, and every timing gets its ``norm_wall``."""
    out = os.path.join(work, "child.json")
    predictions = os.path.join(work, "predictions.json")
    report = os.path.join(work, "predictions.scores.json")
    speed_path = os.path.join(work, "hostspeed.txt")
    invocations, traces, rss, groups, setups = [], [], [], {}, []

    def child(mode, traced, *argv):
        if traced == "0":
            setups.extend(json.loads(run_child("setup", "--config", gen.config_path))
                          for _ in range(SETUP_PROBES_PER_CHILD))
        run_child(mode, *argv, "--trace", traced, "--out", out)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    calibrator = start_calibrator(speed_path)
    try:
        run_child("setup", "--config", gen.config_path)  # writes bytecode caches; not timed
        deadline = time.perf_counter() + seconds
        cycle = 0
        while cycle < 2 or time.perf_counter() < deadline:
            traced = str(int(trace and cycle % 2 == 1))
            run = child("run", traced, "--config", gen.config_path,
                        "--latency", str(gen.latency_s))
            scores = [child("score", traced, "--pred", predictions, "--gold", gen.claims_path,
                            "--report", report)
                      for _ in range(1 if traced == "1" else SCORE_PROCESSES)]
            invocations += run["invocations"] + [inv for sc in scores for inv in sc["invocations"]]
            groups = run["groups"]
            if traced == "1":
                traces.append((run, scores[0]))
            else:
                rss.append(max(run["peak_rss_mb"], *(sc["peak_rss_mb"] for sc in scores)))
            cycle += 1
    finally:
        stop(calibrator)

    samples = hostspeed.read_samples(speed_path)
    for inv in invocations:
        inv["norm_wall"] = hostspeed.norm_wall(inv, samples)
    return {"invocations": invocations, "traces": [fold_trace(run, score)
                                                   for run, score in traces],
            "peak_rss_mb": rss, "groups": groups,
            "setup_s": [hostspeed.norm_wall(timing, samples) for timing in setups]}


def fold_trace(run: dict, score: dict) -> dict:
    """One traced cycle: the spans of its run and score, score's parents
    shifted past run's."""
    offset = len(run["spans"])
    spans = run["spans"] + [span[:tracing.PARENT]
                            + [None if span[tracing.PARENT] is None
                               else span[tracing.PARENT] + offset]
                            + span[tracing.PARENT + 1:] for span in score["spans"]]
    run_inv, score_inv = run["invocations"][0], score["invocations"][0]
    return {"run_wall": run_inv["wall"], "run_norm_wall": run_inv["norm_wall"],
            "score_wall": score_inv["wall"], "run_counts": stderr_counts(run_inv["stderr"]),
            "spans": spans}


def load_helpers():
    """The independent oracles the test suite uses (naive BM25, brute-force
    assignment)."""
    spec = importlib.util.spec_from_file_location("zsl_kep_test_helpers",
                                                  os.path.join(ROOT, "tests", "helpers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stderr_counts(text: str) -> dict:
    counts = {}
    for line in text.splitlines():
        key, sep, value = line.rpartition(": ")
        if sep and value.isdigit():
            counts[key] = int(value)
    return counts


# --------------------------------------------------------------------------
# output checks


def check_invocations(gen, invocations: list) -> list:
    """Per-invocation checks; returns the reasons each invocation failed
    (empty list = passed). Digests must agree across every repetition."""
    majority = {}
    for command in ("run", "score"):
        digests = [inv["sha256"] for inv in invocations if inv["cmd"] == command]
        majority[command] = statistics.mode(digests) if digests else ""
    reasons = []
    for inv in invocations:
        why = []
        if inv["cmd"] == "run":
            want_exit = 2 if gen.expected_counts["failed claims"] else 0
            if inv["exit"] != want_exit:
                why.append(f"run exit {inv['exit']} != {want_exit}")
            counts = stderr_counts(inv["stderr"])
            for key, want in gen.expected_counts.items():
                if counts.get(key) != want:
                    why.append(f"run stderr {key!r} = {counts.get(key)} != {want}")
        elif inv["exit"] != 0:
            why.append(f"score exit {inv['exit']}")
        if not inv["sha256"] or inv["sha256"] != majority[inv["cmd"]]:
            why.append(f"{inv['cmd']} output digest differs between repetitions")
        reasons.append(why)
    return reasons


def check_group_sizes(gen, groups: dict) -> list:
    problems = []
    for cid, want in gen.group_sizes.items():
        sizes = [len(group) for group in groups[str(cid)]]
        if sizes != want:
            problems.append(f"claim {cid}: prompt groups {sizes} != designed {want}")
    return problems


def check_bm25(gen, helpers, groups: dict) -> list:
    """Each sampled claim's last prompt against the naive BM25 oracle.

    Where the workload designs the prompt's shape (every group present,
    possibly truncated), the claim group must be a prefix of the oracle's top
    claim_top_k minus the documents of earlier groups, of the designed
    length. Otherwise the prompt is untruncated and every group is rebuilt
    from the oracle: top k per query, documents of earlier groups skipped,
    empty groups dropped."""
    from zsl_kep.config import RunConfig
    from zsl_kep.corpus import iter_docs, load_store
    from zsl_kep.pipeline import store_path_for

    cfg = RunConfig.from_file(gen.config_path)
    problems = []
    for cid in gen.oracle_claims:
        store = load_store(store_path_for(cfg.store_dir, cid), cid)
        docs = [(ref, text) for ref, text in iter_docs(store) if text]

        def oracle_top(query, k):
            scores = helpers.naive_bm25_scores([text for _, text in docs], query,
                                               k1=cfg.k1, b=cfg.b)
            ranked = sorted((-s, ref.url_index, ref.text_index)
                            for (ref, _), s in zip(docs, scores) if s > 0)
            return [f"{u}_{t}" for _, u, t in ranked[:k]]

        prompt, queries = groups[str(cid)], gen.queries[cid]
        if cid in gen.group_sizes:
            earlier = {ref for group in prompt[:-1] for ref in group}
            expected = [ref for ref in oracle_top(queries[-1], cfg.claim_top_k)
                        if ref not in earlier]
            ok = prompt[-1] == expected[:len(prompt[-1])]
        else:
            seen, rebuilt = set(), []
            for pos, query in enumerate(queries):
                k = cfg.claim_top_k if pos == len(queries) - 1 else cfg.keypoint_top_k
                group = [ref for ref in oracle_top(query, k) if ref not in seen]
                seen.update(group)
                if group:
                    rebuilt.append(group)
            ok = rebuilt == prompt
        if not ok:
            problems.append(f"claim {cid}: retrieval groups differ from the naive BM25 oracle")
    return problems


def check_assignment(gen, helpers, predictions: str) -> list:
    """Re-score the sampled claims' evidence matrices: every entry against the
    enumerating METEOR oracle, and both ``hungarian_max`` and the score report
    against the brute-force optimum of the oracle's matrix."""
    from zsl_kep.corpus import load_claims, load_predictions
    from zsl_kep.scoring import hungarian_max, meteor

    gold = {c.claim_id: c for c in load_claims(gen.claims_path)}
    reports = {r.claim_id: r for r in load_predictions(predictions)}
    with open(os.path.splitext(predictions)[0] + ".scores.json", encoding="utf-8") as fh:
        scored = {row["claim_id"]: row for row in json.load(fh)["per_claim"]}
    problems = []
    for cid in gen.assignment_claims:
        report, record = reports[cid], gold[cid]
        sides = {
            "q_only": ([ev.question for ev in report.evidence],
                       [[g.question] for g in record.gold_evidence]),
            "q_plus_a": ([f"{ev.question} {ev.answer}" for ev in report.evidence],
                         [[f"{g.question} {a}" for a in g.answers] for g in record.gold_evidence]),
        }
        for key, (preds, golds) in sides.items():
            matrix = [[meteor(p, variants) for variants in golds] for p in preds]
            oracle = [[helpers.independent_meteor(p, variants) for variants in golds]
                      for p in preds]
            if any(abs(x - y) > FLOAT_TOLERANCE for row, want in zip(matrix, oracle)
                   for x, y in zip(row, want)):
                problems.append(f"claim {cid} {key}: meteor differs from the enumerating oracle")
            best, _ = helpers.brute_force_assignment(oracle)
            found = sum(matrix[i][j] for i, j in hungarian_max(matrix))
            if abs(found - best) > FLOAT_TOLERANCE:
                problems.append(f"claim {cid} {key}: assignment {found} != brute force {best}")
            if abs(scored[cid][key] - best / len(golds)) > FLOAT_TOLERANCE:
                problems.append(f"claim {cid} {key}: report {scored[cid][key]} != "
                                f"brute force {best / len(golds)}")
    return problems


# --------------------------------------------------------------------------
# metrics


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "zsl_kep", "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def end_to_end(gen, passed: list, setup_times: list, peak_rss_mb: list) -> dict:
    """Times are at the reference CPU speed (``norm_wall``, see hostspeed.py).
    Throughput is pooled: claims over the summed time of every invocation."""
    metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times)),
               "peak_rss_mb": (statistics.median(peak_rss_mb), "MB", len(peak_rss_mb))}
    for command in ("run", "score"):
        walls = [inv["norm_wall"] for inv in passed if inv["cmd"] == command]
        if walls:
            metrics[f"{command}_claims_per_s"] = (gen.n_claims * len(walls) / sum(walls),
                                                  "claims/s", len(walls))
    runs = [inv for inv in passed if inv["cmd"] == "run"]
    if runs:
        counts = stderr_counts(runs[0]["stderr"])
        metrics["run_failed_share"] = (counts["failed claims"] / counts["claims processed"],
                                       "ratio", len(runs))
    return metrics


def per_layer(traces: list, passed: list) -> dict:
    folded = [tracing.layer_metrics(t["spans"], t["run_wall"], t["score_wall"],
                                    t["run_counts"], workloads.WORKERS) for t in traces]
    metrics = {}
    for name in folded[0]:
        values = [m[name][0] for m in folded]
        metrics[name] = (statistics.median(values), folded[0][name][1],
                         sum(m[name][2] for m in folded))
    untraced = [inv["norm_wall"] for inv in passed
                if inv["cmd"] == "run" and not inv["traced"]]
    traced = [t["run_norm_wall"] for t in traces]
    metrics["trace_overhead_share"] = (statistics.median(traced) / statistics.median(untraced)
                                       - 1.0, "ratio", len(traced) + len(untraced))
    metrics["src_lines"] = (src_lines(), "lines", 1)
    return metrics


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (os.path.join(ROOT, "src", "zsl_kep", "cli.py"),
                   os.path.join(ROOT, "tests", "helpers.py")):
        if not os.path.exists(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a checkout "
                  f"of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.perf_counter()
    gen = workloads.GENERATORS[args.workload](work, args.seed)
    log(f"workload {gen.name} seed {args.seed}: {gen.n_claims} claims, "
        f"latency {gen.latency_s * 1000:.0f} ms/send, workers {workloads.WORKERS}, "
        f"generated in {time.perf_counter() - started:.1f} s")
    log(f"  params {json.dumps(gen.params)}")

    try:
        result = measure(gen, work, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"  measuring failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    invocations = result["invocations"]
    reasons = check_invocations(gen, invocations)
    helpers = load_helpers()
    try:
        run_problems = (check_group_sizes(gen, result["groups"])
                        + check_bm25(gen, helpers, result["groups"])
                        + check_assignment(gen, helpers, os.path.join(work, "predictions.json")))
    except Exception as exc:  # malformed output must fail the run, not the harness
        run_problems = [f"output could not be checked: {exc!r}"]
    for inv, why in zip(invocations, reasons):
        for reason in why:
            log(f"  check failed ({inv['cmd']}): {reason}")
    for problem in run_problems:
        log(f"  check failed: {problem}")
    passed = [inv for inv, why in zip(invocations, reasons) if not why]
    failed = len(invocations) - len(passed) if not run_problems else len(invocations)
    correct = failed == 0

    if args.trace:
        metrics = per_layer(result["traces"], passed) if correct else {}
    else:
        metrics = (end_to_end(gen, passed, result["setup_s"], result["peak_rss_mb"])
                   if correct else {})
    for name, (value, unit, samples) in metrics.items():
        log(f"  {name:36s} {value:14.6f} {unit:9s} n={samples}")
    log(f"  checks: {len(invocations)} invocations, {failed} failed; "
        f"{len(gen.oracle_claims)} BM25 oracle claims, "
        f"{len(gen.assignment_claims)} assignment oracle claims")

    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
