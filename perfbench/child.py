"""One fresh interpreter of the benchmark; ``run.py`` starts it.

    child.py setup --root R --config C
    child.py run   --root R --config C --latency S --trace 0|1 --out result.json
    child.py score --root R --pred P --gold G --report J --trace 0|1 --out result.json

``setup`` times what a user waits for before the first claim: importing
``zsl_kep.cli`` and parsing the config, claims and mock script with the
package's own loaders.

``run`` swaps ``LatencyMockBackend`` in for the ``MockBackend`` name the CLI
resolves (the only substitution) and calls ``zsl_kep.cli.main(["run", ...])``;
``score`` calls ``zsl_kep.cli.main(["score", ...])``. Each is its own process,
as for a user of the CLI: a ``score`` timed in the process that has just
held a large ``run`` varied by a third with the heap that run left behind.
Untraced, the command is repeated until it has taken MIN_PHASE_S, so short
invocations still give a stable median; traced, it runs once under the
tracer. The result file holds every invocation's wall time, exit code,
stderr and output digest, the process's peak RSS, the spans of a traced
invocation and, for ``run``, the retrieval groups of the prompts the mock
recorded.

Every child pins itself to one CPU, the one ``hostspeed.py`` times its
calibration chunk on, and reports each command's wall and process CPU time
with its start and end on the monotonic clock; ``run.py`` turns them into
``norm_wall`` (see ``hostspeed.py``). The run's worker threads share the one
CPU; the GIL runs their Python code one at a time anyway.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time

MIN_PHASE_S = 1.0
_DOC_TAG = re.compile(r"\s<(\d+)_(\d+)>$")


def _import_package(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))


def timed(fn):
    """Calls fn(); returns its result and the timing: wall and process CPU
    time, start and end on the clock the calibrator stamps its chunks with."""
    start, cpu_start = time.perf_counter(), time.process_time()
    result = fn()
    cpu, end = time.process_time() - cpu_start, time.perf_counter()
    return result, {"start": start, "end": end, "wall": end - start, "cpu": cpu}


def setup(args) -> None:
    def load():
        _import_package(args.root)
        from zsl_kep import cli

        cfg = cli.RunConfig.from_file(args.config)
        cfg.validate()
        cli.load_claims(cfg.claims_path)
        cli.MockBackend.from_file(cfg.mock_script_path)

    print(json.dumps(timed(load)[1]))


def latency_backend(latency_s: float):
    """A MockBackend subclass whose every send first waits ``latency_s``, the
    stand-in for an LLM's reply time. The latest instance is kept so the
    prompts the mock recorded can be checked after a run."""
    from zsl_kep.llm_gateway import MockBackend

    class LatencyMockBackend(MockBackend):
        latest = None

        def __init__(self, scripts):
            super().__init__(scripts)
            LatencyMockBackend.latest = self

        def send(self, request, claim_id=None):
            time.sleep(latency_s)
            return super().send(request, claim_id)

    return LatencyMockBackend


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _invoke(cli, command: str, argv: list, output: str, traced: bool) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, timing = timed(lambda: cli.main([command, *argv]))
    return {"cmd": command, "traced": traced, **timing, "exit": code, "stderr": err.getvalue(),
            "sha256": _digest(output) if os.path.exists(output) else ""}


def _prompt_groups(backend, claim_id: int, separator: str) -> list:
    """Citation ids per retrieval group of the last prompt sent for a claim."""
    prompt = backend.calls_for(claim_id)[-1].user_message
    groups = []
    for part in prompt.split(separator):
        ids = [f"{m.group(1)}_{m.group(2)}" for m in map(_DOC_TAG.search, part.splitlines()) if m]
        groups.append(ids)
    return groups


def _repeat(cli, command: str, argv: list, output: str, tracer) -> list:
    if tracer is not None:
        with tracer:
            return [_invoke(cli, command, argv, output, True)]
    invocations, spent = [], 0.0
    while spent < MIN_PHASE_S:
        invocations.append(_invoke(cli, command, argv, output, False))
        spent += invocations[-1]["wall"]
    return invocations


def measure(args) -> None:
    _import_package(args.root)
    import resource

    from zsl_kep import cli
    from zsl_kep.pipeline import GROUP_SEPARATOR

    import tracing

    result = {}
    if args.mode == "run":
        backend_cls = latency_backend(args.latency)
        tracer = tracing.Tracer(backend_cls) if args.trace else None
        original = cli.MockBackend
        cli.MockBackend = backend_cls
        try:
            output = cli.RunConfig.from_file(args.config).output_path
            result["invocations"] = _repeat(cli, "run", ["--config", args.config], output, tracer)
        finally:
            cli.MockBackend = original
        backend = backend_cls.latest
        claim_ids = sorted({claim_id for claim_id, _ in backend.requests})
        result["groups"] = {cid: _prompt_groups(backend, cid, GROUP_SEPARATOR)
                            for cid in claim_ids}
    else:
        tracer = tracing.Tracer(None) if args.trace else None
        argv = ["--pred", args.pred, "--gold", args.gold, "--report", args.report]
        result["invocations"] = _repeat(cli, "score", argv, args.report, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.export() if tracer is not None else []
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "score"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--config")
    parser.add_argument("--latency", type=float, default=0.0)
    parser.add_argument("--pred")
    parser.add_argument("--gold")
    parser.add_argument("--report")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    (setup if args.mode == "setup" else measure)(args)


if __name__ == "__main__":
    main()
