"""End-to-end benchmark of ``ftmd solve``, with a traced per-layer run.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload seed picks a fixed set of instances (see
``instances.py``), which a child process generates and writes before the
solves and again before each pass over the set; ``setup_s`` is the median
of all those generation times.

``--trace 0`` solves the instances one at a time, each in a fresh
``python -m ftmd.cli solve`` process (closed loop, one client), in whole
passes over the set for about ``T`` seconds. It reports the mean wall time
per solve process (``solve_s``), the largest resident set of any solve
process (``peak_rss_mb``) and ``setup_s``.

``--trace 1`` solves each instance in a fresh process before and after
replaying the CLI in this process four times: plain, with spans around the
public calls that ``cli.cmd_solve`` and ``dp.solve`` make, with spans
again, and plain again. It reports self times per layer from the first traced replay
(means per solve; setup layers as totals over the set), counts summed over
the set, how much of ``solve_s`` the spans cover, and what tracing costs
(the faster traced replay less the faster plain one). Spans are written to
``.bench_out/`` at the end.

Every answer is checked outside the clock (``check.py``). Each run also
solves a few oracle-sized members of the workload's family with the
workload's own command line and checks them against the brute-force oracle,
which shares no code with the solver. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits with code 2, printing no result, when the
checkout has no ``src/ftmd``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# BENCHMARK.json lists all but random-dense: on a shared 2-vCPU host, runs
# long enough to be steady fit the time budget for three workloads only.
# random-dense stays runnable by hand; every layer it exercises is also
# measured by deep-chain or verify-mid, at a smaller share of solve_s.
WORKLOADS = ("random-dense", "deep-chain", "cotree-input", "verify-mid")
SOLVE_TIMEOUT_S = 60
# Every child process is stopped by then, so a run ends well within 180 s
# even when the program hangs.
RUN_BUDGET_S = 150
IMPORT_REPS = 5

END_TO_END = (("solve_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SOLVE_LAYERS = (
    "cli.read_edge_list",
    "cli.read_weights",
    "graph.connected_components",
    "graph.induced_subgraph",
    "cotree.build_cotree",
    "cotree.format_cotree",
    "cotree.parse_cotree",
    "dp.dp_run",
    "dp.extract_connected_min",
    "resolving.is_fault_tolerant",
)
SETUP_LAYERS = ("cotree.random_cotree", "cotree.realize")
COUNTS = (
    "graph.n",
    "graph.m",
    "graph.components",
    "cotree.nodes",
    "cotree.depth",
    "dp.finite_entries",
)
PER_LAYER = (
    (("startup.import_s", "s"),)
    + tuple((f"{name}_s", "s") for name in SOLVE_LAYERS)
    + (("cotree.build_cotree.calls", "count"), ("dp.dp_run.us_per_node", "us"))
    + tuple((f"{name}_s", "s") for name in SETUP_LAYERS)
    + (("trace.unaccounted_s", "s"), ("trace.overhead_s", "s"))
    + tuple((name, "count") for name in COUNTS)
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_process(argv: list[str], deadline: float, errfile: Path) -> dict:
    """Run ``python argv`` to completion; wall time, peak RSS and output.

    The child is reaped with ``wait4`` so its own resource usage is read.
    It is killed after ``SOLVE_TIMEOUT_S`` or at the ``perf_counter`` time
    ``deadline``, whichever is sooner, and then reported with code ``None``.
    """
    # Children write and reuse cached bytecode, as an installed package does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    timeout = max(1.0, min(SOLVE_TIMEOUT_S, deadline - start))
    with open(errfile, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
            cwd=ROOT,
        )
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": None if expired.is_set() else proc.returncode,
        "out": out.decode("ascii", "replace"),
        "err": errfile.read_text(errors="replace").strip().splitlines()[-1:],
    }


def setup(workload: str, seed: int, directory: Path, deadline: float) -> dict:
    """Generate the instance set in a child process; its report as a dict."""
    res = run_process(
        [str(HERE / "instances.py"), "--workload", workload, "--seed", str(seed),
         "--dir", str(directory)],
        deadline,
        directory / "setup.err",
    )
    if res["code"] != 0:
        raise BenchError(f"instance generation failed: {res['err']}")
    return json.loads(res["out"])


def closed_loop(
    args, argvs: list[list[str]], workdir: Path, deadline: float
) -> tuple[list[dict], list[float]]:
    """Whole passes over the instances, one process at a time; the solve
    records and the generation times.

    Each pass starts by generating the instance set again, into a directory
    of its own, so that set-up is timed across the run as solves are, not
    in one phase of the host's speed. A further pass starts while, if it
    lasts as long as the last one, it ends nearer to ``args.seconds`` than
    stopping now; at least one pass runs.
    """
    runs, setup_seconds = [], []
    regen = workdir / "regen"
    regen.mkdir()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setup_seconds += setup(args.workload, args.seed, regen, deadline)["seconds"]
        for i, argv in enumerate(argvs):
            res = run_process(argv, deadline, workdir / "solve.err")
            res["instance"] = i
            runs.append(res)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > args.seconds:
            return runs, setup_seconds


class Checker:
    """Checks answers once per distinct (instance, output) pair."""

    def __init__(self, workload: str, workdir: Path, instances: list, deadline: float):
        import check
        import instances as inst_mod

        self.check = check
        self.inst_mod = inst_mod
        self.workload = workload
        self.workdir = workdir
        self.instances = instances
        self.deadline = deadline
        self.contexts: dict[int, tuple] = {}
        self.verdicts: dict[tuple, str | None] = {}

    def adjacency(self, inst) -> list[int] | None:
        """Adjacency bitsets of the instance's input file; ``None`` for a
        cotree too large to realize."""
        graph_path, _ = self.inst_mod.paths(str(self.workdir), inst)
        if inst.family != "connected":
            return self.check.read_edge_file(graph_path)[1]
        if inst.n > self.inst_mod.COTREE_CERT_N:
            return None
        with open(graph_path, encoding="ascii") as handle:
            return self.check.sexpr_adjacency(handle.read(), inst.n)

    def context_of(self, i: int) -> tuple:
        """Weights, optimal weight and adjacency of instance ``i``."""
        if i not in self.contexts:
            inst = self.instances[i]
            weights = self.inst_mod.make_weights(inst)
            expected = self.check.expected_weight(self.inst_mod.make_tree(inst), weights)
            self.contexts[i] = (weights, expected, self.adjacency(inst))
        return self.contexts[i]

    def judge(self, inst, res: dict, weights, expected: int, adj) -> str | None:
        """Why an invocation on ``inst`` failed, or ``None`` when it succeeded."""
        if res["code"] is None:
            return "timed out"
        if res["code"] != 0:
            return f"exit code {res['code']}: {' '.join(res['err'])}"
        if inst.family == "connected":
            return self.check.check_cotree_answer(res["out"], weights, expected, adj)
        return self.check.check_graph_answer(
            res["out"], adj, weights, expected, self.workload == "deep-chain"
        )

    def reason(self, i: int, res: dict) -> str | None:
        """Why an invocation on instance ``i`` failed, or ``None``."""
        key = (i, res["code"], res["out"])
        if key not in self.verdicts:
            self.verdicts[key] = self.judge(self.instances[i], res, *self.context_of(i))
        return self.verdicts[key]

    def describe(self) -> str:
        """Which checks each answer gets."""
        oracle = (
            f"; {self.inst_mod.ORACLE_INSTANCES} members of the family with "
            f"n in {self.inst_mod.ORACLE_N[0]}..{self.inst_mod.ORACLE_N[1]} solved "
            "the same way and checked against oracle_min_ft"
        )
        if self.workload == "cotree-input":
            return (
                f"at {self.inst_mod.COTREE_N} leaves: set weight and optimum by "
                "dp_run on the generating cotree; fault-tolerance certificate on "
                f"a {self.inst_mod.COTREE_CERT_N}-leaf instance of the family" + oracle
            )
        text = (
            "set weight, optimum by dp_run on the generating cotree's "
            "components, fault-tolerance certificate"
        )
        if self.workload == "deep-chain":
            text += ", printed cotree realizes the input"
        return text + oracle

    def tally(self, runs: list[dict]) -> tuple[int, dict[str, str]]:
        """Number of failed invocations and the first reason per instance."""
        failed, failures = 0, {}
        for res in runs:
            reason = self.reason(res["instance"], res)
            if reason:
                failed += 1
                failures.setdefault(self.instances[res["instance"]].name, reason)
        return failed, failures

    def reference_runs(self, seed: int) -> tuple[int, dict[str, str]]:
        """Solve small members of the workload's family in fresh processes,
        with the workload's own command line, and check each answer in full.

        The optimum of the oracle-sized members comes from ``oracle_min_ft``,
        which shares no code with the solver, so a solver that returns a
        fault-tolerant but heavier set fails here. On cotree-input a
        ``COTREE_CERT_N``-leaf member also gets the fault-tolerance
        certificate. Returns the number of instances and the failures.
        """
        from ftmd import cotree
        from ftmd.oracle import oracle_min_ft

        inst_mod = self.inst_mod
        refs = []
        for inst in inst_mod.oracle_instances(self.workload, seed):
            graph = cotree.realize(inst_mod.make_tree(inst))
            refs.append((inst, oracle_min_ft(graph, inst_mod.make_weights(inst)).weight))
        if self.workload == "cotree-input":
            inst = inst_mod.cert_instance(seed)
            weights = inst_mod.make_weights(inst)
            refs.append((inst, self.check.expected_weight(inst_mod.make_tree(inst), weights)))
        directory = str(self.workdir)
        failures = {}
        for inst, expected in refs:
            inst_mod.write_instance(directory, inst)
            res = run_process(
                inst_mod.solve_argv(directory, inst, self.workload),
                self.deadline,
                self.workdir / "ref.err",
            )
            weights = inst_mod.make_weights(inst)
            reason = self.judge(inst, res, weights, expected, self.adjacency(inst))
            if reason:
                failures[inst.name] = reason
        return len(refs), failures


def run_record(args) -> dict:
    """Where and how a run was made."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def size_line(instances: list[dict]) -> str:
    ns = sorted({d["n"] for d in instances})
    ms = [d["m"] for d in instances]
    return (
        f"{len(instances)} instances, n={'/'.join(map(str, ns))}, "
        f"m={min(ms)}..{max(ms)} (mean {statistics.fmean(ms):.0f})"
    )


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, int, int, dict]:
    report = setup(args.workload, args.seed, workdir, deadline)
    argvs = [d["argv"] for d in report["instances"]]
    # Compile bytecode and warm the file cache; users pay neither per solve.
    run_process(["-c", "import ftmd.cli"], deadline, workdir / "warm.err")
    runs, setup_seconds = closed_loop(args, argvs, workdir, deadline)
    setup_seconds += report["seconds"]

    # Only now import the package: a child's peak RSS counts the pages this
    # process holds when it forks, so this process stays small while
    # solves run.
    sys.path.insert(0, str(SRC))
    import instances as inst_mod

    instances = [inst_mod.Instance(**d["spec"]) for d in report["instances"]]
    checker = Checker(args.workload, workdir, instances, deadline)
    failed, failures = checker.tally(runs)
    refs, ref_failures = checker.reference_runs(args.seed)
    attempted = len(runs) + refs
    failed += len(ref_failures)
    failures.update(ref_failures)
    walls: dict[int, list[float]] = {}
    for res in runs:
        walls.setdefault(res["instance"], []).append(res["wall"])
    metrics = {
        # Whole passes, so this is the mean over the fixed instance set. The
        # host alternates between fast and slow phases; a mean follows the
        # share of time spent in each, where a median jumps between them.
        "solve_s": statistics.fmean(res["wall"] for res in runs),
        "peak_rss_mb": max(res["rss_mb"] for res in runs),
        "setup_s": statistics.median(setup_seconds),
    }
    info = {
        "size": size_line(report["instances"]),
        "checks": checker.describe(),
        "passes": len(runs) // len(argvs),
        "setup_seconds": [round(t, 4) for t in setup_seconds],
        "walls": [[round(w, 4) for w in ws] for ws in walls.values()],
        "failures": failures,
    }
    return metrics, attempted, failed, info


def traced(args, workdir: Path, deadline: float) -> tuple[dict, int, int, dict]:
    sys.path.insert(0, str(SRC))
    import check
    import cotree_solve
    import instances as inst_mod
    from ftmd import cli, dp
    from tracing import SETUP_TARGETS, SOLVE_TARGETS, Tracer

    instances = inst_mod.select(args.workload, args.seed)
    directory = str(workdir)
    tracer = Tracer(keep_args=("dp.dp_run",))
    with tracer.patched(SETUP_TARGETS):
        for inst in instances:
            tracer.instance = inst.name
            with tracer.span("setup"):
                inst_mod.write_instance(directory, inst)

    run_process(["-c", "import ftmd.cli"], deadline, workdir / "warm.err")
    import_s = statistics.fmean(
        run_process(["-c", "import ftmd.cli"], deadline, workdir / "imp.err")["wall"]
        for _ in range(IMPORT_REPS)
    )

    checker = Checker(args.workload, workdir, instances, deadline)
    attempted = failed = 0
    failures = {}
    walls, overheads, sizes = [], [], []
    counts = dict.fromkeys(COUNTS, 0)
    for i, inst in enumerate(instances):
        argv = inst_mod.solve_argv(directory, inst, args.workload)
        if argv[0] == "-m":
            entry, entry_argv = cli.main, argv[2:]
        else:
            entry, entry_argv = cotree_solve.main, argv[1:]
        res = run_process(argv, deadline, workdir / "solve.err")
        walls.append(res["wall"])
        attempted += 1
        if res["code"] is None:  # a replay in this process could hang too
            failed += 1
            failures[inst.name] = "timed out"
            continue
        if deadline - time.perf_counter() < 7 * res["wall"]:
            raise BenchError("the in-process replays would overrun the time budget")

        def replay(by: Tracer | None) -> tuple[float, str]:
            """Seconds and output of one in-process solve, traced by ``by``."""
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if by is None:
                    start = time.perf_counter()
                    entry(entry_argv)
                    return time.perf_counter() - start, buf.getvalue()
                with by.patched(SOLVE_TARGETS), by.span("solve") as root:
                    entry(entry_argv)
            span = by.spans[root]
            return span.end - span.start, buf.getvalue()

        # Objects this process holds would slow the replay's garbage
        # collections, which a fresh solve process does not pay.
        gc.collect()
        gc.freeze()
        tracer.instance = inst.name
        first_dp = len(tracer.calls["dp.dp_run"])
        # Plain, traced, traced, plain: neither kind always runs first, on
        # colder caches. Only the first traced replay keeps its spans.
        plain_1, _ = replay(None)
        traced_1, out = replay(tracer)
        traced_2, _ = replay(Tracer())
        plain_2, _ = replay(None)
        overheads.append(min(traced_1, traced_2) - min(plain_1, plain_2))
        # A second fresh solve after the replays, so that solve_s and the
        # replays sample the same phases of the host's speed.
        after = run_process(argv, deadline, workdir / "solve.err")
        walls.append(after["wall"])
        attempted += 1

        for fresh in (res, after):
            reason = checker.reason(i, fresh)
            if reason is None and out != fresh["out"]:
                reason = "traced replay answered differently from the CLI"
            if reason:
                failed += 1
                failures.setdefault(inst.name, reason)

        _, _, adj = checker.context_of(i)
        if adj is None:
            tree = inst_mod.make_tree(inst)
            m = inst_mod.edge_count(tree)
            counts["graph.components"] += len(check.top_components(tree))
        else:
            m = sum(map(int.bit_count, adj)) // 2
            counts["graph.components"] += len(set(check.components(inst.n, adj)))
        sizes.append({"n": inst.n, "m": m})
        counts["graph.n"] += inst.n
        counts["graph.m"] += m
        depth = 0
        for dp_tree, dp_weights in tracer.calls["dp.dp_run"][first_dp:]:
            values: list = []
            dp.dp_run(dp_tree, dp_weights, values)
            counts["cotree.nodes"] += len(values)
            counts["dp.finite_entries"] += sum(len(dp.finite_states(v)) for _, v in values)
            depth = max(depth, inst_mod.tree_depth(dp_tree))
        counts["cotree.depth"] += depth

    refs, ref_failures = checker.reference_runs(args.seed)
    attempted += refs
    failed += len(ref_failures)
    failures.update(ref_failures)

    k = len(instances)
    self_times = tracer.self_times()
    roots = tracer.roots()
    per_solve = dict.fromkeys(SOLVE_LAYERS + SETUP_LAYERS + ("calls",), 0.0)
    for s, t, r in zip(tracer.spans, self_times, roots):
        if s.name not in per_solve:
            continue
        if tracer.spans[r].name == "solve":
            per_solve[s.name] += t / k
            if s.name == "cotree.build_cotree":
                per_solve["calls"] += 1 / k
        elif s.name in SETUP_LAYERS:
            per_solve[s.name] += t
    solve_s = statistics.fmean(walls)
    metrics = {"startup.import_s": import_s}
    for name in SOLVE_LAYERS:
        metrics[f"{name}_s"] = per_solve[name]
    metrics["cotree.build_cotree.calls"] = per_solve["calls"]
    nodes = counts["cotree.nodes"]
    metrics["dp.dp_run.us_per_node"] = per_solve["dp.dp_run"] * k / nodes * 1e6
    for name in SETUP_LAYERS:
        metrics[f"{name}_s"] = per_solve[name]
    metrics["trace.unaccounted_s"] = solve_s - import_s - sum(
        per_solve[name] for name in SOLVE_LAYERS
    )
    metrics["trace.overhead_s"] = statistics.fmean(overheads)
    metrics.update(counts)

    info = {
        "size": size_line(sizes),
        "checks": checker.describe(),
        "solve_s": solve_s,
        "failures": failures,
        "spans": tracer.to_json(),
    }
    return metrics, attempted, failed, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ftmd" / "cli.py").is_file():
        print(f"error: no ftmd sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM unwind normally, so the solve process is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, info = measure(args, workdir, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        with open(trace_path, "w", encoding="ascii") as handle:
            json.dump({"record": record, "spans": info.pop("spans")}, handle)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"# workload {args.workload}: {info.pop('size')}")
    print("# record " + json.dumps(record))
    print("# " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} frac")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
