"""End-to-end benchmark of the proofopt CLI on its real subprocess and HTTP
backends, with a fake Lean checker and a fake completion endpoint.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a proofopt checkout; it uses src/ and tests/ there
and writes only under .bench_run/. With --trace 0 it times CLI processes and
reports the end-to-end metrics; with --trace 1 it runs the CLI in-process
with spans around each layer and reports the per-layer metrics. The last
line of stdout is one JSON object. See bench/NOTES.md for the model.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

import answer_key  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import model  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 7


class Env:
    """Paths and process settings shared by every invocation of one run."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.data_dir = root / "tests" / "data"
        self.tmp = run_dir / "tmp"
        self.tmp.mkdir(parents=True)
        self.python = sys.executable
        # Bytecode is cached, as an installed package's would be, under a
        # prefix inside the checkout that outlives the run.
        self.pycache = root / ".bench_run" / "pycache"
        self.cli_env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            TMPDIR=str(self.tmp),
            PYTHONPYCACHEPREFIX=str(self.pycache),
        )
        self.cli_env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.cli_env.pop("PROOFOPT_API_KEY", None)

    def write_jsonl(self, name: str, rows) -> Path:
        path = self.run_dir / name
        with path.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
        return path

    def checker_template(self, key: Path, log: Path) -> str:
        parts = [
            self.python, "-S", str(HERE / "fake_checker.py"), "--key", str(key), "--log", str(log),
        ]
        return " ".join(shlex.quote(p) for p in parts) + " {file}"


def _read_log(path: Path, run: str | None = None) -> list:
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [r for r in rows if run is None or r.get("run") == run]


class Invocation:
    """One timed pass of a workload: its CLI commands, outputs and costs."""

    def __init__(self, directory: Path, run_id: str):
        self.dir = directory
        self.run_id = run_id
        self.wall = 0.0
        self.rss_mb = 0.0
        self.exit_codes: list = []
        self.outputs: dict = {}

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\0" + self.outputs[name].encode() + b"\0")
        return h.hexdigest()


def run_subprocess(env: Env, argv, stdout_path: Path):
    """Run one CLI process; returns (wall seconds, peak RSS MB, exit code)."""
    with stdout_path.open("w") as out, stdout_path.with_suffix(".err").open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [env.python, "-m", "proofopt.cli", *argv],
            stdout=out, stderr=err, env=env.cli_env, cwd=env.root,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_inprocess(cli, argv, stdout_path: Path):
    """Run the CLI in this process; returns (wall seconds, exit code)."""
    with stdout_path.open("w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            cli.main(list(argv), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return wall, code


class ShortenWorkload:
    """`proofopt shorten --measure length` over the eight fixtures, then
    `estimate` and `report --kind atk` over the candidates it sampled."""

    def __init__(self, env: Env, seed: int, repair: bool):
        self.env = env
        self.repair = repair
        self.records = inputs.fixture_records(env.data_dir)
        # repair-length's strict key and larger drop share make every sampled
        # candidate fail, so the repair stage runs in every iteration.
        share, minimum = (0.4, 8) if repair else (0.0, 2)
        self.key = inputs.make_answer_key(self.records, seed, share, minimum)
        self.input = env.write_jsonl("records.jsonl", self.records)
        self.key_path = env.run_dir / "key.marshal"
        answer_key.dump(self.key, self.key_path)
        self.endpoint_log = env.run_dir / "endpoint.jsonl"
        self.endpoint = subprocess.Popen(
            [
                env.python, "-S", str(HERE / "fake_endpoint.py"),
                "--key", str(self.key_path), "--log", str(self.endpoint_log),
                "--seed", str(seed),
                "--drop", str(model.REPAIR_DROP_SHARE if repair else model.SHORTEN_DROP_SHARE),
            ],
            stdout=subprocess.PIPE, text=True, cwd=env.root, env=env.cli_env,
        )
        try:
            self.port = int(self.endpoint.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("the fake endpoint did not start") from None

    @property
    def items(self) -> int:
        return len(self.records)

    def config(self, directory: Path, run_id: str) -> Path:
        url = f"http://127.0.0.1:{self.port}/r/{run_id}"
        generator = {"model": "fake", "max_parallel": model.CONCURRENCY, "timeout": 60}
        cfg = {
            "backends": {
                "verifier": {
                    "kind": "subprocess_verifier",
                    "command_template": self.env.checker_template(
                        self.key_path, directory / "checker.jsonl"
                    ),
                    "max_parallel": model.CONCURRENCY,
                    "timeout": 60,
                },
                "simplifier": {"kind": "http_simplifier", "endpoint_url": f"{url}/simplify", **generator},
                "repairer": {"kind": "http_repairer", "endpoint_url": f"{url}/repair", **generator},
            },
            "schedule": model.SCHEDULE,
            "repair_budget": model.REPAIR_BUDGET,
        }
        path = directory / "config.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def commands(self, directory: Path, run_id: str, oracle):
        """The invocation's CLI commands, made one at a time: `shorten`, then
        `estimate` and `report --kind atk` over the candidates it sampled."""
        cfg = self.config(directory, run_id)
        out = directory / "out.jsonl"
        yield "shorten", [
            "--config", str(cfg), "--workers", str(model.CONCURRENCY), "--workdir", str(directory / "work"),
            "shorten", str(self.input), "-o", str(out),
            "--measure", "length", "--repair", "on" if self.repair else "off",
        ], out
        try:
            rows = [r for rows in checks.parse_shorten(out.read_text())[0].values() for r in rows]
        except (OSError, ValueError, KeyError):
            rows = []
        samples = inputs.candidate_samples(rows, oracle)
        if not samples:
            return  # the shorten check reports the failure
        path = directory / "samples.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in samples))
        ks = [a for k in inputs.ATK_KS for a in ("-k", str(k))]
        yield "estimate", ["estimate", str(path), *ks, "-o", str(directory / "est.jsonl")], directory / "est.jsonl"
        yield "atk", ["report", str(path), "--kind", "atk", *ks, "-o", str(directory / "atk.jsonl")], directory / "atk.jsonl"

    def check(self, inv: Invocation, oracle):
        failed, problems, summary = checks.check_shorten(
            inv.outputs.get("shorten", ""), inv.dir / "work", self.records, self.key,
            model.SCHEDULE_LEN, oracle,
        )
        samples_path = inv.dir / "samples.jsonl"
        if samples_path.exists():
            samples = [json.loads(line) for line in samples_path.read_text().splitlines()]
            reference = checks.reference_atk(samples, inputs.ATK_KS)
            for name in ("estimate", "atk"):
                found = checks.check_atk(inv.outputs.get(name, ""), reference, name)
                problems += found
                if found:
                    failed |= {r["id"] for r in self.records}
        else:
            problems.append(f"{inv.run_id}: no candidate samples for estimate and report")
        return failed, problems, summary["mean_reduction"] if summary else 0.0

    def fake_logs(self, inv: Invocation):
        return _read_log(inv.dir / "checker.jsonl"), _read_log(self.endpoint_log, inv.run_id)

    def close(self):
        self.endpoint.terminate()
        self.endpoint.wait(timeout=30)
        self.endpoint.stdout.close()


WORKLOADS = {
    "shorten-length": lambda env, seed: ShortenWorkload(env, seed, repair=False),
    "repair-length": lambda env, seed: ShortenWorkload(env, seed, repair=True),
}


def invoke(env, workload, number: int, runner, oracle) -> Invocation:
    directory = env.run_dir / f"inv{number}"
    directory.mkdir()
    inv = Invocation(directory, f"inv{number}")
    for name, argv, output in workload.commands(directory, inv.run_id, oracle):
        wall, rss_mb, code = runner(argv, output)
        inv.wall += wall
        inv.rss_mb = max(inv.rss_mb, rss_mb)
        inv.exit_codes.append(code)
        inv.outputs[name] = output.read_text(encoding="utf-8") if output.exists() else ""
    return inv


def measure_setup(env: Env, workload) -> float:
    """Median wall time of a CLI process that imports, loads its config and
    exits: `lint` over an empty input."""
    directory = env.run_dir / "setup"
    directory.mkdir()
    cfg = workload.config(directory, "setup")
    empty = directory / "empty.jsonl"
    empty.write_text("")
    argv = ["--config", str(cfg), "lint", str(empty)]
    times = []
    for i in range(SETUP_SAMPLES + 1):  # the first fills the bytecode cache
        wall, _, code = run_subprocess(env, argv, directory / "out.txt")
        if code != 0:
            raise RuntimeError(f"set-up command exited {code}: {(directory / 'out.err').read_text()}")
        if i:
            times.append(wall)
    return statistics.median(times)


class Tally:
    """Items attempted and failed across invocations, plus problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, workload, inv: Invocation, oracle, reference_digest: str) -> float:
        """Check one invocation; returns the mean reduction it reported."""
        failed, problems, reduction = workload.check(inv, oracle)
        failed = len(failed)
        if any(code != 0 for code in inv.exit_codes):
            problems = problems + [f"{inv.run_id}: exit codes {inv.exit_codes}"]
            failed = workload.items
        if inv.digest() != reference_digest:
            problems = problems + [f"{inv.run_id}: output differs from the first invocation"]
            failed = workload.items
        self.attempted += workload.items
        self.failed += failed
        self.problems += problems
        return reduction


def _loop(seconds: float, minimum: int, step):
    """Call step() at least `minimum` times, then while another call of the
    median length still fits in `seconds`."""
    durations = []
    start = time.perf_counter()
    while len(durations) < minimum or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def untraced_run(env, workload, seconds, oracle):
    setup_s = measure_setup(env, workload)
    passes = []
    _loop(seconds, 2, lambda: passes.append(
        invoke(env, workload, len(passes), lambda a, o: run_subprocess(env, a, o), oracle)
    ))
    tally = Tally()
    per_pass = []
    for inv in passes:
        reduction = tally.add(workload, inv, oracle, passes[0].digest())
        checker, endpoint = workload.fake_logs(inv)
        per_pass.append({
            "wall_s": inv.wall,
            "peak_rss_mb": inv.rss_mb,
            "mean_reduction": reduction,
            **backend_costs(checker, endpoint, workload.items),
        })
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["setup_s"] = setup_s
    metrics["ok_share"] = 1 - tally.failed / tally.attempted
    metrics["failed_share"] = tally.failed / tally.attempted
    metrics["invocations"] = len(passes)
    return metrics, tally


def backend_costs(checker, endpoint, items: int) -> dict:
    """Per-proof costs as the fake checker and endpoint logged them."""
    return {
        "verify_calls_per_proof": len(checker) / items,
        "checker_s_per_proof": sum(r["end"] - r["start"] for r in checker) / items,
        "gen_calls_per_proof": len(endpoint) / items,
        "gen_completions_per_proof": sum(r["n"] for r in endpoint) / items,
    }


def traced_run(env, workload, seconds, oracle):
    """Alternate untraced and traced in-process invocations; per-layer
    metrics come from the last traced one."""
    subprocess.run([env.python, "-c", "import proofopt.cli"], env=env.cli_env, check=True)
    sys.pycache_prefix = str(env.pycache)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(env.root / "src"))
    start = time.perf_counter()
    import proofopt.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(env.root / "src"):
        raise RuntimeError(f"imported proofopt from {cli.__file__}, not from this checkout")
    tempfile.tempdir = str(env.tmp)

    def runner(argv, output):
        wall, code = run_inprocess(cli, argv, output)
        return wall, 0.0, code

    runs = []

    def pair():
        for traced in (False, True):
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                inv = invoke(env, workload, len(runs), runner, oracle)
            finally:
                if tracer:
                    tracer.uninstall()
            runs.append((inv, tracer))

    _loop(seconds, 1, pair)
    tally = Tally()
    for inv, _ in runs:
        tally.add(workload, inv, oracle, runs[0][0].digest())
    inv, tracer = runs[-1]
    spans_dir = env.root / ".bench_run" / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.write(spans_dir / f"{env.run_dir.name.rsplit('-', 1)[0]}.jsonl")
    checker, endpoint = workload.fake_logs(inv)
    metrics = tracing.layer_metrics(tracer.spans, checker, endpoint)
    logged = {
        "backends.verify.calls": len(checker),
        "backends.simplify.calls": sum(r["kind"] == "simplify" for r in endpoint),
        "backends.repair.calls": sum(r["kind"] == "repair" for r in endpoint),
        "backends.simplify.dropped": sum(r["unfenced"] for r in endpoint),
    }
    for name, count in logged.items():
        if metrics[name] != count:
            tally.problems.append(f"traced {name} = {metrics[name]}, the fakes logged {count}")
            tally.failed = min(tally.attempted, tally.failed + workload.items)
    walls = {t: [i.wall for i, tr in runs if (tr is not None) == t] for t in (False, True)}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["cli.import_s"] = import_s
    metrics.update(backend_costs(checker, endpoint, workload.items))
    metrics["invocations"] = len(runs)
    return metrics, tally


def unit_of(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not declare."""
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s", "_s_per_proof")):
        return "s"
    if name.endswith("share"):
        return "ratio"
    return "count"


def report(args, metrics: dict, tally: Tally, declared: dict) -> int:
    """Print every metric as a table, then the result line with the declared
    metrics only."""
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed}")
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:.6g} {declared.get(name) or unit_of(name)}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the fakes and the CLI get stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd().resolve()
    needed = [
        root / "BENCHMARK.json",
        root / "src" / "proofopt" / "cli.py",
        root / "tests" / "lexer_oracle.py",
        root / "tests" / "data",
    ]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a proofopt checkout, missing {missing}", file=sys.stderr)
        return 2
    run_dir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = Env(root, run_dir)
    oracle = checks.load_oracle(root)
    workload = None
    try:
        workload = WORKLOADS[args.workload](env, args.seed)
        runner = traced_run if args.trace else untraced_run
        metrics, tally = runner(env, workload, args.seconds, oracle)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    return report(args, metrics, tally, declared)


if __name__ == "__main__":
    sys.exit(main())
