"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 input error, 2 configuration error, 3 backend
failure (partial output already persisted).
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import lexer, reports, training_data
from .backends import make_repairer, make_simplifier, make_verifier
from .config import RunConfig, parse_schedule
from .errors import (
    BackendUnavailable,
    ConfigError,
    EmptyDataset,
    InvalidK,
    NoProofDelimiter,
    NotValidInput,
    ZeroOriginal,
)
# min_at_k and red_at_k stay importable here: bench/tracing.py wraps them in this module.
from .estimators import SampleSet, min_at_k, red_at_k  # noqa: F401
from .linter import lint_fixpoint
from .records import Measure, ProofRecord, read_jsonl, write_jsonl
from .shortener import ShorteningTrace, iteration_from_json, shorten_loop

EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(ctx) -> RunConfig:
    params = ctx.obj
    try:
        cfg = RunConfig.load(params["config"]) if params["config"] else RunConfig()
        if params["seed"] is not None:
            cfg.seed = params["seed"]
        if params["workers"] is not None:
            cfg.parallel_workers = params["workers"]
        if params["workdir"] is not None:
            cfg.workdir = Path(params["workdir"])
        cfg.apply_seed()
        return cfg
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))


def _read_records(path_or_stream) -> list[ProofRecord]:
    try:
        rows = read_jsonl(path_or_stream)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    records = []
    for i, row in enumerate(rows):
        try:
            records.append(ProofRecord.from_json(row))
        except (KeyError, TypeError) as exc:
            _fail(EXIT_INPUT, f"record {row.get('id', i)!r}: missing field {exc}")
    return records


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--workdir", type=click.Path(file_okay=False), default=None)
@click.pass_context
def main(ctx, config, seed, workers, workdir):
    """Proof shortening toolkit."""
    ctx.obj = {"config": config, "seed": seed, "workers": workers, "workdir": workdir}


@main.command()
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
def length(files):
    """Token length of each input proof.

    With file arguments, .jsonl files are read as proof records and anything
    else as one raw statement-plus-proof per file. Without arguments, proof
    records are read from stdin as JSONL.
    """

    def emit(label: str, source: str):
        try:
            click.echo(f"{label}\t{lexer.proof_length(source)}")
        except NoProofDelimiter:
            click.echo(f"warning: {label}: no proof delimiter", err=True)
            click.echo(f"{label}\t{lexer.SENTINEL_LENGTH}")

    if not files:
        for record in _read_records(sys.stdin):
            emit(record.id, record.full_source)
        return
    for name in files:
        path = Path(name)
        if path.suffix == ".jsonl":
            with path.open() as handle:
                for record in _read_records(handle):
                    emit(record.id, record.full_source)
        else:
            emit(str(path), path.read_text())


@main.command()
@click.argument("input", type=click.File("r"))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.option("--rounds", type=int, default=10, show_default=True)
@click.pass_context
def lint(ctx, input, output, rounds):
    """Remove do-nothing tactics from each proof until a fixpoint."""
    cfg = _load_config(ctx)
    try:
        verifier = make_verifier(cfg.backend("verifier"))
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    records = _read_records(input)
    out = []
    for record in records:
        try:
            linted = lint_fixpoint(record, verifier, max_rounds=rounds)
        except NotValidInput as exc:
            _fail(EXIT_INPUT, str(exc))
        row = linted.to_json()
        row["length"] = lexer.proof_length(linted.full_source)
        out.append(row)
    write_jsonl(output, out)


def _trace_path(workdir: Path, proof_id: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in proof_id)
    return workdir / "traces" / f"{safe}.jsonl"


def _load_partial(path: Path, limit: int):
    """Iterations already persisted at path. The file is cut back to its last
    complete record, so that the next record appended starts a line."""
    if not path.exists():
        return None
    done = []
    complete = 0
    with path.open("r+b") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break  # interrupted mid-write; redo from here
            try:
                done.append(iteration_from_json(json.loads(line)))
            except (ValueError, KeyError):
                break
            complete += len(line)
        handle.truncate(complete)
    return done[:limit] or None


@main.command()
@click.argument("input", type=click.File("r"))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.option("--schedule", "schedule_spec", default=None, help="e.g. 64x6,1024x2@1.5")
@click.option(
    "--measure", "measure_name", type=click.Choice(["length", "heartbeats"]), default=None
)
@click.option("--repair", "repair_flag", type=click.Choice(["on", "off"]), default=None)
@click.pass_context
def shorten(ctx, input, output, schedule_spec, measure_name, repair_flag):
    """Iteratively shorten each input proof; stream traces plus a summary."""
    cfg = _load_config(ctx)
    if measure_name:
        cfg.measure = Measure(measure_name)
    if repair_flag:
        cfg.repair = repair_flag == "on"
    try:
        schedule = parse_schedule(schedule_spec or cfg.schedule)
        verifier_cfg = cfg.backend("verifier")
        simplifier_cfg = cfg.backend("simplifier")
        repairer = make_repairer(cfg.backend("repairer")) if cfg.repair else None
        verifier = make_verifier(verifier_cfg)
        simplifier = make_simplifier(simplifier_cfg)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    records = _read_records(input)
    if not records:
        _fail(EXIT_CONFIG, "empty input")
    if cfg.workdir:
        (cfg.workdir / "traces").mkdir(parents=True, exist_ok=True)

    def run_one(record: ProofRecord) -> ShorteningTrace:
        sink = None
        resume = None
        if cfg.workdir:
            path = _trace_path(cfg.workdir, record.id)
            resume = _load_partial(path, len(schedule))
            mode = "a" if resume else "w"
            handle = path.open(mode)

            def sink(itrec):
                handle.write(json.dumps(itrec.to_json(), ensure_ascii=False) + "\n")
                handle.flush()

        try:
            return shorten_loop(
                record,
                schedule,
                simplifier,
                verifier,
                cfg.measure,
                repairer=repairer,
                repair_budget=cfg.repair_budget,
                on_iteration=sink,
                resume_from=resume,
            )
        finally:
            if cfg.workdir:
                handle.close()

    try:
        if cfg.parallel_workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.parallel_workers) as pool:
                traces = list(pool.map(run_one, records))
        else:
            traces = [run_one(r) for r in records]
    except BackendUnavailable as exc:
        _fail(EXIT_BACKEND, f"backend outage, partial traces persisted: {exc}")

    befores, afters = [], []
    for trace in traces:
        for itrec in trace.iterations:
            row = {"proof_id": trace.proof_id, **itrec.to_json()}
            output.write(json.dumps(row, ensure_ascii=False) + "\n")
        befores.append(trace.iterations[0].score_before)
        afters.append(trace.iterations[-1].score_after)
    reductions = [1 - a / b for a, b in zip(afters, befores) if b > 0]
    summary = {
        "summary": {
            "count": len(traces),
            "measure": cfg.measure.value,
            "mean_before": sum(befores) / len(befores),
            "mean_after": sum(afters) / len(afters),
            "mean_reduction": sum(reductions) / len(reductions) if reductions else 0.0,
        }
    }
    output.write(json.dumps(summary, ensure_ascii=False) + "\n")


def _sample_sets(rows) -> list[SampleSet]:
    sets = []
    for i, row in enumerate(rows):
        try:
            candidates = tuple(zip(row["scores"], row["valid"], strict=True))
            sets.append(SampleSet(original_score=row["original"], candidates=candidates))
        except (KeyError, ValueError) as exc:
            _fail(EXIT_INPUT, f"sample record {row.get('id', i)!r}: {exc}")
    return sets


@main.command()
@click.argument("input", type=click.File("r"))
@click.option("-k", "ks", type=int, multiple=True, required=True)
@click.option("-o", "--output", type=click.File("w"), default="-")
def estimate(input, ks, output):
    """Dataset-mean min@k and red@k from per-proof sample files."""
    try:
        rows = read_jsonl(input)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    if not rows:
        _fail(EXIT_CONFIG, "empty input")
    try:
        table = reports.atk_table(_sample_sets(rows), sorted(ks))
    except (InvalidK, ZeroOriginal) as exc:
        _fail(EXIT_INPUT, str(exc))
    write_jsonl(output, table)


@main.group()
def dataset():
    """Build and serialize training datasets."""


@dataset.command("build")
@click.option("--seeds", type=click.File("r"), required=True)
@click.option("--results", type=click.File("r"), required=True)
@click.option("--ancestry", type=click.File("r"), default=None)
@click.option("--iteration", type=int, default=0)
@click.option("-o", "--output", type=click.File("w"), default="-")
def dataset_build(seeds, results, ancestry, iteration, output):
    """Pair seed proofs with their verified best simplifications."""
    from .backends import Verdict, VerdictStatus

    seed_records = _read_records(seeds)
    try:
        result_rows = read_jsonl(results)
        ancestry_rows = read_jsonl(ancestry) if ancestry else []
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    iteration_results = {}
    for row in result_rows:
        record = ProofRecord.from_json(row)
        verdict = Verdict(VerdictStatus.VALID) if row.get("valid") else None
        iteration_results[record.id] = (record, verdict)
    ancestors = {row["id"]: ProofRecord.from_json(row["ancestor"]) for row in ancestry_rows}
    try:
        pairs = training_data.build_expit_dataset(
            seed_records, iteration_results, ancestors, origin_iteration=iteration
        )
    except Exception as exc:
        _fail(EXIT_INPUT, str(exc))
    write_jsonl(
        output,
        (
            {
                "input": p.input_proof.to_json(),
                "output": p.output_proof.to_json(),
                "iteration": p.origin_iteration,
                "transitive": p.transitive,
            }
            for p in pairs
        ),
    )


@dataset.command("filter-trivial")
@click.argument("input", type=click.File("r"))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.pass_context
def dataset_filter_trivial(ctx, input, output):
    """Drop theorems the automation cascade proves on its own."""
    cfg = _load_config(ctx)
    try:
        verifier = make_verifier(cfg.backend("verifier"))
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    records = _read_records(input)
    kept, discarded = training_data.filter_trivial(records, verifier)
    write_jsonl(output, (r.to_json() for r in kept))
    click.echo(f"kept {len(kept)} discarded {len(discarded)}", err=True)


@dataset.command("emit-sft")
@click.argument("input", type=click.File("r"))
@click.option("-o", "--output", type=click.File("w"), default="-")
def dataset_emit_sft(input, output):
    """Serialize simplification pairs as prompt/completion records."""
    try:
        rows = read_jsonl(input)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    pairs = []
    for row in rows:
        try:
            pairs.append(
                training_data.SimplificationPair(
                    input_proof=ProofRecord.from_json(row["input"]),
                    output_proof=ProofRecord.from_json(row["output"]),
                    origin_iteration=row.get("iteration", 0),
                    transitive=row.get("transitive", False),
                )
            )
        except KeyError as exc:
            _fail(EXIT_INPUT, f"pair record missing field {exc}")
    write_jsonl(output, training_data.emit_sft_records(pairs))


@main.command()
@click.argument("input", type=click.File("r"))
@click.option("-o", "--output", type=click.File("w"), default="-")
@click.option(
    "--literal-sign",
    is_flag=True,
    help="use the raw (new - old)/old delta instead of positive shortening",
)
def reward(input, output, literal_sign):
    """Group-relative rewards and advantages for candidate simplifications."""
    try:
        rows = read_jsonl(input)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    out = []
    for i, row in enumerate(rows):
        try:
            original = ProofRecord.from_json(row)
            candidates = [
                (
                    ProofRecord(
                        id=f"{original.id}#{j}",
                        statement=c.get("statement", original.statement),
                        proof=c["proof"],
                    ),
                    bool(c["valid"]),
                )
                for j, c in enumerate(row["candidates"])
            ]
        except (KeyError, TypeError) as exc:
            _fail(EXIT_INPUT, f"reward record {row.get('id', i)!r}: {exc}")
        try:
            group = training_data.compute_rewards(
                original, candidates, positive_shortening=not literal_sign
            )
        except ZeroOriginal as exc:
            _fail(EXIT_INPUT, str(exc))
        out.append(
            {
                "id": group.prompt_id,
                "group_size": group.group_size,
                "entries": [
                    {
                        "reward": e.reward,
                        "advantage": e.advantage,
                        "valid": e.valid,
                        "omit": e.omit,
                    }
                    for e in group.entries
                ],
            }
        )
    write_jsonl(output, out)


@main.command()
@click.argument("input", type=click.File("r"))
@click.option(
    "--kind",
    type=click.Choice(["corpus", "atk", "repair", "speedup"]),
    required=True,
)
@click.option("-k", "ks", type=int, multiple=True, help="k values for --kind atk")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--gnuplot", "gnuplot_path", type=click.Path(dir_okay=False), default=None)
@click.option("-o", "--output", type=click.File("w"), default="-")
def report(input, kind, ks, csv_path, gnuplot_path, output):
    """Aggregate statistics over scores, samples, traces, or timings."""
    try:
        rows = read_jsonl(input)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    if not rows:
        _fail(EXIT_CONFIG, "empty input")
    try:
        if kind == "corpus":
            scores = [
                row["score"]
                if "score" in row
                else lexer.proof_length(ProofRecord.from_json(row).full_source)
                for row in rows
            ]
            table = [reports.corpus_stats(scores).as_row()]
        elif kind == "atk":
            if not ks:
                _fail(EXIT_CONFIG, "--kind atk needs at least one -k")
            table = reports.atk_table(_sample_sets(rows), sorted(ks))
        elif kind == "repair":
            traces = _traces_from_rows(rows)
            table = [reports.repair_accounting(traces)]
        else:
            timings = [(row["time_orig"], row["time_new"]) for row in rows]
            rep = reports.speedup_report(timings)
            table = rep.as_rows() + [{"over_1.1x": rep.over_1_1, "over_1.5x": rep.over_1_5}]
    except (KeyError, ValueError, EmptyDataset, InvalidK, NoProofDelimiter) as exc:
        _fail(EXIT_INPUT, f"bad report input: {exc}")
    if csv_path:
        reports.write_csv([t for t in table if len(t) == len(table[0])], csv_path)
        if gnuplot_path:
            reports.write_gnuplot_stub(csv_path, gnuplot_path)
    write_jsonl(output, table)


def _traces_from_rows(rows) -> list[ShorteningTrace]:
    by_proof: dict[str, ShorteningTrace] = {}
    for row in rows:
        if "summary" in row:
            continue
        proof_id = row.get("proof_id", "")
        trace = by_proof.setdefault(proof_id, ShorteningTrace(proof_id=proof_id, measure=""))
        trace.iterations.append(iteration_from_json(row))
    return list(by_proof.values())


if __name__ == "__main__":
    main()
