"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 input error, 2 usage or configuration error, 3
backend failure (partial traces already persisted). Only reports and
training_data are imported per command: bench/tracing.py patches names from
shortener, linter, backends and concurrent.futures here, so those always load.

Before a command runs, main claims every file it writes (-o unless it is -,
--csv, --gnuplot), so an unwritable one fails before any backend call; when
the command does not finish, the files the claim created are removed. Rows
reach stdout, -o and trace files through one writer, records.write_jsonl.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, replace
from pathlib import Path

from . import backends, lexer
from .backends import VerdictMemo, VerdictStatus, make_repairer, make_simplifier, make_verifier
from .config import RunConfig, parse_schedule
from .errors import BackendUnavailable, ConfigError, MalformedInput, ProofOptError
from .errors import NoProofDelimiter
# min_at_k and red_at_k stay importable here: bench/tracing.py wraps them in this module.
from .estimators import min_at_k, red_at_k  # noqa: F401
from .linter import lint_fixpoint
from .records import Measure, ProofRecord, from_json, read_jsonl, write_jsonl
from .shortener import SKIPPED_NOTE, IterationRecord, shorten_loop


def _readable_file(name: str) -> str:
    """A file that opens for reading, or - for stdin; checked while parsing."""
    if name != "-":
        try:
            open(name).close()
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot open {name!r}: {exc.strerror}") from None
    return name


def _file_path(name: str) -> str:
    if Path(name).is_dir():
        raise argparse.ArgumentTypeError(f"{name!r} is a directory")
    return name


def _dir_path(name: str) -> str:
    if Path(name).is_file():
        raise argparse.ArgumentTypeError(f"{name!r} is a file")
    return name


def _writing(name, fn, *args, **kwargs):
    """fn(*args, **kwargs), which writes the file name; an OSError ends the
    command with one error line."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise ProofOptError(f"cannot write {name}: {exc.strerror}") from None


def _claim(names, created: list) -> None:
    """Check that each named output file can be written, emptying none: an
    absent file is created and its path appended to created, an existing
    regular file is opened for append. Another existing path (a FIFO,
    /dev/null) is not opened, so the reader of a pipe sees no early end.
    None, for an option not given, names no file."""
    for name in filter(None, names):
        try:
            try:
                open(name, "x").close()
                created.append(Path(name))
            except FileExistsError:
                if not (Path(name).is_fifo() or Path(name).is_char_device()):
                    open(name, "a").close()
        except OSError as exc:
            raise ProofOptError(f"cannot write {name}: {exc.strerror}") from None


def _write_rows(name: str, rows) -> None:
    """Write rows as JSON lines to stdout for -, else to the file name,
    which main has claimed; the file is emptied only here."""
    if name == "-":
        return write_jsonl(sys.stdout, rows)
    with _writing(name, open, name, "w", encoding="utf-8") as handle:
        write_jsonl(handle, rows)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    return replace(cfg, workdir=args.workdir) if args.workdir is not None else cfg


def _read_text(name: str, read):
    """read(stream) over a UTF-8 file, or over stdin for -."""
    try:
        if name == "-":
            return read(sys.stdin)
        with open(name, encoding="utf-8") as handle:
            return read(handle)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{name}: not UTF-8 ({exc})") from None


def _rows(name: str) -> list[dict]:
    """The JSONL rows of a file, or of stdin for -."""
    return _read_text(name, read_jsonl)


def _read(rows: list, cls=ProofRecord, what: str = "proof record") -> list:
    """Each row read as cls, named in an error by its id, else its index."""
    return [from_json(cls, row, what, index=i) for i, row in enumerate(rows)]


def _trace_rows(name: str, rows: list, named: bool = False) -> list:
    """The iteration rows among rows, shorten's output read from the file
    name, each read as reports.TraceRow and named in an error by its index;
    the summary row that ends the output is skipped. A proof's iteration
    given twice is an input error; rows without a proof_id, a trace file's,
    are not compared. With named, a row without a proof_id is one too."""
    from . import reports

    out, seen = [], set()
    for i, row in enumerate(rows):
        if isinstance(row, dict) and "summary" in row:
            continue
        trace = from_json(reports.TraceRow, row, "trace row", index=i)
        if named and trace.proof_id is None:
            raise MalformedInput(f"trace row {i} has no proof_id")
        if trace.proof_id is not None and (trace.proof_id, trace.index) in seen:
            raise MalformedInput(
                f"{name}: proof {trace.proof_id!r} iteration {trace.index} is given twice"
            )
        seen.add((trace.proof_id, trace.index))
        out.append(trace)
    return out


def length(args):
    """Token length of each input proof.

    With file arguments, .jsonl files are read as proof records and anything
    else as one raw statement-plus-proof per file. Without arguments, proof
    records are read from stdin as JSONL.
    """

    def emit(label: str, source: str):
        try:
            print(f"{label}\t{lexer.proof_length(source)}")
        except NoProofDelimiter:
            print(f"warning: {label}: no proof delimiter", file=sys.stderr)
            print(f"{label}\t{lexer.SENTINEL_LENGTH}")

    for name in args.files or ["-"]:
        path = Path(name)
        if name == "-" or path.suffix == ".jsonl":
            for record in _read(_rows(name)):
                emit(record.id, record.full_source)
        else:
            emit(str(path), _read_text(name, lambda handle: handle.read()))


def lint(args):
    """Remove do-nothing tactics from each proof until a fixpoint.

    A proof that lint leaves unchanged is written as it was read, one that
    does not verify with a note; an edited one is split back into a record."""
    cfg = _load_config(args)
    records = _read(_rows(args.input))
    verifier = make_verifier(cfg.backend("verifier"))

    def lint_one(record: ProofRecord) -> dict:
        linted = lint_fixpoint(record.full_source, VerdictMemo(verifier), record.statement)
        if linted.text != record.full_source:
            record = ProofRecord.from_source(linted.text, id=record.id)
        row = {**asdict(record), "length": lexer.proof_length(record.full_source)}
        return row if linted.status is VerdictStatus.VALID else {**row, "note": SKIPPED_NOTE}

    try:
        _write_rows(args.output, verifier.map(lint_one, records))
    finally:
        verifier.close()


def _trace_path(workdir: Path, proof_id: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in proof_id)
    return workdir / "traces" / f"{safe}.jsonl"


def _load_partial(path: Path, schedule):
    """The iterations persisted at path that the schedule would make: each
    kept record's index, k and temperature are those of its position. The
    file is cut back to the records kept, so that the next record appended
    starts a line."""
    if not path.exists():
        return None
    done = []
    kept = 0
    with path.open("r+b") as handle:
        for line in handle:
            if len(done) == len(schedule) or not line.endswith(b"\n"):
                break  # past the schedule, or interrupted mid-write; redo from here
            try:
                itrec = from_json(IterationRecord, json.loads(line), "iteration record")
            except ValueError:  # not JSON, or not an iteration record
                break
            k, temperature = schedule[len(done)]
            if (itrec.index, itrec.k_requested, itrec.temperature) != (len(done), k, temperature):
                break  # made under another schedule
            done.append(itrec)
            kept += len(line)
        handle.truncate(kept)
    return done or None


def shorten(args):
    """Iteratively shorten each input proof; stream traces plus a summary."""
    cfg = _load_config(args)
    if args.measure:
        cfg.measure = Measure(args.measure)
    if args.repair:
        cfg.repair = args.repair == "on"
    simplifier_cfg = cfg.backend("simplifier")
    schedule = parse_schedule(args.schedule or cfg.schedule, simplifier_cfg.temperature)
    records = _read(_rows(args.input))
    if not records:
        raise ConfigError("empty input")
    workdir = Path(cfg.workdir) if cfg.workdir else None
    if workdir:
        owners = {}
        for record in records:
            path = _trace_path(workdir, record.id)
            if path in owners:
                raise MalformedInput(
                    f"proof ids {owners[path]!r} and {record.id!r} share the trace file {path}"
                )
            owners[path] = record.id
        for folder in (workdir / "traces", workdir / "inputs"):
            _writing(folder, folder.mkdir, parents=True, exist_ok=True)
    repairer = make_repairer(cfg.backend("repairer")) if cfg.repair else None
    verifier = make_verifier(cfg.backend("verifier"))
    simplifier = make_simplifier(simplifier_cfg)

    def run_one(record: ProofRecord) -> list[IterationRecord]:
        sink = None
        resume = None
        if workdir:
            path = _trace_path(workdir, record.id)
            # inputs/ names the input and measure that made the trace; a trace
            # without a match is redone, and the file is written once it is cut
            made = workdir / "inputs" / f"{path.name.removesuffix('.jsonl')}.json"
            provenance = json.dumps({"full_source": record.full_source,
                                     "measure": cfg.measure.value})
            same = made.exists() and _writing(made, made.read_bytes) == provenance.encode()
            resume = _writing(path, _load_partial, path, schedule) if same else None
            handle = _writing(path, path.open, "a" if resume else "w", encoding="utf-8")
            if not same:
                _writing(made, made.write_text, provenance, encoding="utf-8")

            def sink(itrec):
                write_jsonl(handle, [itrec])
                handle.flush()

        try:
            return shorten_loop(
                record, schedule, simplifier, verifier, cfg.measure, repairer=repairer,
                repair_budget=cfg.repair_budget, on_iteration=sink, resume_from=resume,
            )
        finally:
            if workdir:
                handle.close()

    # Up to four proofs per backend slot run at once, each on a thread of its
    # own and holding its trace file open: enough that admission, not the
    # proof pool, limits the calls in flight, while threads and open files
    # stay bounded however long the input. Each backend's pool is its fan-out.
    slots = [verifier, simplifier] + ([repairer] if repairer else [])
    try:
        with ThreadPoolExecutor(4 * sum(b.cfg.max_parallel for b in slots)) as pool:
            traces = list(pool.map(run_one, records))
    finally:
        for backend in (verifier, simplifier, repairer):
            if backend:
                backend.close()

    befores = [iterations[0].score_before for iterations in traces]
    afters = [iterations[-1].score_after for iterations in traces]
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
    rows = ({"proof_id": record.id, **asdict(itrec)}
            for record, iterations in zip(records, traces) for itrec in iterations)
    _write_rows(args.output, itertools.chain(rows, [summary]))


def dataset_build(args):
    """Pair seed proofs with the shortenings that shorten adopted for them."""
    from . import training_data

    def by_id(name: str, what: str) -> dict[str, ProofRecord]:
        out = {}
        for record in _read(_rows(name), what=what):
            if record.id in out:
                raise MalformedInput(f"{name}: id {record.id!r} is given twice")
            out[record.id] = record
        return out

    seeds = by_id(args.seeds, "proof record")
    runs = {}  # proof id -> iteration index -> row
    for row in _trace_rows(args.results, _rows(args.results), named=True):
        runs.setdefault(row.proof_id, {})[row.index] = row
    # A proof's result is its last source_after, the text its check saw, once
    # an iteration adopted a checked candidate or repair: only that lowers score_after.
    results = {
        proof_id: iterations[max(iterations)].source_after
        for proof_id, iterations in runs.items()
        if any(row.score_after < row.score_before for row in iterations.values())
    }
    ancestry = by_id(args.ancestry, "ancestry record") if args.ancestry else {}
    pairs = training_data.build_expit_dataset(
        list(seeds.values()), results, ancestry, origin_iteration=args.iteration
    )
    _write_rows(args.output, pairs)


def dataset_filter_trivial(args):
    """Drop theorems the automation cascade proves on its own."""
    from . import training_data

    cfg = _load_config(args)
    verifier = make_verifier(cfg.backend("verifier"))
    try:
        kept, discarded = training_data.filter_trivial(_read(_rows(args.input)), verifier)
    finally:
        verifier.close()
    _write_rows(args.output, kept)
    print(f"kept {len(kept)} discarded {len(discarded)}", file=sys.stderr)


def dataset_emit_sft(args):
    """Serialize simplification pairs as prompt/completion records."""
    from . import training_data

    pairs = _read(_rows(args.input), training_data.SimplificationPair, "pair record")
    _write_rows(args.output, training_data.emit_sft_records(pairs))


def reward(args):
    """Group-relative rewards of each iteration's candidates in shorten's output."""
    from . import training_data

    groups = [
        training_data.compute_rewards(
            row.score_before,
            row.candidates,
            # the incumbent's statement: adoption keeps it
            ProofRecord.from_source(row.source_after, id=row.proof_id).statement,
            positive_shortening=not args.literal_sign,
            group_id=f"{row.proof_id}#{row.index}",
        )
        for row in _trace_rows(args.input, _rows(args.input), named=True)
        if row.candidates  # a skipped iteration sampled nothing
    ]
    _write_rows(args.output, groups)


def report(args):
    """Aggregate statistics over scores, samples, traces, or timings."""
    from . import reports

    rows = _rows(args.input)
    if not rows:
        raise ConfigError("empty input")
    try:
        if args.kind == "corpus":
            scores = []
            for i, row in enumerate(rows):
                score = from_json(reports.CorpusRow, row, "corpus record", index=i).score
                if score is None:
                    record = from_json(ProofRecord, row, "corpus record", index=i)
                    score = lexer.proof_length(record.full_source)
                scores.append(score)
            table = [reports.corpus_stats(scores)]
        elif args.kind == "atk":
            if not args.ks:
                raise ConfigError("--kind atk needs at least one -k")
            samples = [row.samples for row in _read(rows, reports.SampleRow, "sample record")]
            table = reports.atk_table(samples, sorted(args.ks))
        elif args.kind == "repair":
            table = [reports.repair_accounting(_trace_rows(args.input, rows))]
        else:
            timings = _read(rows, reports.SpeedupRow, "speedup record")
            table = reports.speedup_report(map(astuple, timings))
    except (ValueError, ArithmeticError) as exc:  # a malformed row, or one out of float range
        raise MalformedInput(f"bad report input: {exc}") from None
    if args.csv:
        rows = [t for t in table if len(t) == len(table[0])]
        _writing(args.csv, reports.write_csv, rows, args.csv)
        if args.gnuplot:
            _writing(args.gnuplot, reports.write_gnuplot_stub, args.csv, args.gnuplot)
    _write_rows(args.output, table)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofopt", description="Proof shortening toolkit.", allow_abbrev=False
    )
    parser.add_argument("--config", type=_readable_file)
    parser.add_argument("--workers", type=int, help="sets nothing, accepted because bench/run.py"
                        " passes it: each backend's max_parallel sets the width")
    parser.add_argument("--workdir", type=_dir_path)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, run, name=None, io=True, doc=None):
        """A subcommand calling run(args), with io an INPUT file and -o; doc,
        run's docstring by default, gives its help."""
        doc = doc or run.__doc__
        sub = group.add_parser(
            name or run.__name__, help=doc.splitlines()[0], description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        if io:
            sub.add_argument("input", metavar="INPUT", type=_readable_file)
            sub.add_argument("-o", "--output", metavar="FILE", default="-")
        return sub

    sub = command(commands, length, io=False)
    sub.add_argument("files", nargs="*", metavar="FILE", type=_readable_file)
    command(commands, lint)
    sub = command(commands, shorten)
    sub.add_argument("--schedule", help="e.g. 64x6,1024x2@1.5")
    sub.add_argument("--measure", choices=["length", "heartbeats"])
    sub.add_argument("--repair", choices=["on", "off"])
    sub = command(commands, report, "estimate", doc="Dataset-mean min@k and red@k from per-proof"
                  " sample files.\n\nThe same as report --kind atk, without --csv.")
    sub.set_defaults(kind="atk", csv=None, gnuplot=None)
    sub.add_argument("-k", dest="ks", type=int, action="append", required=True)
    dataset = commands.add_parser(
        "dataset", help="Build and serialize training datasets.", allow_abbrev=False
    ).add_subparsers(metavar="COMMAND", required=True)
    sub = command(dataset, dataset_build, "build", io=False)
    sub.add_argument("-o", "--output", metavar="FILE", default="-")
    sub.add_argument("--seeds", type=_readable_file, required=True)
    sub.add_argument("--results", type=_readable_file, required=True)
    sub.add_argument("--ancestry", type=_readable_file)
    sub.add_argument("--iteration", type=int, default=0)
    command(dataset, dataset_filter_trivial, "filter-trivial")
    command(dataset, dataset_emit_sft, "emit-sft")
    sub = command(commands, reward)
    sub.add_argument("--literal-sign", action="store_true",
                     help="use the raw (new - old)/old delta instead of positive shortening")
    sub = command(commands, report)
    sub.add_argument("--kind", choices=["corpus", "atk", "repair", "speedup"], required=True)
    sub.add_argument("-k", dest="ks", type=int, action="append", help="k values for --kind atk")
    sub.add_argument("--csv", type=_file_path)
    sub.add_argument("--gnuplot", type=_file_path)
    return parser


def main(argv=None, standalone_mode=True) -> None:
    """Run one command; on an error, print one line to stderr and raise
    SystemExit(code). standalone_mode has no effect: bench/run.py's traced
    mode passes standalone_mode=False, as click's main accepted it."""
    # stdin and stdout are UTF-8, as every file is. A stream without
    # reconfigure (a test's StringIO) is left as it is, and so is one already
    # UTF-8, which cannot be reconfigured once read from.
    for stream in (sys.stdin, sys.stdout):
        if hasattr(stream, "reconfigure") and stream.encoding.lower() not in ("utf-8", "utf8"):
            stream.reconfigure(encoding="utf-8")
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "gnuplot", None) and not args.csv:
        parser.error("--gnuplot needs --csv: the stub plots the csv file")
    # the files the command writes: --csv, --gnuplot, and -o unless it is stdout
    outputs = [getattr(args, "csv", None), getattr(args, "gnuplot", None)]
    if getattr(args, "output", "-") != "-":
        outputs.append(args.output)
    created = []
    backends.kill_checkers_on_signals()  # checkers run in their own sessions
    try:
        _claim(outputs, created)
        args.run(args)
        created.clear()  # the command finished: the files it created stay
    except ProofOptError as exc:
        code, message = 1, str(exc)
        if isinstance(exc, ConfigError):
            code = 2
        elif isinstance(exc, BackendUnavailable):
            code, message = 3, f"backend outage, partial traces persisted: {exc}"
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(code) from None
    except BrokenPipeError:  # the reader of stdout left, as `| head` does: stop quietly
        sys.stdout = None  # nothing is left to flush at exit
        raise SystemExit(1) from None
    finally:
        for path in created:
            path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
