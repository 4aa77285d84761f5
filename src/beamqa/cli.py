"""Command-line entry points: corpus indexing, single-question answering,
and batch evaluation."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from .accounting import CostReport, format_cost_table
from .evaluation import QAExample, evaluate, load_dataset
from .prompts import load_templates
from .providers import HttpChatProvider, ProviderError, load_script
from .retrieval import (
    EVIDENCE_MODES,
    RETRIEVE_SUMMARIZE,
    index_corpus,
    load_corpus,
    load_index,
    save_index,
)
from .search import SearchConfig, SearchError, SearchResult, SearchRun

DETERMINISM_NOTE = (
    "no random seed: runs are fully determined by the provider, corpus, and config"
)


def _unit_interval(value: str) -> float:
    try:
        out = float(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from err
    if not 0.0 <= out <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return out


def _int_at_least(low: int):
    def parse(value: str) -> int:
        try:
            out = int(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from err
        if out < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return out

    return parse


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    defaults = SearchConfig()
    parser.add_argument(
        "-S", "--threshold", type=_unit_interval, default=defaults.score_threshold,
        help="early-exit confidence threshold (default %(default)s)",
    )
    parser.add_argument(
        "-B", "--beam-size", type=_int_at_least(1), default=defaults.beam_size,
        help="states kept after each prune (default %(default)s)",
    )
    parser.add_argument(
        "-D", "--max-depth", type=_int_at_least(1), default=defaults.max_depth,
        help="maximum expansion depth (default %(default)s)",
    )
    parser.add_argument(
        "-K", "--max-queries", type=_int_at_least(1), default=defaults.max_queries,
        help="generated queries per expansion (default %(default)s)",
    )
    parser.add_argument(
        "-N", "--retrieval-docs", type=_int_at_least(1), default=defaults.retrieval_docs,
        help="documents per retrieval (default %(default)s)",
    )
    parser.add_argument(
        "--evidence-mode", choices=EVIDENCE_MODES, default=defaults.evidence_mode,
        help="how evidence is produced (default %(default)s)",
    )
    parser.add_argument("--script", help="answer from this rule file instead of over HTTP")
    parser.add_argument("--endpoint", help="chat-completion URL (or BEAMQA_ENDPOINT)")
    parser.add_argument("--api-key", help="bearer token (or BEAMQA_API_KEY)")
    parser.add_argument("--model", help="model name (or BEAMQA_MODEL; default gpt-3.5-turbo)")
    parser.add_argument("--timeout", type=float, help="HTTP timeout s (or BEAMQA_TIMEOUT; default 30)")
    parser.add_argument(
        "--retries", type=_int_at_least(0), default=3,
        help="retries of a transiently failed request (default %(default)s)",
    )
    parser.add_argument("--index", help="lexical index file (required for retrieve_summarize)")
    parser.add_argument("--template-dir", help="directory overriding the embedded prompt templates")
    parser.add_argument(
        "--workers", type=_int_at_least(1), default=1, metavar="N",
        help="at most N provider calls in flight: ask spends them inside its one search, "
        "eval runs N questions at once, each sending its calls serially (default %(default)s)",
    )


def _check_out_paths(*out_paths: str | None) -> None:
    """Fail before any work is done if an output path is a directory or its
    directory is missing."""
    for path in filter(None, out_paths):
        if Path(path).is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: {Path(path).parent} is not a directory")


def _write(path: str, what: str, write: Callable[[Path], object]) -> None:
    """Write ``path`` as ``write(tmp)`` on a temporary file beside it, then
    rename that over it, so a failed write leaves any earlier file whole and
    no temporary file behind. A symlink is followed, so the file it names is
    replaced and the link kept. This is how the CLI writes every file."""
    out = Path(path).resolve()
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, out)
    except OSError as err:
        raise OSError(f"cannot write {what}: {err}") from err
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()


def _start_run(args: argparse.Namespace, workers: int, *out_paths: str | None) -> SearchRun:
    """Check each output path, read the templates, and build the run's
    config, provider and index: everything that can fail before the first
    call is paid for."""
    _check_out_paths(*out_paths)
    templates = load_templates(args.template_dir)
    config = SearchConfig(
        beam_size=args.beam_size,
        max_depth=args.max_depth,
        max_queries=args.max_queries,
        retrieval_docs=args.retrieval_docs,
        score_threshold=args.threshold,
        evidence_mode=args.evidence_mode,
    )
    if args.script is not None:
        provider = load_script(args.script)
    else:
        provider = HttpChatProvider(
            endpoint=args.endpoint, api_key=args.api_key, model=args.model, timeout=args.timeout
        )
    index = None
    if config.evidence_mode == RETRIEVE_SUMMARIZE:
        if not args.index:
            raise ValueError("evidence mode retrieve_summarize requires --index")
        index = load_index(args.index)
    return SearchRun(config, provider, index=index, workers=workers, retries=args.retries, templates=templates)


def _manifest(args: argparse.Namespace, run: SearchRun, **extra) -> dict:
    if args.script is not None:
        source = {"kind": "scripted", "script": args.script}
    else:
        source = {"kind": "http", "endpoint": run.provider.endpoint, "model": run.provider.model}
    manifest = {
        "config": asdict(run.config),
        "provider": source,
        "index_path": args.index,
        "template_dir": args.template_dir,
        "workers": args.workers,
        "determinism": DETERMINISM_NOTE,
    }
    manifest.update(extra)
    return manifest


def cmd_index(args: argparse.Namespace) -> int:
    _check_out_paths(args.out)
    index = index_corpus(load_corpus(args.corpus))
    _write(args.out, f"the index {args.out}", lambda tmp: save_index(index, tmp))
    print(f"indexed {len(index)} documents -> {args.out}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    run = _start_run(args, args.workers, args.trace, args.output)
    with contextlib.closing(run.provider):
        result = run.run_search(args.question)
    ledger = result.ledger.snapshot()
    if args.trace:
        trace = "".join(line + "\n" for line in result.trace_lines())
        _write(args.trace, "the result", lambda tmp: tmp.write_text(trace, encoding="utf-8"))
    if args.output:
        payload = {
            "manifest": _manifest(args, run, question=args.question),
            "answer": result.final_answer,
            "score": result.final_state.score,
            "ledger": ledger,
            "cost_report": result.ledger.report().as_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write(args.output, "the result", lambda tmp: tmp.write_text(text, encoding="utf-8"))
    print(f"answer: {result.final_answer}")
    print(f"score: {result.final_state.score}")
    print(
        "cost: retrievals={retrieval_times} api_calls={api_times} "
        "prompt_tokens={prompt_tokens} completion_tokens={completion_tokens}".format(**ledger)
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    examples = load_dataset(args.dataset)
    if not examples:
        raise ValueError(f"dataset {args.dataset} contains no examples")
    # One run answers every question, from one thread or several.
    run = _start_run(args, 1, args.output)

    def run_one(example: QAExample) -> SearchResult | SearchError:
        try:
            return run.run_search(example.question)
        except SearchError as err:  # becomes the question's error row
            return err

    with contextlib.closing(run.provider):
        if args.workers == 1:
            # Inline, not on a one-thread pool: there Ctrl-C would wait for
            # the running question to finish.
            outcomes = [run_one(ex) for ex in examples]
        else:
            # Questions run in parallel; output keeps dataset order.
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                outcomes = list(pool.map(run_one, examples))

    report = evaluate(outcomes, examples)
    per_question = CostReport.from_ledger(report.cost, report.n_examples)
    summary = asdict(report)
    questions = summary.pop("rows")
    summary["cost_report_per_question"] = per_question.as_dict()
    if args.output:
        payload = {
            "manifest": _manifest(args, run, dataset_path=args.dataset),
            "summary": summary,
            "questions": questions,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write(args.output, "the report", lambda tmp: tmp.write_text(text, encoding="utf-8"))
    for i, outcome in enumerate(outcomes, start=1):
        if isinstance(outcome, SearchError):
            print(f"error: question {i} failed: {outcome}", file=sys.stderr)
    means = " ".join(
        f"{label}={'n/a' if summary[key] is None else format(summary[key], '.4f')}"
        for label, key in (("em", "em_mean"), ("f1", "f1_mean"), ("hit_rate", "hit_rate"))
    )
    print(f"n={report.n_examples} completed={report.completed} failed={report.failed} {means}")
    print(format_cost_table({"totals": report.cost.report(), "per-question": per_question}))
    return 2 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamqa",
        description="Beam-search question answering over LLM calls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a lexical index from a corpus file")
    p_index.add_argument("--corpus", required=True, help="line-delimited {id,title,text} file")
    p_index.add_argument("--out", required=True, help="where to write the index")
    p_index.set_defaults(func=cmd_index)

    p_ask = sub.add_parser("ask", help="answer a single question")
    p_ask.add_argument("question")
    _add_search_flags(p_ask)
    p_ask.add_argument("--trace", help="write the search trace (one JSON event per line)")
    p_ask.add_argument("--output", help="write a JSON result with the run manifest")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", help="run a dataset and report EM/F1/hit rate/cost")
    p_eval.add_argument("--dataset", required=True, help="line-delimited {question,answers} file")
    _add_search_flags(p_eval)
    p_eval.add_argument("--output", help="write the JSON report")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Any failure that ends it is one ``error:`` line on
    stderr and exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
    except (ValueError, OSError, ProviderError, SearchError) as err:
        print(f"error: {err}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
