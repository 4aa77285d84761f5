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

from .accounting import CostReport, format_cost_table
from .evaluation import DatasetFormatError, QAExample, evaluate, load_dataset
from .prompts import set_template_dir
from .providers import HttpChatProvider, ProviderError, load_script
from .retrieval import (
    CorpusFormatError,
    DuplicateDocumentError,
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


def _add_search_flags(parser: argparse.ArgumentParser, workers_help: str) -> None:
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
    parser.add_argument(
        "--provider", choices=("scripted", "http"), default="http",
        help="completion provider (default %(default)s)",
    )
    parser.add_argument("--script", help="rule file for the scripted provider")
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
        "--workers", type=_int_at_least(1), default=1,
        help=f"{workers_help} (default %(default)s)",
    )


def _start_run(args: argparse.Namespace, workers: int, *out_paths: str | None) -> SearchRun:
    """Check that each output path's directory exists, read the templates,
    and build the run's config, provider and index: everything that can
    fail before the first call is paid for."""
    for path in out_paths:
        if path and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: {Path(path).parent} is not a directory")
    set_template_dir(args.template_dir)
    config = SearchConfig(
        beam_size=args.beam_size,
        max_depth=args.max_depth,
        max_queries=args.max_queries,
        retrieval_docs=args.retrieval_docs,
        score_threshold=args.threshold,
        evidence_mode=args.evidence_mode,
    )
    if args.provider == "scripted":
        if not args.script:
            raise ValueError("--provider scripted requires --script")
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
    return SearchRun(config, provider, index=index, workers=workers, retries=args.retries)


def _manifest(args: argparse.Namespace, run: SearchRun, **extra) -> dict:
    source: dict = {"kind": args.provider}
    if args.provider == "scripted":
        source["script"] = args.script
    else:
        source["endpoint"] = run.provider.endpoint
        source["model"] = run.provider.model
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


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_index(args: argparse.Namespace) -> int:
    try:
        docs = load_corpus(args.corpus)
        index = index_corpus(docs)
    except FileNotFoundError:
        print(f"error: corpus file not found: {args.corpus}", file=sys.stderr)
        return 1
    except (CorpusFormatError, DuplicateDocumentError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # Write beside the target, then rename over it: a failed write leaves
    # any previous index whole.
    out = Path(args.out)
    tmp = out.with_name(f".{out.name}.{os.urandom(4).hex()}.tmp")
    try:
        save_index(index, tmp)
        os.replace(tmp, out)
    except OSError as err:
        print(f"error: cannot write the index {args.out}: {err}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()
    print(f"indexed {len(index)} documents -> {args.out}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    try:
        run = _start_run(args, args.workers, args.trace, args.output)
        result = run.run_search(args.question)
    except (ValueError, OSError, ProviderError, SearchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    ledger = result.ledger.snapshot()
    try:
        if args.trace:
            Path(args.trace).write_text(
                "".join(line + "\n" for line in result.trace_lines()), encoding="utf-8"
            )
        if args.output:
            _write_json(
                args.output,
                {
                    "manifest": _manifest(args, run, question=args.question),
                    "answer": result.final_answer,
                    "score": result.final_state.score,
                    "ledger": ledger,
                    "cost_report": result.ledger.report().as_dict(),
                },
            )
    except OSError as err:
        print(f"error: cannot write the result: {err}", file=sys.stderr)
        return 1
    print(f"answer: {result.final_answer}")
    print(f"score: {result.final_state.score}")
    print(
        "cost: retrievals={retrieval_times} api_calls={api_times} "
        "prompt_tokens={prompt_tokens} completion_tokens={completion_tokens}".format(**ledger)
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        examples = load_dataset(args.dataset)
    except FileNotFoundError:
        print(f"error: dataset file not found: {args.dataset}", file=sys.stderr)
        return 1
    except (DatasetFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not examples:
        print(f"error: dataset {args.dataset} contains no examples", file=sys.stderr)
        return 1
    try:
        # One run answers every question, from one thread or several.
        run = _start_run(args, 1, args.output)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    def run_one(example: QAExample) -> SearchResult | SearchError:
        try:
            return run.run_search(example.question)
        except SearchError as err:  # becomes the question's error row
            return err

    try:
        if args.workers == 1:
            outcomes = [run_one(ex) for ex in examples]
        else:
            # Questions run in parallel; output keeps dataset order.
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                outcomes = list(pool.map(run_one, examples))
    except (ProviderError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    report = evaluate(outcomes, examples)
    per_question = CostReport.from_ledger(report.cost, report.n_examples)
    summary = asdict(report)
    questions = summary.pop("rows")
    summary["cost_report_per_question"] = per_question.as_dict()
    if args.output:
        try:
            _write_json(
                args.output,
                {
                    "manifest": _manifest(args, run, dataset_path=args.dataset),
                    "summary": summary,
                    "questions": questions,
                },
            )
        except OSError as err:
            print(f"error: cannot write the report: {err}", file=sys.stderr)
            return 1
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
    _add_search_flags(
        p_ask,
        "most provider calls the search has in flight, from a pool of 2 x N threads; "
        "1 sends every call serially, with no pool",
    )
    p_ask.add_argument("--trace", help="write the search trace (one JSON event per line)")
    p_ask.add_argument("--output", help="write a JSON result with the run manifest")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", help="run a dataset and report EM/F1/hit rate/cost")
    p_eval.add_argument("--dataset", required=True, help="line-delimited {question,answers} file")
    _add_search_flags(
        p_eval, "questions run at once; each question's search sends its calls serially"
    )
    p_eval.add_argument("--output", help="write the JSON report")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
