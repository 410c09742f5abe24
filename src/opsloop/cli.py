"""Command-line front end.

    opsloop run --config cfg.json --out outdir
    opsloop replay --episodes outdir/episodes.jsonl --episode ep-0003
    opsloop export-kg --config cfg.json --out kg.tsv

    PYTHONPATH=src python3 -m opsloop ...      # the same, from a checkout

Exit codes: 0 success, 1 configuration or usage error or an episode that
replay does not find, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from .artifacts import replay
from .config import ConfigError
from .runner import RunConfig, load_config, run


def export_kg(config: RunConfig, out_path: str | Path) -> Path:
    """Re-run the config deterministically and write only the final graph."""
    with tempfile.TemporaryDirectory() as tmp:
        run(config, tmp)
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        return Path(shutil.copyfile(Path(tmp) / "kg.tsv", out_path))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opsloop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scripted run and write artifacts")
    p_run.add_argument("--config", required=True, help="path to run config JSON")
    p_run.add_argument("--out", required=True, help="output directory for artifacts")

    p_replay = sub.add_parser("replay", help="print the transcript of one episode")
    p_replay.add_argument("--episodes", required=True, help="path to episodes.jsonl")
    p_replay.add_argument("--episode", required=True, help="episode id, e.g. ep-0003")

    p_export = sub.add_parser("export-kg", help="re-run a config and emit only the graph")
    p_export.add_argument("--config", required=True, help="path to run config JSON")
    p_export.add_argument("--out", required=True, help="output TSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            config = load_config(args.config)
            report = run(config, args.out)
            agg = report.aggregates
            print(
                f"run complete: {agg['episodes']} episodes, "
                f"{agg['resolved']} resolved, {agg['escalated']} escalated; "
                f"artifacts in {report.out_dir}"
            )
            return 0
        if args.command == "replay":
            try:
                transcript = replay(args.episodes, args.episode)
            except KeyError as exc:  # no such episode in the file
                print(f"opsloop: not found: {exc}", file=sys.stderr)
                return 1
            print(transcript, end="")
            return 0
        if args.command == "export-kg":
            config = load_config(args.config)
            path = export_kg(config, args.out)
            print(f"knowledge graph written to {path}")
            return 0
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"opsloop: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"opsloop: runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
