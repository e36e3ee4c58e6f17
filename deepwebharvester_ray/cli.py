"""Command-line entry point (reference cli.py:183-361 parity).

The reference CLI wires: parse args → merge config → verify connection →
crawl → intelligence → persist to all sinks → HTML report → summary
print.  This CLI does the same with the live Tor network replaced by a
``--corpus`` Parquet directory of pages (BASELINE.json input_hint)::

    python -m deepwebharvester_ray \
        --corpus /tmp/dwh_corpus/sf0.001_x1_v2 \
        --url http://<56-char-v3>.onion/d/0 --url ... \
        --output-dir /tmp/out --max-depth 2 --max-pages 20 --report

Exit codes: 0 success (including interrupted-but-persisted runs — the
reference also persists partial results on Ctrl-C, cli.py:294-295), 2 bad
arguments / no valid seeds, 1 crawl runtime failure.  Sink/report errors
after a successful crawl are logged, not fatal (reference
storage.py:150-151, cli.py:330-354 behavior).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import runtime_env
from .config import CrawlSettings, load_settings

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="deepwebharvester-ray",
        description="Ray-Data-native crawl→extract→intelligence engine "
        "over a Parquet page corpus",
    )
    p.add_argument("--corpus", required=True,
                   help="Parquet corpus directory (the simulated network)")
    p.add_argument("--url", action="append", default=[],
                   help="seed URL (repeatable)")
    p.add_argument("--config", help="YAML config file (crawler: section)")
    p.add_argument("--output-dir", default="./output")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--max-pages", type=int)
    p.add_argument("--delay", type=float, help="crawl delay (virtual s)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the run dir's checkpoint manifest")
    p.add_argument("--run-dir", help="checkpoint/run directory "
                   "(default <output-dir>/run)")
    p.add_argument("--no-json", action="store_true")
    p.add_argument("--no-csv", action="store_true")
    p.add_argument("--no-sqlite", action="store_true")
    p.add_argument("--no-intel", action="store_true",
                   help="skip the IOC/threat intelligence stage")
    p.add_argument("--report", action="store_true", help="write HTML report")
    p.add_argument("--verbose", "-v", action="store_true")
    return p


def _print_summary(stats: dict, results, out) -> None:
    """Reference cli.py:54-81 summary incl. the intelligence block."""
    lines = [
        "=" * 60,
        "CRAWL SUMMARY",
        "=" * 60,
        f"  Sites (seeds):       {stats.get('sites_crawled', '?')}",
        f"  Pages crawled:       {stats.get('pages_crawled', '?')}",
        f"  Pages failed:        {stats.get('pages_failed', '?')}",
        f"  Pages skipped:       {stats.get('pages_skipped', '?')}",
        f"  Pages deduplicated:  {stats.get('pages_deduplicated', '?')}",
        f"  Generations:         {stats.get('generations', '?')}",
    ]
    if results is not None and "risk_label" in results.schema.names:
        import pyarrow.compute as pc

        labels = results.column("risk_label").to_pylist()
        high = sum(1 for x in labels if x in ("High", "Critical"))
        total_iocs = (
            pc.sum(results.column("ioc_total")).as_py() if len(results) else 0
        )
        lines += [
            "-" * 60,
            "INTELLIGENCE",
            f"  Total IOCs:          {total_iocs or 0}",
            f"  High/Critical pages: {high}",
        ]
    for fmt, path in out.items():
        lines.append(f"  {fmt.upper():<6} output:       {path}")
    lines.append("=" * 60)
    print("\n".join(lines))


def _persist_and_report(results, run_stats, args, out_dir: Path,
                        results_ds=None) -> int:
    """Sink fan-out + report + summary; errors logged, never fatal
    (reference storage.py:150-151 pattern)."""
    from . import report as report_mod
    from . import sinks

    out = {}
    try:
        out = sinks.save_all(
            results, str(out_dir),
            json_output=not args.no_json,
            csv_output=not args.no_csv,
            sqlite_output=not args.no_sqlite,
        )
    except Exception:  # noqa: BLE001
        logger.exception("sink fan-out failed; results remain in the "
                         "checkpoint parquet under the run dir")
    if args.report:
        try:
            if results_ds is None:
                import ray

                results_ds = ray.data.from_arrow(results)
            out["report"] = report_mod.generate(results_ds, str(out_dir))
        except Exception:  # noqa: BLE001
            logger.exception("report generation failed")
    _print_summary(run_stats, results, out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )

    if not Path(args.corpus).is_dir():
        print(f"error: corpus directory not found: {args.corpus}", file=sys.stderr)
        return 2

    overrides = {}
    if args.max_depth is not None:
        overrides["max_depth"] = args.max_depth
    if args.max_pages is not None:
        overrides["max_pages"] = args.max_pages
    if args.delay is not None:
        overrides["crawl_delay"] = args.delay
    cfg: CrawlSettings = load_settings(args.config, **overrides)

    seeds = list(args.url)
    if not seeds:
        print("error: at least one --url seed is required", file=sys.stderr)
        return 2

    from .urlops import is_valid_onion_url

    if not any(is_valid_onion_url(u) for u in seeds):
        print("error: no valid v3 .onion seed URLs", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():
        # honor an externally provided cluster address (RAY_ADDRESS);
        # fall back to a fresh local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, runtime_env=runtime_env(),
                 logging_level="ERROR", log_to_driver=args.verbose)

    from .pipelines.crawl import run_crawl

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = args.run_dir or str(out_dir / "run")

    try:
        run = run_crawl(
            args.corpus, seeds, cfg=cfg, run_dir=run_dir,
            resume=args.resume, with_intel=not args.no_intel,
        )
    except KeyboardInterrupt:
        # reference cli.py:294-295: partial results still persist — every
        # COMPLETE generation is already on disk under the run dir; save
        # sinks from those and exit 0.  The generation being written when
        # Ctrl-C landed may have truncated parquet files, so only manifest-
        # complete generations are read, each file defensively.
        print("interrupted — persisting completed generations "
              "(re-run with --resume to continue)", file=sys.stderr)
        import json as _json

        import pyarrow as pa
        import pyarrow.parquet as pq

        complete_gens: set = set()
        mpath = Path(run_dir, "manifest.json")
        if mpath.exists():
            try:
                man = _json.loads(mpath.read_text())
                complete_gens = {
                    g["generation"] for g in man.get("generations", [])
                    if g.get("complete")
                }
            except Exception:  # noqa: BLE001
                logger.exception("could not read checkpoint manifest")
        tables = []
        for gen in sorted(complete_gens):
            for f in sorted(Path(run_dir, "results", f"gen={gen}").rglob("*.parquet")):
                try:
                    tables.append(pq.read_table(str(f)))
                except Exception:  # noqa: BLE001
                    logger.warning("skipping unreadable partition file %s", f)
        if not tables:
            return 0
        partial = pa.concat_tables(tables, promote_options="default")
        return _persist_and_report(partial, {}, args, out_dir)
    except Exception:  # noqa: BLE001
        logger.exception("crawl failed")
        return 1

    return _persist_and_report(
        run.results_table(), run.stats, args, out_dir,
        results_ds=run.results_dataset(),
    )


if __name__ == "__main__":
    sys.exit(main())
