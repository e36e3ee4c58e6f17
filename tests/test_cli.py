"""CLI tests (reference tests/test_cli.py analog): exit codes, flag
overrides, sink outputs, report generation, resume wiring."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from deepwebharvester_ray import corpus
from deepwebharvester_ray.cli import main

pytestmark = pytest.mark.usefixtures("ray_session")


def test_missing_corpus_exits_2(tmp_path, capsys):
    assert main(["--corpus", str(tmp_path / "nope"), "--url", "http://x"]) == 2


def test_no_seeds_exits_2(smoke_corpus):
    assert main(["--corpus", smoke_corpus]) == 2


def test_invalid_seeds_exit_2(smoke_corpus):
    assert main(["--corpus", smoke_corpus, "--url", "https://clearweb.com"]) == 2


def test_end_to_end_with_report(smoke_corpus, tmp_path, capsys):
    seeds = corpus.seed_urls(2)
    rc = main(
        ["--corpus", smoke_corpus, "--output-dir", str(tmp_path)]
        + [x for u in seeds for x in ("--url", u)]
        + ["--max-depth", "1", "--max-pages", "5", "--report"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "CRAWL SUMMARY" in out
    assert (tmp_path / "deepwebharvester.db").exists()
    jsons = list(tmp_path.glob("results_*.json"))
    csvs = list(tmp_path.glob("results_*.csv"))
    reports = list(tmp_path.glob("report_*.html"))
    assert jsons and csvs and reports
    rows = json.loads(jsons[0].read_text())
    assert rows and {"url", "content_hash", "site"} <= set(rows[0])
    # checkpoint manifest written → resume works with identical flags
    assert (tmp_path / "run" / "manifest.json").exists()
    rc2 = main(
        ["--corpus", smoke_corpus, "--output-dir", str(tmp_path)]
        + [x for u in seeds for x in ("--url", u)]
        + ["--max-depth", "1", "--max-pages", "5", "--resume"]
    )
    assert rc2 == 0


def test_no_intel_flag(smoke_corpus, tmp_path, capsys):
    seeds = corpus.seed_urls(1)
    rc = main(
        ["--corpus", smoke_corpus, "--output-dir", str(tmp_path),
         "--url", seeds[0], "--max-depth", "0", "--no-intel", "--no-csv",
         "--no-sqlite"]
    )
    assert rc == 0
    rows = json.loads(next(tmp_path.glob("results_*.json")).read_text())
    assert rows
    out = capsys.readouterr().out
    assert "INTELLIGENCE" not in out  # intel block only when intel ran


def test_corpus_is_file_exits_2(tmp_path):
    f = tmp_path / "corpus.parquet"
    f.write_bytes(b"x")
    assert main(["--corpus", str(f), "--url", "http://x"]) == 2


def test_unknown_config_key_raises(tmp_path):
    import pytest

    from deepwebharvester_ray.config import load_settings

    with pytest.raises(ValueError, match="unknown crawler setting"):
        load_settings(frontier_shard=8)  # singular typo
    cfgf = tmp_path / "c.yaml"
    cfgf.write_text("crawler:\n  max_dept: 3\n")
    try:
        import yaml  # noqa: F401
    except ImportError:
        return
    with pytest.raises(ValueError, match="unknown crawler setting"):
        load_settings(config_path=str(cfgf))


def test_export_cli_warc_and_diff(ray_session, tmp_path):
    """The export CLI end to end: WET export → CDX diff of an archive
    against itself (all 'same'), WebDataset + sitemap exports produce
    their manifests."""
    import json as _json

    from deepwebharvester_ray import corpus
    from deepwebharvester_ray.export import main as export_main

    cdir = corpus.corpus_from_documents("/root/testdata/sf0.001")

    out_a = tmp_path / "arch_a"
    rc = export_main(["warc", "--corpus", cdir, "--out", str(out_a),
                      "--shards", "4", "--wet"])
    assert rc == 0 and (out_a / "manifest.json").exists()
    assert len(list(out_a.glob("shard-*.warc.gz"))) == 4
    assert len(list(out_a.glob("shard-*.cdx"))) == 4

    out_b = tmp_path / "arch_b"
    export_main(["warc", "--corpus", cdir, "--out", str(out_b),
                 "--shards", "4", "--wet"])
    # diff an archive against its twin: everything 'same'
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = export_main(["cdx-diff", "--old", str(out_a),
                          "--new", str(out_b)])
    assert rc == 0
    counts = _json.loads(buf.getvalue().strip().splitlines()[-1])
    assert counts["same"] == 500 and counts["changed"] == 0
    assert counts["added"] == 0 and counts["removed"] == 0

    out_w = tmp_path / "wds"
    rc = export_main(["wds", "--corpus", cdir, "--out", str(out_w),
                      "--shards", "4"])
    assert rc == 0 and (out_w / "manifest.json").exists()

    out_s = tmp_path / "sm"
    rc = export_main(["sitemap", "--corpus", cdir, "--out", str(out_s)])
    assert rc == 0 and (out_s / "sitemap_index.xml").exists()


def test_runtime_env_empty_when_job_env_carries_repo_path(monkeypatch):
    """The session's job env (conftest, and the CLI's own ray.init)
    puts the repo on PYTHONPATH, so the library's per-task env is empty
    and a task still imports the package through the inherited env;
    before a session exists the env carries the path itself."""
    import ray

    from deepwebharvester_ray import REPO_ROOT, runtime_env

    job_path = ray.get_runtime_context().runtime_env["env_vars"]["PYTHONPATH"]
    assert REPO_ROOT in job_path.split(":")
    assert runtime_env() == {}

    @ray.remote(num_cpus=0, runtime_env=runtime_env())
    def probe():
        import deepwebharvester_ray

        return deepwebharvester_ray.REPO_ROOT, deepwebharvester_ray.runtime_env()

    assert ray.get(probe.remote()) == (REPO_ROOT, {})

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert runtime_env()["env_vars"]["PYTHONPATH"].split(":")[0] == REPO_ROOT
