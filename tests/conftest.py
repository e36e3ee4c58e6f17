"""Shared fixtures.  Ray is initialised ONCE per pytest session."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    from deepwebharvester_ray import runtime_env

    # the job-level env lets every task inherit the package path, so the
    # library's tasks and Ray Data's internal tasks share one worker pool
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        runtime_env=runtime_env(),
    )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def smoke_corpus(tmp_path_factory):
    """Small deterministic corpus derived from sf0.001 documents."""
    from deepwebharvester_ray import corpus

    return corpus.corpus_from_documents(SF_SMOKE)
