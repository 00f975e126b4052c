"""The benchmark under perfbench/ still fits the library.

perfbench reaches polyflag by module and attribute names: its tracer
replaces functions at each of their import sites, and its workloads call
the public functions and check the answers against closed forms and
recorded outcomes.  These tests install the tracer and run a few jobs of
every workload, so that a renamed site or a wrong answer fails here and
not only in a benchmark run.  They read perfbench and write nothing
under it: no bytecode, and the sweep's input files go to a temporary
directory.
"""

import sys
from pathlib import Path

import pytest

from polyflag import permgroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import jobs
        import tracing
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return jobs, tracing


def run_checked(workload, picked):
    """Run and check jobs the way a benchmark pass does; returns the
    outcome of each.  A wrong answer raises CheckFailed."""
    return [workload.check(job, workload.run(job), n == 0)
            for n, job in enumerate(picked)]


def test_tracer_resolves_every_site_and_restores_it(perfbench):
    _, tracing = perfbench
    sites = [(owner, name.rsplit(".", 1)[1])
             for name, owners in tracing.SITES.items() for owner in owners]
    originals = [getattr(owner, attr) for owner, attr in sites]
    patched = tracing.Tracer().install()
    try:
        assert [(owner, attr) for owner, attr, _ in patched[:len(sites)]] \
            == sites
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr) is not original
    finally:
        tracing.uninstall(patched)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert [original for _, _, original in patched[:len(sites)]] == originals


def test_ladder_cube_5(perfbench, tmp_path):
    jobs, _ = perfbench
    ladder = jobs.WORKLOADS["reflection-ladder"]()
    picked = [job for job in ladder.jobs(1, tmp_path)
              if job["label"] == "cube-5"]
    assert len(picked) == 1
    assert run_checked(ladder, picked) == ["exit_0"]


def test_chiral_cover_traced_without_stabilizer_chains(perfbench, tmp_path):
    jobs, tracing = perfbench
    cover = jobs.WORKLOADS["chiral-cover"]()
    all_jobs = cover.jobs(1, tmp_path)
    tori = sorted((job for job in all_jobs if "torus" in job),
                  key=lambda job: job["facts"]["order"])
    picked = tori[:2] + [job for job in all_jobs
                         if job["label"] == "rotation-338"]
    assert len(picked) == 3
    tracer = tracing.Tracer()
    patched = tracer.install()
    try:
        outcomes = run_checked(cover, picked)
    finally:
        tracing.uninstall(patched)
    assert outcomes == ["exit_0"] * 3
    layers = tracing.layer_metrics(tracer)
    assert layers["chiral.mix_order_self_s"] > 0
    # rotation face stabilizers still pass through the traced word_orbit
    assert layers["chiral.word_orbit_calls"] > 0
    # the shared facts of a rotation report are analyze's, booked there
    for name in ("analysis.f_vector_s", "analysis.flatness_spectrum_s",
                 "stringc.is_string_c_group_s"):
        assert layers[name] > 0, name
    assert layers["permgroup.build_chain_calls"] == 0
    assert layers["permgroup.perm_mul_calls"] == 0


def test_sweep_sample(perfbench, tmp_path):
    jobs, _ = perfbench
    sweep = jobs.WORKLOADS["sweep"]()
    all_jobs = sweep.jobs(1, tmp_path)
    assert all(Path(job["path"]).parent.parent == tmp_path
               for job in all_jobs)
    malformed = [job for job in all_jobs if job["malformed"]]
    finished = [job for job in all_jobs if not job["malformed"]
                and job["expected"]["exit"] != 2]
    capped = [job for job in all_jobs if not job["malformed"]
              and job["expected"]["exit"] == 2]
    picked = finished[:16] + capped[:2] + malformed[:2]
    outcomes = run_checked(sweep, picked)
    assert outcomes[-2:] == ["exit_3", "exit_3"]
    assert all(outcome in ("exit_0", "exit_1", "exit_2")
               for outcome in outcomes[:-2])
