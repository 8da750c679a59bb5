"""Sweep determinism: parallel == serial, order-free, zero resim when warm.

These are the acceptance properties of the orchestrator: cell results
must be a pure function of the cell spec, so neither the worker count
nor the position of a cell inside a sweep may leak into its value.
"""
import contextlib
import copy
import json
import os
import signal

import pytest

import repro.exec.pool as pool
from repro.common.config import small_config
from repro.common.errors import ConfigError, ReproError
from repro.exec import (
    CellSpec,
    ResultCache,
    cell_key,
    config_to_dict,
    run_sweep,
)
from repro.explore import run_explore
from repro.workloads import get_profile
from repro.workloads.spec import WorkloadProfile

CFG = config_to_dict(small_config())

VARIANTS = ("wb-gc", "asit")
WORKLOADS = ("pers_hash", "cactusADM")


def matrix(seed=11):
    return [
        CellSpec("sim", v, w, 600, 1024, seed, config=CFG)
        for v in VARIANTS for w in WORKLOADS
    ]


def fingerprints(report):
    return [json.dumps(v.to_json(), sort_keys=True) for v in report.values]


class TestDeterminism:
    def test_parallel_equals_serial_bitwise(self):
        serial = run_sweep(matrix(), jobs=1)
        parallel = run_sweep(matrix(), jobs=2)
        assert fingerprints(serial) == fingerprints(parallel)

    def test_results_independent_of_sweep_order(self):
        specs = matrix()
        forward = run_sweep(specs, jobs=2)
        backward = run_sweep(list(reversed(specs)), jobs=2)
        by_key_fwd = dict(zip(map(cell_key, specs),
                              fingerprints(forward)))
        by_key_bwd = dict(zip(map(cell_key, reversed(specs)),
                              fingerprints(backward)))
        assert by_key_fwd == by_key_bwd

    def test_results_independent_of_company(self):
        # a cell run alone equals the same cell run inside a sweep
        specs = matrix()
        together = fingerprints(run_sweep(specs, jobs=2))
        alone = [fingerprints(run_sweep([s]))[0] for s in specs]
        assert together == alone

    def test_outcomes_keep_spec_order(self):
        specs = matrix()
        report = run_sweep(specs, jobs=2)
        assert [o.spec for o in report.outcomes] == specs


def explore_matrix():
    """Probe, clean and crash cells over two schemes and two seeds."""
    cfg = config_to_dict(small_config(metadata_cache_bytes=512))
    plans = ({"mode": "probe"}, {"mode": "clean"},
             {"mode": "case", "crash_after": 9},
             {"mode": "case", "crash_after": 4, "second_crash_after": 6})
    return [CellSpec("explore", scheme, "pers_hash", 40, 128, seed,
                     config=cfg, fault=plan)
            for scheme in ("steins", "asit") for seed in (1, 2)
            for plan in plans]


def by_key(specs, report):
    return dict(zip(map(cell_key, specs), fingerprints(report)))


class TestExploreDeterminism:
    """Explore cells share their worker's memoized config and trace;
    no result may depend on which cells ran before in that worker."""

    def test_order_company_and_workers_leave_results_unchanged(self):
        specs = explore_matrix()
        forward = by_key(specs, run_sweep(specs, jobs=1))
        assert len(forward) == len(specs)
        backward = list(reversed(specs))
        assert by_key(backward, run_sweep(backward, jobs=1)) == forward
        assert by_key(specs, run_sweep(specs, jobs=2)) == forward
        alone = {}
        for spec in specs:
            pool._decoded_config.cache_clear()
            pool._trace.cache_clear()
            alone.update(by_key([spec], run_sweep([spec])))
        assert alone == forward


class TestCellMemo:
    """The per-process config and trace memo loosens nothing."""

    def test_mistyped_or_incomplete_config_still_fails(self):
        # each bad value compares equal to the valid one (True == 1,
        # 64.0 == 64, 0 == False): only an exact key keeps them apart
        spec = explore_matrix()[0]
        config = copy.deepcopy(spec.config)
        config["hierarchy"]["l1"]["ways"] = 1
        valid = CellSpec("explore", "steins", "pers_hash", 40, 128, 1,
                         config=config, fault={"mode": "probe"})
        pool.execute_cell(valid)  # the valid config is now memoized
        for path, value in ((("hierarchy", "l1", "ways"), True),
                            (("security", "root_arity"), 64.0),
                            (("security", "cryptographic_hashes"), 0),
                            (("nvm_capacity_bytes",), None)):
            bad = copy.deepcopy(config)
            node = bad
            for name in path[:-1]:
                node = node[name]
            if value is None:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            with pytest.raises(ConfigError):
                pool.execute_cell(CellSpec(
                    "explore", "steins", "pers_hash", 40, 128, 1,
                    config=bad, fault={"mode": "probe"}))

    def test_unencodable_config_is_a_config_error(self):
        spec = explore_matrix()[0]
        config = dict(spec.config, clock_ghz=object())
        with pytest.raises(ConfigError, match="JSON"):
            pool.execute_cell(CellSpec(
                "explore", "steins", "pers_hash", 40, 128, 1,
                config=config, fault={"mode": "probe"}))

    def test_trace_key_covers_seed_footprint_and_accesses(self):
        base = ("pers_hash", 1, 400, 1024)
        traces = [pool._trace(*base), pool._trace("pers_hash", 2, 400, 1024),
                  pool._trace("pers_hash", 1, 400, 64),
                  pool._trace("pers_hash", 1, 200, 1024)]
        listed = [list(t) for t in traces]
        assert all(a != b for i, a in enumerate(listed)
                   for b in listed[i + 1:])
        fresh = get_profile("pers_hash").generate(seed=1, n=400,
                                                  footprint=1024)
        assert listed[0] == list(fresh)
        assert pool._trace(*base) is traces[0]

    def test_memoized_trace_is_read_only(self):
        trace = pool._trace("pers_hash", 1, 40, 128)
        for column in (trace.is_write, trace.address, trace.gap_cycles):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_cells_leave_the_shared_columns_unchanged(self):
        specs = explore_matrix()
        run_sweep(specs, jobs=1)
        for seed in (1, 2):
            trace = pool._trace("pers_hash", seed, 40, 128)
            assert trace.columns == (trace.is_write.tolist(),
                                     trace.address.tolist(),
                                     trace.gap_cycles.tolist())

    def test_an_explore_run_generates_its_trace_once(self, monkeypatch):
        calls = []
        real = WorkloadProfile.generate

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadProfile, "generate", counted)
        pool._trace.cache_clear()
        summary = run_explore(schemes=["steins"], accesses=40,
                              footprint=128, jobs=1)
        assert summary.explored_total > 0
        assert calls == ["pers_hash"]


class TestWarmCache:
    def test_second_run_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(matrix(), jobs=2, cache=cache)
        assert cold.executed == len(matrix()) and cold.cached == 0
        warm = run_sweep(matrix(), jobs=2, cache=cache)
        assert warm.executed == 0
        assert warm.cached == len(matrix())
        assert fingerprints(warm) == fingerprints(cold)

    def test_cached_values_identical_across_worker_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(matrix(), jobs=1, cache=cache)
        warm = run_sweep(matrix(), jobs=2, cache=cache)
        assert fingerprints(warm) == fingerprints(cold)

    def test_no_cache_always_executes(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(matrix(), cache=cache)
        again = run_sweep(matrix(), cache=None)
        assert again.executed == len(matrix())

    def test_summary_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(matrix()[:2], cache=cache)
        mixed = run_sweep(matrix(), jobs=2, cache=cache)
        assert mixed.total == 4
        assert mixed.cached == 2 and mixed.executed == 2
        assert "4 cells, 2 simulated, 2 cached" in mixed.summary()


class TestInFlightDedup:
    """Satellite: duplicate specs inside one sweep compute exactly once."""

    def test_duplicates_compute_once_and_fan_out(self):
        specs = matrix()[:2]
        batch = [specs[0], specs[1], specs[0], specs[0]]
        report = run_sweep(batch)
        assert report.executed == 2
        assert report.deduped == 2
        assert report.cached == 0
        prints = fingerprints(report)
        assert prints[0] == prints[2] == prints[3]

    def test_dedup_outcomes_match_distinct_runs_bitwise(self):
        specs = matrix()[:2]
        batch = [specs[0], specs[1], specs[0]]
        deduped = fingerprints(run_sweep(batch, jobs=2))
        alone = fingerprints(run_sweep(specs))
        assert deduped == [alone[0], alone[1], alone[0]]

    def test_dedup_provenance_flags(self):
        spec = matrix()[0]
        report = run_sweep([spec, spec])
        first, twin = report.outcomes
        assert not first.cached and not first.deduped
        assert twin.deduped and not twin.cached
        assert twin.elapsed_s == 0.0
        assert "2 cells, 1 simulated" in report.summary()

    def test_cache_hits_beat_dedup(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = matrix()[0]
        run_sweep([spec], cache=cache)
        warm = run_sweep([spec, spec], cache=cache)
        assert warm.cached == 2 and warm.deduped == 0

    def test_progress_fires_for_twins_too(self):
        spec = matrix()[0]
        seen = []
        run_sweep([spec, spec, spec],
                  progress=lambda done, total, out: seen.append(done))
        assert seen == [1, 2, 3]


class TestProgress:
    def test_callback_sees_every_cell_once(self):
        seen = []
        run_sweep(matrix(), jobs=2,
                  progress=lambda done, total, out: seen.append(
                      (done, total, out.spec)))
        assert [d for d, _, _ in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _, t, _ in seen)
        assert sorted(s.workload for _, _, s in seen) \
            == sorted(s.workload for s in matrix())


@contextlib.contextmanager
def deadline(seconds):
    """Fail (instead of hanging forever) if the block overruns."""
    def expire(signum, frame):
        raise TimeoutError(f"sweep still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def killing(marker=None):
    """An ``execute_cell`` that SIGKILLs its worker process.

    With a ``marker`` path only the first call dies (the file makes the
    claim atomic across workers); without one every call dies.
    """
    real = pool.execute_cell

    def execute_cell(spec):
        if marker is not None:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real(spec)
        os.kill(os.getpid(), signal.SIGKILL)

    return execute_cell


class TestWorkerFailures:
    """A killed worker is rerun; a raising cell fails the sweep by name."""

    def test_killed_worker_cell_is_rerun_byte_identically(
            self, tmp_path, monkeypatch):
        specs = matrix()
        serial = fingerprints(run_sweep(specs, jobs=1))
        # patched before the workers fork, so one of them dies mid-cell
        monkeypatch.setattr(pool, "execute_cell",
                            killing(tmp_path / "killed"))
        with deadline(30):
            parallel = run_sweep(specs, jobs=2)
        assert (tmp_path / "killed").exists(), "no worker was killed"
        assert fingerprints(parallel) == serial
        assert parallel.executed == len(specs)

    def test_worker_that_always_dies_exhausts_the_retry_limit(
            self, monkeypatch):
        monkeypatch.setattr(pool, "execute_cell", killing())
        with deadline(30), pytest.raises(ReproError,
                                         match="cell 0: worker died"):
            run_sweep(matrix()[:1], jobs=2)

    def test_raising_cell_fails_the_sweep_and_names_the_cell(self):
        # explore cells without a config raise deterministically
        bad = CellSpec("explore", "steins", "pers_hash", 60, 256, 7,
                       fault={"mode": "probe"})
        specs = [matrix()[0], bad]
        with pytest.raises(ConfigError, match="explicit config"):
            run_sweep(specs, jobs=1)
        with deadline(30), pytest.raises(ReproError, match="cell 1") as err:
            run_sweep(specs, jobs=2)
        assert "ConfigError: explore cells need an explicit config" \
            in str(err.value)


class TestSeedStreams:
    """Satellite: no two cells may ever share an RNG stream."""

    def test_profiles_draw_from_distinct_streams(self):
        traces = {
            name: get_profile(name).generate(seed=3, n=400, footprint=1024)
            for name in WORKLOADS
        }
        a = list(traces["pers_hash"])
        b = list(traces["cactusADM"])
        assert a != b
        # prefixes must differ too — not just lengths or tails
        assert a[:64] != b[:64]

    def test_same_profile_same_seed_is_reproducible(self):
        one = get_profile("pers_hash").generate(seed=3, n=400,
                                                footprint=1024)
        two = get_profile("pers_hash").generate(seed=3, n=400,
                                                footprint=1024)
        assert list(one) == list(two)

    def test_seed_change_changes_the_trace(self):
        one = get_profile("pers_hash").generate(seed=3, n=400,
                                                footprint=1024)
        two = get_profile("pers_hash").generate(seed=4, n=400,
                                                footprint=1024)
        assert list(one) != list(two)

    @pytest.mark.parametrize("variant_a,variant_b",
                             [("wb-gc", "asit")])
    def test_variants_share_the_trace(self, variant_a, variant_b):
        # deliberate: schemes are compared on identical traces, so the
        # derivation excludes the variant name
        a = CellSpec("sim", variant_a, "pers_hash", 600, 1024, 11,
                     config=CFG)
        b = CellSpec("sim", variant_b, "pers_hash", 600, 1024, 11,
                     config=CFG)
        ra, rb = run_sweep([a, b], jobs=1).values
        assert ra.data_reads + ra.data_writes \
            == rb.data_reads + rb.data_writes
