"""CLI smoke tests (in-process: parse + dispatch + render)."""
import pytest

from repro.analysis.figures import FigureHarness
from repro.cli import build_parser, main
from repro.sim.system import SecureNVMSystem


def test_workloads_lists_paper_set(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("lbm_r", "cactusADM", "pers_hash", "pers_swap"):
        assert name in out
    assert "[persistent]" in out


#: what ``repro run steins-gc pers_hash --accesses 1500 --footprint
#: 2048`` printed before ``trace`` took over its rows
RUN_ROWS = """\
  exec time            103.078us
  data reads / writes  412 / 1000
  avg read latency     119.1 ns
  avg write latency    410.2 ns
  NVM write traffic    1030 lines
  energy               23.1 uJ
  metadata cache hits  95.0%
"""


def test_run_cell(tmp_path, capsys):
    """``trace`` is the single-run command: it prints the metric rows
    the retired ``run`` printed, with the same values."""
    assert main(["trace", "steins-gc", "pers_hash",
                 "--accesses", "1500", "--footprint", "2048",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("traced steins-gc x pers_hash\n" + RUN_ROWS)
    assert "nodes recovered" not in out


def test_recover_demo(tmp_path, capsys):
    """``trace --recover`` replaces the retired ``recover`` demo."""
    assert main(["trace", "steins-gc", "pers_hash", "--accesses", "400",
                 "--small", "--recover", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nodes recovered" in out
    assert "blocks re-verified" in out


def test_trace_recover_raises_on_a_failed_check(tmp_path, monkeypatch,
                                                  capsys):
    def lost_block(self):
        raise AssertionError("block 7: lost")

    monkeypatch.setattr(SecureNVMSystem, "verify_all_persisted",
                        lost_block)
    with pytest.raises(AssertionError, match="block 7: lost"):
        main(["trace", "steins-gc", "pers_hash", "--accesses", "400",
              "--small", "--recover", "--out", str(tmp_path)])
    assert "blocks re-verified" not in capsys.readouterr().out
    # the artifacts are written before the checks run
    assert (tmp_path / "trace.json").exists()


def test_figure_17(capsys):
    assert main(["figure", "17"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 17" in out and "4MB" in out


#: a figure run small enough for the tier-1 suite
TINY = ["--accesses", "300", "--footprint", "512",
        "--workload", "pers_hash", "--jobs", "1"]


def test_figure_runs_concatenate(capsys):
    assert main(["figure", "9", "12", "17", *TINY]) == 0
    together = capsys.readouterr().out
    apart = ""
    for number in ("9", "12", "17"):
        assert main(["figure", number, *TINY]) == 0
        apart += capsys.readouterr().out
    assert together == apart
    assert together.count("Fig. ") == 3


def test_figure_warm_cache_simulates_nothing(tmp_path, capsys):
    argv = ["figure", "13", *TINY, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "figure: 4 cells, 4 simulated, 0 cached" in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "figure: 4 cells, 0 simulated, 4 cached" in warm.err
    assert warm.out == cold.out


def test_figure_check_holds_on_fig17(capsys):
    assert main(["figure", "17", "--check"]) == 0
    assert "check: 11 of 11 claims hold" in capsys.readouterr().err


def _serve_rows(monkeypatch, rows):
    """Make every figure read ``rows`` instead of simulating."""
    monkeypatch.setattr(FigureHarness, "ensure_figures",
                        lambda self, numbers: None)
    monkeypatch.setattr(FigureHarness, "figure",
                        lambda self, number: rows)


FIG9_ROW = {"wb-gc": 1.0, "asit": 1.2, "star": 1.1, "steins-gc": 1.0}


def test_figure_check_passes_on_holding_rows(monkeypatch, capsys):
    _serve_rows(monkeypatch, {"mcf_r": FIG9_ROW})
    assert main(["figure", "9", "--check"]) == 0
    assert "check: 4 of 4 claims hold" in capsys.readouterr().err


def test_figure_check_names_a_broken_claim(monkeypatch, capsys):
    _serve_rows(monkeypatch, {"mcf_r": {**FIG9_ROW, "steins-gc": 1.15}})
    assert main(["figure", "9", "--check"]) == 1
    err = capsys.readouterr().err
    assert "FAILED Fig. 9: Steins-GC runs faster than STAR: " \
        "geomean steins-gc = 1.15 < geomean star = 1.1 does not hold" in err
    assert err.count("FAILED") == 1
    assert "check: 3 of 4 claims hold" in err


def test_figure_check_fails_undefined_cells(monkeypatch, capsys):
    # no cactusADM row, and a zero-baseline (None) steins-gc cell
    row = {"wb-gc": 1.0, "asit": 2.0, "star": 1.5, "steins-gc": None}
    _serve_rows(monkeypatch, {"lbm_r": row})
    assert main(["figure", "13", "--check"]) == 1
    err = capsys.readouterr().err
    assert "FAILED Fig. 13: Steins-GC writes less than STAR: " \
        "geomean steins-gc = undefined < geomean star = 1.5" in err
    assert "steins-gc on cactusADM = undefined" in err
    assert "check: 3 of 5 claims hold" in err


def test_sweep_and_no_cache_are_gone():
    for argv in (["sweep"], ["figure", "17", "--no-cache"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["serve", "--backoff", "1"], ["serve", "--cell-timeout", "1"],
    ["serve", "--retry-limit", "1"], ["submit", "--code-version", "x"]])
def test_retired_serve_options_are_gone(argv, capsys):
    """The worker scheduler's retry limit is the fixed ``RETRY_LIMIT``,
    without backoff or timeout, and a service keys cells with its own
    code version."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.slow
def test_oracle_single_scheme(capsys):
    assert main(["oracle", "--scheme", "steins", "--accesses", "250",
                 "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert "oracle suite:" in out
    assert "all cases conform" in out


@pytest.mark.slow
def test_oracle_json_output(capsys):
    import json
    assert main(["oracle", "--scheme", "wb", "--accesses", "250",
                 "--json"]) == 0
    tally = json.loads(capsys.readouterr().out)
    assert tally["ok"] is True
    assert tally["schemes"] == ["wb"]


def test_parser_rejects_bad_variant():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "nope", "pers_hash"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_faults_command_is_retired(capsys):
    """Retired commands: a budgeted ``repro explore`` replaces
    ``faults``, ``trace`` (``--recover``) replaces ``run`` and
    ``recover``, ``examples/scheme_comparison.py`` replaces ``compare``,
    and the checked-in ``benchmarks/results/table_storage.txt`` and
    ``table_overflow.txt`` replace ``storage`` and ``overflow``."""
    for command in ("faults", "run", "compare", "recover", "storage",
                    "overflow"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2, command
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


#: today's defaults of the options oracle and explore share
CRASH_SWEEP_DEFAULTS = {
    "oracle": dict(seed=2024, accesses=400, footprint=2048),
    "explore": dict(seed=2025, accesses=120, footprint=512),
}


@pytest.mark.parametrize("command", sorted(CRASH_SWEEP_DEFAULTS))
def test_crash_sweep_shared_options(command, capsys):
    args = build_parser().parse_args([command])
    for name, value in CRASH_SWEEP_DEFAULTS[command].items():
        assert getattr(args, name) == value, name
    assert (args.scheme, args.workload) == (None, None)
    assert (args.jobs, args.cache_dir, args.service, args.json) == \
        (1, None, None, False)
    # an unregistered scheme is the registry's error on every command
    assert main([command, "--scheme", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown scheme 'nope'; registered schemes:" in err
