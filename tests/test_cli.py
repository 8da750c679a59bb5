"""CLI smoke tests (in-process: parse + dispatch + render)."""
import pytest

from repro.cli import build_parser, main


def test_workloads_lists_paper_set(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("lbm_r", "cactusADM", "pers_hash", "pers_swap"):
        assert name in out
    assert "[persistent]" in out


def test_storage_table(capsys):
    assert main(["storage"]) == 0
    out = capsys.readouterr().out
    assert "steins-sc" in out and "asit-gc" in out
    assert "2.00" in out   # 2 GB GC leaves


def test_overflow_table(capsys):
    assert main(["overflow"]) == 0
    out = capsys.readouterr().out
    assert "traditional" in out and "steins-skip" in out
    assert "scue-rebuild 1TB" in out


def test_run_cell(capsys):
    assert main(["run", "steins-gc", "pers_hash",
                 "--accesses", "1500", "--footprint", "2048"]) == 0
    out = capsys.readouterr().out
    assert "exec time" in out
    assert "metadata cache hits" in out


def test_recover_demo(capsys):
    assert main(["recover", "steins-gc", "--writes", "400"]) == 0
    out = capsys.readouterr().out
    assert "nodes recovered" in out
    assert "blocks re-verified" in out


def test_figure_17(capsys):
    assert main(["figure", "17"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 17" in out and "4MB" in out


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
        build_parser().parse_args(["run", "nope", "pers_hash"])


def test_parser_rejects_wb_recover():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["recover", "wb-gc"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


#: today's defaults of the options faults, oracle and explore share
CRASH_SWEEP_DEFAULTS = {
    "faults": dict(seed=2024, accesses=400, footprint=2048),
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
