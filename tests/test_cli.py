"""The command-line frontend: outputs, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from garside.braid import braid_structure, parse_word
from garside.cli import bench
from garside.cli.main import main
from garside.core import identity_element
from garside.rigid import is_rigid


def run_cli(*argv, env_seed=None):
    cmd = [sys.executable, "-m", "garside.cli.main", *argv]
    env = None
    if env_seed is not None:
        import os

        env = dict(os.environ, GARSIDE_SEED=str(env_seed))
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_nf_command():
    r = run_cli("nf", "--n", "3", "1 2 1", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert (out["inf"], out["sup"], out["factors"]) == (1, 1, [])


def test_nf_human_mode():
    r = run_cli("nf", "--n", "3", "2 1 1")
    assert r.returncode == 0
    assert "inf 0" in r.stdout and "sup 2" in r.stdout


def test_cyc_command():
    r = run_cli("cyc", "--n", "3", "--order", "1", "2 1 1", "--json")
    out = json.loads(r.stdout)
    assert out["result"]["word"] == "D"
    assert out["conjugator"]["word"] == "2 1"
    r = run_cli("cyc", "--n", "3", "--double", "2", "1", "1", "--json")
    assert json.loads(r.stdout)["result"]["word"] == "1"
    r = run_cli("cyc", "--n", "3", "2 1 1", "--json")
    assert json.loads(r.stdout)["result"]["word"] == "D"


def test_summit_command():
    r = run_cli("summit", "--kind", "star", "--n", "3", "1 1", "--json")
    out = json.loads(r.stdout)
    assert out["size"] == 2 and out["kind"] == "star"
    assert (out["infs"], out["sups"]) == (0, 2)
    assert sorted(out["words"]) == ["1 1", "2 2"]


def test_summit_json_golden_bytes():
    r = run_cli("summit", "--kind", "star", "--n", "3", "1 1", "--json")
    assert r.stdout == (
        '{"infs":0,"kind":"star","members":[{"factors":[[1,3,2],[1,3,2]],"power":0},'
        '{"factors":[[2,1,3],[2,1,3]],"power":0}],"size":2,"sups":2,"words":["2 2","1 1"]}\n'
    )
    r = run_cli("summit", "--kind", "ultra", "--n", "4", "1 2 3 1", "--json")
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "3f547ecd63943d4e6d66b80e344da1abed185876b19c5f5abca0078dab899819"
    )


def test_conj_json_golden_bytes():
    r = run_cli("conj", "--n", "5", "1 2 4 4 4", "2 4 1 4 4", "--json")
    assert r.stdout == '{"conjugate":true,"witness":"D 2 3 4 1 2 3"}\n'
    # inverse letters in the input
    r = run_cli("conj", "--n", "4", "1 -2 3 3", "D^-1 2 3 1 1 3 2 2 1", "--json")
    assert r.stdout == '{"conjugate":true,"witness":"2 3 1"}\n'


def test_rigid_power_json_golden_bytes():
    r = run_cli("rigid-power", "--n", "4", "3 1 2 3 3", "--json")
    assert r.stdout == (
        '{"power":2,"rigid":true,"rigid_conjugate":{"factors":[[3,4,1,2]],"inf":1,"len":1,'
        '"power":1,"sup":2,"word":"D 2 3 1 2"},"stable_exponents":[2,1],"witness":"D 3 2"}\n'
    )
    r = run_cli("rigid-power", "--n", "5", "4 3 2", "--json")
    assert r.stdout == (
        '{"power":2,"rigid":true,"rigid_conjugate":{"factors":[[1,5,4,3,2]],"inf":0,"len":1,'
        '"power":0,"sup":1,"word":"2 3 4 2 3 2"},"stable_exponents":[1,2],"witness":"3 4 2 3 2"}\n'
    )


def test_serialization_sorted_and_stable():
    argv = ("summit", "--kind", "star", "--n", "3", "1 1", "--json")
    d1 = json.loads(run_cli(*argv).stdout)
    d2 = json.loads(run_cli(*argv).stdout)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert d1["kind"] == "star"
    assert (d1["infs"], d1["sups"]) == (0, 2)
    members = d1["members"]
    assert members == sorted(members, key=lambda m: (m["power"], m["factors"]))
    assert {tuple(map(tuple, m["factors"])) for m in members} == {((2, 1, 3), (2, 1, 3)), ((1, 3, 2), (1, 3, 2))}


def test_conj_command_exit_codes():
    r = run_cli("conj", "--n", "3", "1", "2", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {"conjugate": True, "witness": "D"}

    r = run_cli("conj", "--n", "3", "1", "1 1", "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"conjugate": False}


def test_rigid_commands():
    r = run_cli("rigid", "--n", "3", "1", "--json")
    assert json.loads(r.stdout)["rigid"] is True
    r = run_cli("rigid", "--n", "3", "1 2", "--json")
    assert json.loads(r.stdout)["rigid"] is False
    r = run_cli("rigid-power", "--n", "3", "1", "--json")
    out = json.loads(r.stdout)
    assert out["rigid"] is True and out["power"] >= 1
    # no strand cap: B_7, with a power and a nontrivial witness
    word = "1 3 1 4 2"
    r = run_cli("rigid-power", "--n", "7", word, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rigid"] is True and out["power"] == 2
    witness = parse_word(out["witness"], 7)
    assert witness != identity_element(braid_structure(7))
    rigid_conjugate = parse_word(out["rigid_conjugate"]["word"], 7)
    assert (parse_word(word, 7) ** out["power"]).conj(witness) == rigid_conjugate
    assert is_rigid(rigid_conjugate)


def test_rigid_conjugates_honour_the_limits():
    r = run_cli("rigid", "--n", "3", "1", "--conjugates", "--max-size", "1")
    assert r.returncode == 3
    assert "aborted" in r.stderr
    r = run_cli("rigid", "--n", "3", "1", "--conjugates", "--budget-ms", "0")
    assert r.returncode == 3
    r = run_cli("rigid", "--n", "3", "1", "--conjugates", "--max-size", "2", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rigid_conjugates"] == ["2", "1"]


def test_input_error_exit_code():
    for bad in (["nf", "--n", "3", "9"], ["nf", "--n", "3", "junk!"], ["gen", "--test", "2", "--n", "7", "--l", "2"]):
        r = run_cli(*bad)
        assert r.returncode == 2, bad
        assert "error" in r.stderr


def test_budget_exit_code():
    r = run_cli("summit", "--kind", "ultra", "--n", "3", "1 1", "--max-size", "1")
    assert r.returncode == 3
    assert "aborted" in r.stderr


@pytest.mark.parametrize("limit", [["--budget-ms", "nan"], ["--budget-ms", "-5"], ["--max-size", "-1"]])
def test_invalid_limits_are_input_errors(limit):
    # a NaN budget used to run with no clock (exit 0) and a negative limit
    # to abort at once (exit 3); both are input errors
    for argv in (["summit", "--kind", "ultra", "--n", "3", "1 1"], ["conj", "--n", "3", "1 1", "2 2"]):
        r = run_cli(*argv, *limit)
        assert r.returncode == 2, (argv, limit, r.stderr)
        assert "error" in r.stderr and ("budget_ms" in r.stderr or "max_size" in r.stderr)


@pytest.mark.parametrize("argv", [
    ["nf", "--n", "3", "1"],
    ["cyc", "--n", "3", "1 1"],
    ["rigid-power", "--n", "3", "1 1"],
    ["gen", "--test", "3", "--n", "4", "--l", "2"],
])
@pytest.mark.parametrize("limit", [["--budget-ms", "1000"], ["--max-size", "10"]])
def test_limits_rejected_where_not_honoured(argv, limit, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + limit)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(limit)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    *[(argv, ["--seed", "3"]) for argv in (
        ["nf", "--n", "3", "1"],
        ["cyc", "--n", "3", "1 1"],
        ["summit", "--n", "3", "1 1"],
        ["conj", "--n", "3", "1", "2"],
        ["rigid", "--n", "3", "1"],
        ["rigid-power", "--n", "3", "1 1"],
    )],
    (["bench", "--test", "3", "--n", "3", "--l", "1", "--samples", "1"], ["--json"]),
    (["cyc", "--n", "3", "--double", "2", "1", "1"], ["--order", "1"]),
])
def test_ignored_flags_rejected(argv, flag, capsys):
    # only gen and bench draw random braids, bench prints CSV, and cyc
    # takes one of --order and --double
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "not allowed with argument" in err
    assert flag[0] in err


def test_conj_honours_the_limits():
    assert run_cli("conj", "--n", "3", "1 1", "2 2", "--max-size", "1").returncode == 3
    r = run_cli("conj", "--n", "3", "1 1", "2 2", "--max-size", "2", "--budget-ms", "60000")
    assert r.returncode == 0


def test_gen_seed_and_env_fallback():
    r1 = run_cli("gen", "--test", "3", "--n", "4", "--l", "2", "--seed", "5", "--json")
    r2 = run_cli("gen", "--test", "3", "--n", "4", "--l", "2", "--json", env_seed=5)
    assert r1.stdout == r2.stdout
    out = json.loads(r1.stdout)
    assert out["seed"] == 5 and out["test"] == 3


def test_json_mode_byte_deterministic():
    for argv in (
        ["nf", "--n", "4", "1 -2 3 D", "--json"],
        ["summit", "--kind", "star", "--n", "3", "1 1", "--json"],
        ["conj", "--n", "3", "1", "2", "--json"],
        ["gen", "--test", "1", "--n", "5", "--l", "3", "--seed", "9", "--json"],
        ["rigid-power", "--n", "3", "1 1", "--json"],
    ):
        a, b = run_cli(*argv), run_cli(*argv)
        assert a.stdout == b.stdout and a.stdout.strip(), argv


def test_bench_csv():
    r = run_cli("bench", "--test", "3", "--n", "4", "--l", "2", "--samples", "4", "--seed", "3")
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["test", "n", "l", "samples", "kind", "mean_size", "max_size",
                      "mean_ms", "max_ms", "timeouts"]
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    kinds = {row["kind"] for row in rows}
    assert kinds == {"ultra", "star"}
    for row in rows:
        assert float(row["mean_size"]) > 0
        assert int(row["timeouts"]) == 0
    assert "# seed=3" in r.stdout


def test_bench_budget_counts_timeouts():
    # a zero budget times everything out without corrupting aggregates
    r = run_cli("bench", "--test", "3", "--n", "4", "--l", "2", "--samples", "2",
                "--seed", "3", "--budget-ms", "0")
    lines = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    for row in (dict(zip(header, l.split(","))) for l in lines[1:]):
        assert row["timeouts"] == "2"
        assert row["mean_size"] == "0.00"


def test_bench_rejects_a_repeated_kind(monkeypatch):
    # both passes of a repeated kind would add to the same aggregates
    r = run_cli("bench", "--test", "1", "--n", "5", "--l", "2", "--samples", "3",
                "--seed", "1", "--max-size", "3", "--kinds", "ultra,ultra")
    assert (r.returncode, r.stdout) == (2, "")
    assert "error" in r.stderr
    # and before drawing any sample
    monkeypatch.setitem(bench.GENERATORS, 1, lambda *args: pytest.fail("a sample was drawn"))
    with pytest.raises(ValueError):
        bench.run_bench(1, 5, 2, samples=3, kinds=("ultra", "star", "ultra"))


def test_main_callable_directly():
    assert main(["nf", "--n", "3", "--json", "1"]) == 0
