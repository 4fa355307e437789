"""Serialization round trips and the command-line surface."""

from fractions import Fraction
from pathlib import Path

import pytest

from costlab.cli import main
from costlab.core import ApproximationTrace, cost_of_trace, geometric_cost
from costlab.errors import ParseError
from costlab.generate import left_ce_real, rng_for
from costlab.machine import request_set
from costlab.scenarios import parse_scenario
from costlab.serialize import (
    dump_ledger_csv,
    dump_real,
    dump_schedule,
    dump_trace,
    load_real,
    load_schedule,
    load_trace,
)


def test_schedule_roundtrip():
    rs = request_set([(2, 7, 1), (3, 9, 4), (3, 2, 4)])
    assert load_schedule(dump_schedule(rs)) == rs


def test_schedule_parse_error_position():
    with pytest.raises(ParseError) as err:
        load_schedule("1 2 3\nbogus line here after\n")
    assert "line 2" in str(err.value)


def test_trace_roundtrip_with_initial():
    a = ApproximationTrace(30, [(3, 2, 1), (7, 2, 0)], initial={5})
    b = load_trace(dump_trace(a))
    assert b.events == a.events and b.initial == a.initial and b.horizon == 30


def test_trace_missing_horizon():
    with pytest.raises(ParseError):
        load_trace("3 2 1\n")


def test_trace_rejects_repeated_initial_line():
    with pytest.raises(ParseError) as err:
        load_trace("horizon 10\ninitial 1 2\ninitial 3\n4 5 1\n")
    assert err.value.line_no == 3 and "repeated initial" in str(err.value)


def test_enumeration_load_rejects_removals():
    text = "horizon 10\n2 1 1\n4 1 0\n"
    with pytest.raises(ParseError):
        load_trace(text, enumeration=True)


def test_real_roundtrip():
    rng = rng_for(3)
    b = left_ce_real(rng, 20)
    assert load_real(dump_real(b), cap=b.cap).seq == b.seq


def test_real_requires_consecutive_stages():
    with pytest.raises(ParseError):
        load_real("0 0 1\n2 1 2\n")


def test_ledger_csv_carries_exact_rationals():
    c = geometric_cost(10)
    a = ApproximationTrace(10, [(4, 1, 1)])
    csv = dump_ledger_csv(cost_of_trace(c, a))
    assert csv.splitlines()[0] == "stage,x,amount_num,amount_den"
    assert "4,1,1,2" in csv


def test_wish_csv_columns():
    from costlab.dual import Wish
    from costlab.serialize import dump_wishes_csv

    wishes = [
        Wish(x=3, alpha=Fraction(1, 4), u=90, born=5, context_use=2),
        Wish(x=3, alpha=Fraction(1, 2), u=95, born=8, context_use=2, removed=12, holder=1),
    ]
    csv = dump_wishes_csv(wishes)
    lines = csv.splitlines()
    assert lines[0] == "born,x,alpha_num,alpha_den,u,removed,holder"
    assert lines[1] == "5,3,1,4,90,,"
    assert lines[2] == "8,3,1,2,95,12,1"


def test_parse_scenario_and_errors():
    s = parse_scenario("# demo\nscenario kraft-audit\nseed 9\nparam S 64\n")
    assert s.kind == "kraft-audit" and s.seed == 9 and s.params == {"S": 64}
    with pytest.raises(ParseError):
        parse_scenario("scenario nonsense\n")
    with pytest.raises(ParseError):
        parse_scenario("seed 1\n")
    with pytest.raises(ParseError) as err:
        parse_scenario("scenario kraft-audit\nparam S sixty\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text, line_no, what",
    [
        ("scenario kraft-audit\nseed 1\nseed 2\n", 3, "repeated seed"),
        ("seed 1\n# again\nseed 1\nscenario kraft-audit\n", 3, "repeated seed"),
        ("scenario kraft-audit\nparam J 3\nparam S 8\nparam J 12\n", 4, "repeated param 'J'"),
    ],
)
def test_parse_scenario_rejects_repeated_lines(text, line_no, what):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line_no == line_no and what in str(err.value)


@pytest.mark.parametrize(
    "text, line_no, what",
    [
        ("scenario existence\nparam count -3\n", 2, "negative value"),  # passed vacuously
        ("# sizes is no keyword\nparam sizes 3\nscenario existence\n", 2, "no param 'sizes'"),
    ],
)
def test_parse_scenario_rejects_params_the_runner_cannot_take(tmp_path, capsys, text, line_no, what):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line_no == line_no and what in str(err.value)
    desc = tmp_path / "scenario.txt"
    desc.write_text(text)
    assert main(["run", str(desc), "-o", str(tmp_path / "run")]) == 1
    stderr = capsys.readouterr().err
    assert f"line {line_no}" in stderr and "Traceback" not in stderr
    assert not (tmp_path / "run").exists()


def test_cli_run_deterministic(tmp_path: Path):
    desc = tmp_path / "scenario.txt"
    desc.write_text("scenario kraft-audit\nseed 5\nparam S 128\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", str(desc), "-o", str(out1)]) == 0
    assert main(["run", str(desc), "-o", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_writes_summary_and_artifacts(tmp_path: Path):
    desc = tmp_path / "scenario.txt"
    desc.write_text("scenario slow-enum\nseed 0\nparam J 12\n")
    out = tmp_path / "run"
    assert main(["run", str(desc), "-o", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "[PASS]" in summary and "ALL PASS" in summary
    assert (out / "manifest.txt").read_text().startswith("costlab")
    assert (out / "slow_enum_trace.txt").exists()
    # the separation scenario at its defaults (b = 0) passes its checks
    sep = tmp_path / "separation.txt"
    sep.write_text("scenario separation\nseed 0\n")
    assert main(["run", str(sep), "-o", str(tmp_path / "sep")]) == 0
    assert "ALL PASS" in (tmp_path / "sep" / "summary.txt").read_text()
    assert (tmp_path / "sep" / "separation_requests.txt").exists()


def test_cli_rejects_malformed_descriptor(tmp_path: Path, capsys):
    desc = tmp_path / "bad.txt"
    desc.write_text("scenario kraft-audit\nnot a directive\n")
    assert main(["run", str(desc), "-o", str(tmp_path / "out")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_cli_run_rejects_a_negative_seed(tmp_path: Path, capsys):
    desc = tmp_path / "k.txt"
    desc.write_text("scenario kraft-audit\nparam S 64\n")
    out = tmp_path / "out"
    assert main(["run", str(desc), "-o", str(out), "--seed", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed" in err and "Traceback" not in err
    assert not out.exists()  # no manifest with an unparsable seed line


def test_cli_run_refuses_a_slow_enumeration_with_no_interval(tmp_path: Path, capsys):
    desc = tmp_path / "slow.txt"
    desc.write_text("scenario slow-enum\nseed 0\nparam J 0\n")
    assert main(["run", str(desc), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: at least one interval is needed\n"


def test_cli_generate_rejects_a_negative_seed(tmp_path: Path, capsys):
    target = tmp_path / "scenario.txt"
    assert main(["generate", "scenario", "--seed", "-1", "-o", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed" in err and "Traceback" not in err
    assert not target.exists()


def test_cli_generate_and_check(tmp_path: Path):
    target = tmp_path / "real.txt"
    assert main(["generate", "real", "--seed", "4", "--horizon", "40", "-o", str(target)]) == 0
    assert main(["check", "real", str(target)]) == 0

    tr = tmp_path / "trace.txt"
    assert main(["generate", "trace", "--seed", "4", "-o", str(tr)]) == 0
    assert main(["check", "trace", str(tr)]) == 0

    sched = tmp_path / "sched.txt"
    assert main(["generate", "schedule", "--seed", "4", "-o", str(sched)]) == 0
    assert main(["check", "schedule", str(sched)]) == 0


def test_cli_generate_deterministic(tmp_path: Path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "trace", "--seed", "11", "-o", str(a)])
    main(["generate", "trace", "--seed", "11", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_export_ledger(tmp_path: Path):
    tr = tmp_path / "trace.txt"
    main(["generate", "trace", "--seed", "2", "--horizon", "60", "-o", str(tr)])
    out = tmp_path / "ledger.csv"
    assert main(["export", "ledger", "--trace", str(tr), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stage,x,amount_num,amount_den"

    ev_out = tmp_path / "events.csv"
    assert main(["export", "events", "--trace", str(tr), "-o", str(ev_out)]) == 0
    assert ev_out.read_text().splitlines()[0] == "stage,x,value"


def test_cli_check_detects_corruption(tmp_path: Path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("horizon 10\n2 1 5\n")
    assert main(["check", "trace", str(bad)]) == 2


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("real", "", "line 1: a left-c.e. real needs at least one stage"),
        ("real", "# comments only\n\n", "line 1: a left-c.e. real needs at least one stage"),
        ("schedule", "1 3 5\n0 3 6\n", "line 2: request stages must be nondecreasing"),
        ("schedule", "1 0 5\n1 0 6\n", "line 2: adding 2^-0 lifts the weight to 2 > 1"),
    ],
    ids=["empty-real", "comments-only-real", "stage-order", "overweight"],
)
def test_cli_check_names_the_line_of_a_malformed_artifact(
    tmp_path: Path, capsys, kind, text, message
):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["check", kind, str(bad)]) == 2
    assert capsys.readouterr().err == f"invalid {kind}: {message}\n"
