import json

import pytest

from d4vinberg.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cusp_table_json(capsys):
    code, out = run_cli(["cusp-table"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert len(data["rows"]) == 11
    assert data["c0"][0] == [1]


@pytest.mark.parametrize(
    "flags",
    [["--p", "0"], ["--p", "-5"], ["--p", "1"], ["--truncation", "0"],
     ["--truncation", "27555"]],
)
def test_cusp_table_rejects_a_bad_q_or_truncation(flags, capsys):
    # q < 2 has no decreasing tail, truncation 0 an empty one, and past
    # T = 27554 the coefficients overflow int64: each is a failed report
    code, out = run_cli(["cusp-table", *flags], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failure"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "argv, message",
    [(["curves", "--d", "-1"], "divisor degree d = -1 must be >= 0"),
     (["cusp-table", "--p", "6"], "p = 6 is not a prime")],
)
def test_a_config_outside_the_contract_is_a_named_refusal(argv, message, capsys):
    # a negative divisor degree and a --p that is no prime: a named
    # ValueError before any work, not numpy's message or a passing report
    code, out = run_cli(argv, capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failure"] == {"type": "ValueError", "message": message}


def test_curves_at_divisor_degree_zero(capsys):
    # D = 0 takes constant tuples, whose Delta is a nonzero constant; the
    # refusal of d < 0 must leave d = 0 alone
    code, out = run_cli(["curves", "--d", "0", "--n-samples", "2"], capsys)
    assert code == 0
    assert [row["disc_degree"] for row in json.loads(out)["rows"]] == [0, 0]


def test_cusp_table_csv_columns(tmp_path):
    out_path = tmp_path / "table.csv"
    code = main(["cusp-table", "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "M,lambda,size,2w,p,2wp,conditions_ok"
    assert len(lines) == 12
    assert lines[1].startswith("1,2;3;4;5,1,1;1;1;1")


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["geography", "--p", "23", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curves_csv(tmp_path):
    out_path = tmp_path / "curves.csv"
    code = main(
        ["curves", "--p", "5", "--d", "1", "--n-samples", "4", "--seed", "2",
         "--format", "csv", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "p2", "p4", "q4", "p6", "in_XD", "disc_degree", "bad_places", "N", "two_torsion"
    ]
    assert len(lines) == 5


def test_curves_csv_without_rows(tmp_path):
    out_path = tmp_path / "curves.csv"
    code = main(
        ["curves", "--p", "5", "--d", "1", "--n-samples", "0",
         "--format", "csv", "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_text() == ""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 23\nn-samples = 3\nseed = 9\n")
    code, out = run_cli(
        ["densities", "--config", str(cfg), "--p", "5", "--d", "0", "--n-samples", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"]["p"] == 5  # flag overrides file
    assert data["config"]["seed"] == 9  # file value survives
    assert data["reports"]["alpha"] == "437/3125"


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("p = abc\n", "ValueError", "invalid literal for int() with base 10: 'abc'"),
        (None, "FileNotFoundError", "No such file or directory"),
        ("format = xml\n", "ValueError", "format 'xml' is neither json nor csv"),
    ],
)
def test_a_bad_config_file_is_a_failed_report(tmp_path, capsys, text, kind, message):
    # an unparsable value, a missing file and an unknown format: each a
    # structured failure record with exit code 1, not a traceback or a
    # silent fallback to JSON
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out = run_cli(["geography", "--config", str(cfg)], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failure"]["type"] == kind
    assert message in data["failure"]["message"]


@pytest.mark.parametrize("line, key", [("p = abc", "p"), ("n-samples = 1e3", "n_samples")])
def test_a_non_integer_config_value_names_its_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out = run_cli(["geography", "--config", str(cfg)], capsys)
    assert code == 1
    message = json.loads(out)["failure"]["message"]
    assert message.startswith(f"config key '{key}': invalid literal for int()")


def test_densities_oracle_flag(capsys):
    code, out = run_cli(
        ["densities", "--p", "5", "--d", "0", "--n-samples", "0", "--oracle"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["reports"]["alpha_bruteforce"] == "437/3125"
    assert data["reports"]["so4_oracle"] == 14400


def test_densities_at_the_default_p_fails_fast(capsys):
    # at p = 23 the exact degree-6 truncation of delta_B is out of reach:
    # a structured ValueError record, not an endless product
    code, out = run_cli(["densities", "--d", "0", "--n-samples", "0"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["config"]["p"] == 23
    assert data["passed"] is False
    assert data["failure"]["type"] == "ValueError"


@pytest.mark.parametrize("flags, q", [(["--p", "35"], 35)])
def test_densities_at_a_q_that_is_no_prime_power_fails(flags, q, capsys):
    # q = 35 must not pass for GF(5^2)
    code, out = run_cli(["densities", *flags, "--d", "0", "--n-samples", "0"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failure"] == {"type": "ValueError", "message": f"q = {q} is not a prime power"}


@pytest.mark.parametrize("m", [0, -1])
def test_densities_at_an_extension_degree_below_one_fails(m, capsys):
    # refused before q = p^m is formed: m = 0 gives no empty ValueError on
    # q = 1, and m = -1 no TypeError traceback on a float q
    code, out = run_cli(["densities", "--m", str(m), "--d", "0", "--n-samples", "0"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["config"]["m"] == m
    message = f"extension degree m = {m} must be >= 1"
    assert data["failure"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("command, m", [("verify-algebra", 0), ("curves", -1)])
def test_every_command_refuses_an_extension_degree_below_one(command, m, capsys):
    # the same record as densities, before the command runs: verify-algebra
    # would run m = 2 and curves no m at all, and both echo m in the report
    code, out = run_cli([command, "--m", str(m)], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["config"]["m"] == m
    message = f"extension degree m = {m} must be >= 1"
    assert data["failure"] == {"type": "ValueError", "message": message}


def test_a_failed_report_exits_one(monkeypatch, capsys):
    import d4vinberg.cli as cli_mod

    monkeypatch.setitem(cli_mod.COMMANDS, "geography", lambda args, cfg: {"passed": False})
    code, out = run_cli(["geography"], capsys)
    assert code == 1
    assert json.loads(out) == {"passed": False}


def test_failure_is_structured(monkeypatch, capsys):
    import d4vinberg.cli as cli_mod

    def boom(args, cfg):
        raise AssertionError("forced failure")

    monkeypatch.setitem(cli_mod.COMMANDS, "geography", boom)
    code, out = run_cli(["geography"], capsys)
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]
    assert data["failure"]["type"] == "AssertionError"


def test_suite_exception_is_a_failed_report():
    import inspect

    from d4vinberg import verify

    result = verify.stabilizer_suite(p=23, n=2, max_q=5)
    assert not result["passed"]
    assert result["details"]["type"] == "ValueError"
    assert "exceeds enumeration bound" in result["details"]["failure"]
    assert list(inspect.signature(verify.densities_suite).parameters) == [
        "q", "beta_n", "delta_d", "delta_n", "seed", "slow"
    ]
