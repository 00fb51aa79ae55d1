import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pattherm import machine_to_dict, minimize_to_causal, validate_machine
from pattherm.cli import main
from pattherm.machines import (
    fair_coin,
    golden_mean,
    period_two,
    perturbed_coin,
    redundant_perturbed_coin,
)
from pattherm.process_model import load_machine_file, save_machine_file

from .oracles import binary_entropy

HB9 = binary_entropy(0.9)
MACHINES = Path(__file__).resolve().parent.parent / "machines"


def exit_code(argv) -> int:
    """`main`'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def pc_file(tmp_path):
    path = tmp_path / "pc.json"
    save_machine_file(validate_machine(perturbed_coin(0.9)), path)
    return str(path)


@pytest.fixture()
def fc_file(tmp_path):
    path = tmp_path / "fc.json"
    save_machine_file(validate_machine(fair_coin()), path)
    return str(path)


@pytest.fixture()
def gm_file(tmp_path):
    path = tmp_path / "gm.json"
    save_machine_file(validate_machine(golden_mean()), path)
    return str(path)


@pytest.fixture()
def last_two_kernel_file(tmp_path):
    data = {
        "kind": "kernel",
        "name": "last-two",
        "sub_states": {"L": ["LL", "RL"], "R": ["LR", "RR"]},
        "rules": [
            {"target": "L", "source_class": "L", "p": {"LL": 1.0}},
            {"target": "L", "source_class": "R", "p": {"RL": 1.0}},
            {"target": "R", "source_class": "L", "p": {"LR": 1.0}},
            {"target": "R", "source_class": "R", "p": {"RR": 1.0}},
        ],
    }
    path = tmp_path / "last_two.json"
    path.write_text(json.dumps(data))
    return str(path)


def grab(pattern, text):
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in:\n{text}"
    return float(match.group(1))


class TestAnalyze:
    def test_perturbed_coin_report(self, pc_file, capsys):
        assert main(["analyze", pc_file]) == 0
        out = capsys.readouterr().out
        assert grab(r"C = ([\d.]+)", out) == pytest.approx(1.0, abs=1e-6)
        assert grab(r"h = ([\d.]+)", out) == pytest.approx(0.468996, abs=1e-6)
        assert grab(r"E = ([\d.]+)", out) == pytest.approx(0.531004, abs=1e-6)
        assert "converged at L=1" in out

    def test_fair_coin_report(self, fc_file, capsys):
        assert main(["analyze", fc_file]) == 0
        out = capsys.readouterr().out
        assert grab(r"C = ([\d.]+)", out) == 0.0
        assert grab(r"h = ([\d.]+)", out) == 1.0
        assert grab(r"E = ([\d.]+)", out) == 0.0

    def test_bad_row_sum_exits_2_and_names_state(self, tmp_path, capsys):
        data = machine_to_dict(validate_machine(perturbed_coin(0.9)))
        data["transitions"][0]["p"] = 0.85
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'L'" in err

    def test_json_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "alphabet": oops\n}')
        assert main(["analyze", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_unifilar_machine_exits_5(self, tmp_path):
        data = {
            "alphabet": ["a"],
            "states": ["s", "t"],
            "transitions": [
                {"from": "s", "symbol": "a", "p": 0.5, "to": "s"},
                {"from": "s", "symbol": "a", "p": 0.5, "to": "t"},
                {"from": "t", "symbol": "a", "p": 1.0, "to": "s"},
            ],
        }
        path = tmp_path / "nonuni.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path)]) == 5


class TestCosts:
    def test_pc_causal_csv_row(self, pc_file, capsys):
        assert main(["costs", pc_file, "-k", "1", "--csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        header, row = out[0].split(","), out[1].split(",")
        record = dict(zip(header, row))
        assert float(record["W_diss_eq3"]) == pytest.approx(0.468995594, abs=1e-9)
        assert float(record["W_out"]) == pytest.approx(0.531004406, abs=1e-9)
        assert record["units"] == "bits"
        assert record["memory_id"] == "causal"

    def test_pc_last_two_k2(self, pc_file, last_two_kernel_file, capsys):
        code = main(
            ["costs", pc_file, "--memory", last_two_kernel_file, "-k", "2", "--csv"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        record = dict(zip(out[0].split(","), out[1].split(",")))
        assert float(record["W_diss_eq3"]) == pytest.approx(0.937991187, abs=1e-9)
        assert float(record["W_out"]) == pytest.approx(1.062008813, abs=1e-9)
        assert record["memory_id"] == "last-two"

    def test_fc_all_zero(self, fc_file, capsys):
        assert main(["costs", fc_file, "-k", "5", "--csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        record = dict(zip(out[0].split(","), out[1].split(",")))
        for col in ("W_tape", "W_diss_eq2", "W_diss_eq3", "W_diss_eq5", "W_out"):
            assert float(record[col]) == pytest.approx(0.0, abs=1e-9)

    def test_kT_units_require_temperature(self, pc_file, capsys):
        assert main(["costs", pc_file, "-k", "1", "--units", "kT"]) == 2
        assert main(
            ["costs", pc_file, "-k", "1", "--units", "kT", "--temperature", "300", "--csv"]
        ) == 0
        out = capsys.readouterr().out.strip().split("\n")[-1].split(",")
        assert out[-2] == "J"
        assert float(out[2]) == pytest.approx(0.468995594 * 2.8708e-21, rel=1e-3)

    def test_non_prescient_memory_exits_3(self, pc_file, tmp_path, capsys):
        data = {
            "kind": "machine",
            "machine": {
                "alphabet": ["L", "R"],
                "states": ["M"],
                "transitions": [
                    {"from": "M", "symbol": "L", "p": 0.5, "to": "M"},
                    {"from": "M", "symbol": "R", "p": 0.5, "to": "M"},
                ],
            },
            "causal_map": {"M": "L"},
        }
        path = tmp_path / "badmem.json"
        path.write_text(json.dumps(data))
        assert main(["costs", pc_file, "--memory", str(path), "-k", "1"]) == 3

    def test_text_report_pc_k4(self, capsys):
        assert main(["costs", str(MACHINES / "pc09.json"), "-k", "4"]) == 0
        assert capsys.readouterr().out == (
            "k = 4, memory = causal (causal minimum)\n"
            "W_tape        = 2.124017626 bits\n"
            "W_diss (eq2)  = 0.468995594 bits\n"
            "W_diss (eq3)  = 0.468995594 bits\n"
            "W_diss (eq5)  = 0.468995594 bits\n"
            "W_out         = 2.124017626 bits\n"
            "W_diss limit  = 0.468995594 bits (H(R) - E)\n"
            "net cycle cost = 0.468995594 bits\n"
        )

    def test_block_budget_exits_4(self, pc_file):
        assert main(["costs", pc_file, "-k", "30"]) == 4


class TestSweep:
    def test_csv_round_trip(self, gm_file, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", gm_file, "--k-range", "1:6", "-o", str(out_path)]) == 0
        lines = out_path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:7] == [
            "k", "W_tape", "W_diss_eq2", "W_diss_eq3", "W_diss_eq5",
            "W_out", "W_diss_limit",
        ]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 7)]
        for r in rows:
            # printed numbers round-trip at their printed precision
            for col in header[1:7]:
                value = float(r[col])
                assert f"{value:.9f}" == r[col]
            assert float(r["W_diss_eq3"]) == pytest.approx(2 / 3, abs=1e-6)
        limit_row = lines[-1].split(",")
        assert limit_row[0] == "limit"
        assert float(limit_row[6]) == pytest.approx(2 / 3, abs=1e-6)

    def test_stdout_when_no_output_file(self, pc_file, capsys):
        assert main(["sweep", pc_file, "--k-range", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3  # header, k=2, limit

    def test_bad_range_rejected(self, pc_file, capsys):
        assert main(["sweep", pc_file, "--k-range", "5:2"]) == 2


class TestSimulate:
    def test_summary_and_trace(self, pc_file, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(
            ["simulate", pc_file, "-k", "1", "-n", "5000", "--seed", "42",
             "-o", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        emp = grab(r"empirical H\(X\|R\) = ([\d.]+)", out)
        assert emp == pytest.approx(HB9, abs=0.03)
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 5001

    def test_identical_bytes_for_same_seed(self, pc_file, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            main(["simulate", pc_file, "-k", "1", "-n", "2000", "--seed", "7",
                  "-o", str(p)])
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_period_two_exact(self, tmp_path, capsys):
        path = tmp_path / "p2.json"
        save_machine_file(validate_machine(period_two()), path)
        assert main(["simulate", str(path), "-k", "1", "-n", "100", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert grab(r"empirical H\(X\|R\) = ([\d.]+)", out) == 0.0
        assert grab(r"battery balance = (-?[\d.]+)", out) == pytest.approx(0.0)


    # SHA-256 of the trace CSV (-n 1000), recorded before the sampler was
    # shared with sample_path; a changed draw order changes these bytes
    @pytest.mark.parametrize(
        "args, digest",
        [
            (["pc09.json", "-k", "1", "--seed", "0"],
             "e1199fe511aa9f7b03d0d53e49d9e9587b27e14a66771c18d59a0e6443bdda17"),
            (["pc09.json", "--memory", str(MACHINES / "kernels" / "pc_split50.json"),
              "-k", "4", "--seed", "3"],
             "2c4829dd47eaa8389257bc6aa6b8242b11188732ccea4160371da01ad95f5b44"),
            (["gm.json", "-k", "3", "--seed", "7"],
             "daae3e4ba45b50f3b3bc93f0aeb433e395e0c46fd5880f18ba0c161f7cf7fdf6"),
        ],
    )
    def test_trace_bytes_pinned(self, args, digest, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        argv = ["simulate", str(MACHINES / args[0]), *args[1:], "-n", "1000",
                "-o", str(out_path)]
        assert main(argv) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_trace_bytes_pinned_random_40x3(self, tmp_path, capsys):
        # the battery column prints n * (W_out - W_tape - W_diss) at 1e-9, so
        # on this machine a last-bit change in the W_diss entropies shows
        rng = np.random.default_rng(20151001)
        states = [f"s{i}" for i in range(40)]
        transitions = []
        for i in range(40):
            probs = rng.dirichlet(np.ones(3))
            targets = rng.integers(0, 40, size=3)
            targets[0] = (i + 1) % 40
            transitions += [
                {"from": states[i], "symbol": str(x), "p": float(probs[x]),
                 "to": states[int(targets[x])]}
                for x in range(3)
            ]
        path = tmp_path / "r40x3.json"
        path.write_text(json.dumps(
            {"alphabet": ["0", "1", "2"], "states": states, "transitions": transitions}
        ))
        out_path = tmp_path / "trace.csv"
        argv = ["simulate", str(path), "-k", "1", "-n", "2000", "--seed", "0",
                "-o", str(out_path)]
        assert main(argv) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "822bf080f2aaa77d891221554b034aa38bda8c6b7e8d8251126f79e818666149"
        )


def _machine_file(tmp_path, **changes):
    data = machine_to_dict(validate_machine(perturbed_coin(0.9)))
    data.update(changes)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    return str(path)


def _bad_p(tmp_path):
    data = machine_to_dict(validate_machine(perturbed_coin(0.9)))
    data["transitions"][0]["p"] = "x"
    return _machine_file(tmp_path, transitions=data["transitions"])


MALFORMED = {
    "alphabet-number": lambda t: ["analyze", _machine_file(t, alphabet=5)],
    "alphabet-string": lambda t: ["analyze", _machine_file(t, alphabet="LR")],
    "states-string": lambda t: ["analyze", _machine_file(t, states="LR")],
    "p-string": lambda t: ["analyze", _bad_p(t)],
    "costs-k0": lambda t: ["costs", _machine_file(t), "-k", "0"],
    "simulate-k0": lambda t: ["simulate", _machine_file(t), "-k", "0", "-n", "5"],
    "simulate-n0": lambda t: ["simulate", _machine_file(t), "-k", "1", "-n", "0"],
    "analyze-emax0": lambda t: ["analyze", _machine_file(t), "--emax", "0"],
    "analyze-sync-depth0": lambda t: ["analyze", _machine_file(t), "--sync-depth", "0"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    assert exit_code(MALFORMED[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # argparse prints its usage lines above the one error line
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1


class TestMinimize:
    def test_redundant_pc_minimizes_and_round_trips(self, tmp_path, capsys):
        src = tmp_path / "pc4.json"
        save_machine_file(validate_machine(redundant_perturbed_coin(0.9)), src)
        dst = tmp_path / "pc2.json"
        assert main(["minimize", str(src), "-o", str(dst)]) == 0
        reloaded = validate_machine(load_machine_file(dst))
        assert reloaded.n_states == 2
        assert minimize_to_causal(reloaded).machine.n_states == 2

    def test_already_minimal_is_isomorphic(self, gm_file, tmp_path):
        dst = tmp_path / "gm_min.json"
        assert main(["minimize", gm_file, "-o", str(dst)]) == 0
        original = validate_machine(load_machine_file(gm_file))
        minimized = validate_machine(load_machine_file(dst))
        assert machine_to_dict(minimized) == machine_to_dict(original)

    def test_non_unifilar_exits_5(self, tmp_path):
        data = {
            "alphabet": ["a"],
            "states": ["s", "t"],
            "transitions": [
                {"from": "s", "symbol": "a", "p": 0.5, "to": "s"},
                {"from": "s", "symbol": "a", "p": 0.5, "to": "t"},
                {"from": "t", "symbol": "a", "p": 1.0, "to": "s"},
            ],
        }
        path = tmp_path / "nonuni.json"
        path.write_text(json.dumps(data))
        assert main(["minimize", str(path), "-o", str(tmp_path / "x.json")]) == 5
