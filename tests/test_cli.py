import hashlib
import io
import itertools
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pattherm import (
    machine_to_dict,
    minimize_to_causal,
    previous_state_kernel,
    refine_memory,
    thermo_costs,
    validate_machine,
)
from pattherm.cli import main
from pattherm.process_model import load_machine_file

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
def pc_file():
    return str(MACHINES / "pc09.json")


@pytest.fixture()
def fc_file():
    return str(MACHINES / "fc.json")


@pytest.fixture()
def gm_file():
    return str(MACHINES / "gm.json")


def pc09_dict() -> dict:
    return json.loads((MACHINES / "pc09.json").read_text())


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

    def test_non_converged_warning_is_one_line(self, capsys):
        # the even process synchronizes only asymptotically, so its
        # excess-entropy scan reaches the word budget unconverged
        assert main(["analyze", str(MACHINES / "even.json")]) == 0
        captured = capsys.readouterr()
        assert "NOT converged" in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: excess entropy not converged")
        assert ".py:" not in lines[0]

    def test_bad_row_sum_exits_2_and_names_state(self, tmp_path, capsys):
        data = pc09_dict()
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

    def test_rounding_noise_prints_no_negative_zero(self, tmp_path, capsys):
        # this i.i.d. coin's E = 2H(1) - H(2) comes out as -2.2e-16
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({
            "alphabet": ["0", "1"],
            "states": ["S"],
            "transitions": [
                {"from": "S", "symbol": "0", "p": 0.15, "to": "S"},
                {"from": "S", "symbol": "1", "p": 0.85, "to": "S"},
            ],
        }))
        assert main(["analyze", str(path)]) == 0
        assert "excess entropy E = 0.000000000 bits" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("ABC")])
    def test_near_tie_chain_exits_2_in_every_state_order(self, order, tmp_path, capsys):
        # P(0 | B) is within FUTURE_TOL of P(0 | A) and of P(0 | C), which
        # are not within it of each other: grouping by closeness would
        # give 3 causal states in some orders and 1 in others
        p0 = {"A": 0.5, "B": 0.5 + 6e-10, "C": 0.5 + 1.2e-9}
        after0 = {"A": "B", "B": "C", "C": "A"}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "alphabet": ["0", "1"],
            "states": list(order),
            "transitions": [t for s in order for t in (
                {"from": s, "symbol": "0", "p": p0[s], "to": after0[s]},
                {"from": s, "symbol": "1", "p": 1.0 - p0[s], "to": "A"},
            )],
        }))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: states ")

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

    @pytest.mark.parametrize("k", ["2", "8"])
    def test_rounding_noise_prints_no_negative_zero(self, k, capsys):
        # the even process's eq3/eq5 routes come out as -4.4e-16 or -8.9e-16
        assert main(["costs", str(MACHINES / "even.json"), "-k", k, "--csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["W_diss_eq5"] == "0.000000000"
        assert "-0.000000000" not in row

    def test_kT_units_require_temperature(self, pc_file, capsys):
        assert main(["costs", pc_file, "-k", "1", "--units", "kT"]) == 2
        assert main(
            ["costs", pc_file, "-k", "1", "--units", "kT", "--temperature", "300", "--csv"]
        ) == 0
        out = capsys.readouterr().out.strip().split("\n")[-1].split(",")
        assert out[-2] == "J"
        assert float(out[2]) == pytest.approx(0.468995594 * 2.8708e-21, rel=1e-3)

    def test_kT_route_check_runs_in_bits(self, monkeypatch, capsys):
        # two H(W) that disagree by 0.1 bit must fail the eq5 route whatever
        # units are printed; in joules the gap is ~3e-22 and slipped past
        real = thermo_costs.block_entropies

        def skewed(*args, **kwargs):
            return [e._replace(word_out=e.word_out + 0.1) for e in real(*args, **kwargs)]

        monkeypatch.setattr(thermo_costs, "block_entropies", skewed)
        argv = ["costs", str(MACHINES / "pc09.json"), "-k", "2",
                "--units", "kT", "--temperature", "300", "--csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "dissipation routes disagree" in captured.err

    def test_extractor_identity_violation_exits_1(self, monkeypatch, capsys):
        # H(R_in, W) off its prescient value by 0.1 bit breaks the extractor
        # identity, which is checked before the dissipation routes
        real = thermo_costs.block_entropies

        def skewed(*args, **kwargs):
            return [e._replace(state_word=e.state_word + 0.1) for e in real(*args, **kwargs)]

        monkeypatch.setattr(thermo_costs, "block_entropies", skewed)
        assert main(["costs", str(MACHINES / "pc09.json"), "-k", "2", "--csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "extractor bookkeeping identity violated" in captured.err

    def test_explicit_memory_uses_pattern_default(self, tmp_path, capsys):
        # the memory file's machine carries no default (so a uniform one);
        # the tape default is the pattern's all the same
        machine = _machine_file(tmp_path, default_distribution={"L": 0.9, "R": 0.1})
        memory = tmp_path / "explicit.json"
        memory.write_text(json.dumps({
            "kind": "machine",
            "machine": pc09_dict(),
            "causal_map": {"L": "L", "R": "R"},
        }))
        rows = []
        for selector in ("causal", str(memory)):
            assert main(["costs", machine, "--memory", selector, "-k", "2", "--csv"]) == 0
            rows.append(capsys.readouterr().out.splitlines()[1].split(","))
        assert rows[1][-1] == "explicit"
        assert rows[1][:-1] == rows[0][:-1]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)  # W_tape

    def test_exported_refined_memory_is_accepted(self, tmp_path, capsys):
        # a kernel memory written out as a machine carries no default of its
        # own, so it loads and prints its kernel's row
        machine = _machine_file(tmp_path, default_distribution={"L": 0.9, "R": 0.1})
        causal = minimize_to_causal(validate_machine(load_machine_file(machine)))
        kernel = previous_state_kernel(causal)
        kernel_path = tmp_path / "prev.json"
        kernel_path.write_text(json.dumps({
            "kind": "kernel",
            "sub_states": {s: list(us) for s, us in kernel.sub_states.items()},
            "rules": [
                {"target": r.target, "source_class": r.source_class, "p": r.probs}
                for r in kernel.rules
            ],
        }))
        mem = refine_memory(causal, kernel)
        memory_path = tmp_path / "exported" / "prev.json"
        memory_path.parent.mkdir()
        memory_path.write_text(json.dumps({
            "kind": "machine",
            "machine": machine_to_dict(mem.machine),
            "causal_map": mem.causal_map,
        }))
        rows = []
        for selector in (kernel_path, memory_path):
            assert main(["costs", machine, "--memory", str(selector), "-k", "2", "--csv"]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[1] == rows[0]

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

    def test_huge_k_exits_4_with_one_line(self, pc_file, capsys):
        # 2^100000 has more digits than Python will format
        assert main(["costs", pc_file, "-k", "100000", "--csv"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2^100000 words exceeds budget 65536\n"


@pytest.mark.parametrize("argv", [
    ["analyze", str(MACHINES / "pc09.json"), "--sync-depth", "{}"],
    ["costs", str(MACHINES / "pc09.json"), "-k", "{}", "--csv"],
    ["sweep", str(MACHINES / "pc09.json"), "--k-range", "1:{}"],
    ["simulate", str(MACHINES / "pc09.json"), "-k", "{}", "-n", "10"],
])
def test_first_length_over_budget_exits_4(argv, word_budget, capsys):
    word_budget(2**5)
    assert main([a.format(5) for a in argv]) == 0
    capsys.readouterr()
    assert main([a.format(6) for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2^6 = 64 words exceeds budget 32\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "{machine}", "--sync-depth", "{k}"],
    ["costs", "{machine}", "-k", "{k}", "--csv"],
    ["sweep", "{machine}", "--k-range", "1:{k}"],
])
def test_one_symbol_length_over_budget_exits_4(argv, tmp_path, word_budget, capsys):
    # a one-symbol table never passes the word count, so the length is bounded
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "alphabet": ["0"], "states": ["A"],
        "transitions": [{"from": "A", "symbol": "0", "p": 1.0, "to": "A"}],
    }))
    word_budget(32)
    assert main([a.format(machine=path, k=32) for a in argv]) == 0
    capsys.readouterr()
    assert main([a.format(machine=path, k=10**12) for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: length \d+ exceeds budget 32\n", captured.err)


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

    def test_kT_limit_row_in_joules(self, pc_file, capsys):
        argv = ["sweep", pc_file, "--k-range", "2", "--units", "kT", "--temperature", "300"]
        assert main(argv) == 0
        row, limit_row = (line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
        assert limit_row[:6] == ["limit", "", "", "", "", ""]
        assert limit_row[6:] == row[6:]  # W_diss_limit, units, memory_id
        assert float(limit_row[6]) == pytest.approx(HB9 * 2.8708e-21, rel=1e-3)

    def test_bad_range_rejected(self, pc_file, capsys):
        assert main(["sweep", pc_file, "--k-range", "5:2"]) == 2

    def test_huge_range_exits_4(self, pc_file, capsys):
        # the strides are never listed; the first one over budget refuses
        assert main(["sweep", pc_file, "--k-range", "1:1000000000000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("memory", [[], ["--memory", str(MACHINES / "kernels" / "pc_split50.json")]])
    def test_rows_match_costs_byte_for_byte(self, memory, capsys):
        # sweep extends one stride's tables to the next; costs builds each from scratch
        machine = str(MACHINES / "pc09.json")
        assert main(["sweep", machine, *memory, "--k-range", "1:16"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert len(rows) == 16
        for k, row in enumerate(rows, start=1):
            assert main(["costs", machine, *memory, "-k", str(k), "--csv"]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row


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

    def test_unallocatable_run_exits_4(self, pc_file, capsys):
        # 10^17 blocks need 800 PB of uniforms, beyond any 64-bit address space
        assert main(["simulate", pc_file, "-k", "1", "-n", "100000000000000000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_identical_bytes_for_same_seed(self, pc_file, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            main(["simulate", pc_file, "-k", "1", "-n", "2000", "--seed", "7",
                  "-o", str(p)])
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_period_two_exact(self, capsys):
        assert main(["simulate", str(MACHINES / "p2.json"), "-k", "1", "-n", "100",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert grab(r"empirical H\(X\|R\) = ([\d.]+)", out) == 0.0
        assert grab(r"battery balance = (-?[\d.]+)", out) == pytest.approx(0.0)


    # SHA-256 of the trace CSV (-n 1000); a changed draw order changes
    # these bytes
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


    def test_trace_bytes_pinned_dense_ledger(self, tmp_path, capsys):
        # simulate books W_diss from block_work's dense-table marginals. On
        # this machine the streamed tables of cycle_report give a W_diss one
        # ulp away, which changes the battery column of this trace; the
        # digest is the one the benchmark's monte-carlo golden holds
        path = MACHINES.parent / "perfbench" / "inputs" / "exact" / "r40x3_1.json"
        out_path = tmp_path / "trace.csv"
        argv = ["simulate", str(path), "-k", "1", "-n", "2000", "--seed", "0",
                "-o", str(out_path)]
        assert main(argv) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "1b4396f36e5968816b393017b383805e776ef377ba2fb87c33d54f019193aa72"
        )


def _machine_file(tmp_path, **changes):
    data = pc09_dict()
    data.update(changes)
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    return str(path)


def _bad_p(tmp_path):
    data = pc09_dict()
    data["transitions"][0]["p"] = "x"
    return _machine_file(tmp_path, transitions=data["transitions"])


def _raw_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return str(path)


# json.load raises RecursionError on this, and UnicodeDecodeError on a
# UTF-16 byte-order mark
TOO_DEEP = b"[" * 200_000 + b"]" * 200_000
NOT_UTF8 = b"\xff\xfe{"


def _memory_file(tmp_path, data, stem="memory"):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(data))
    return ["costs", _machine_file(tmp_path), "--memory", str(path), "-k", "1"]


L_RULE = {"target": "L", "p": {"L": 1.0}}
R_RULE = {"target": "R", "p": {"R": 1.0}}


def _kernel(tmp_path, **changes):
    data = {
        "kind": "kernel",
        "sub_states": {"L": ["L"], "R": ["R"]},
        "rules": [L_RULE, R_RULE],
    }
    return _memory_file(tmp_path, {**data, **changes})


def _explicit_memory(tmp_path, causal_map, machine_changes=(), **changes):
    machine = pc09_dict()
    machine.update(machine_changes)
    data = {"kind": "machine", "machine": machine, "causal_map": causal_map}
    return _memory_file(tmp_path, {**data, **changes})


PC_MAP = {"L": "L", "R": "R"}


def _gm_relabelled(tmp_path, old, new):
    """A simulate run of the golden mean with one state or symbol renamed."""
    text = (MACHINES / "gm.json").read_text()
    path = tmp_path / "machine.json"
    path.write_text(text.replace(json.dumps(old), json.dumps(new)))
    return ["simulate", str(path), "-k", "1", "-n", "5"]


MALFORMED = {
    "kernel-sub-states-string": lambda t: _kernel(t, sub_states="AB"),
    "kernel-sub-states-of-string": lambda t: _kernel(t, sub_states={"L": "L", "R": "R"}),
    "kernel-rules-object": lambda t: _kernel(t, rules={"target": "L"}),
    "kernel-p-string": lambda t: _kernel(t, rules=[{"target": "L", "p": {"L": "x"}}, R_RULE]),
    "kernel-p-bool": lambda t: _kernel(t, rules=[{"target": "L", "p": {"L": True}}, R_RULE]),
    "kernel-p-list": lambda t: _kernel(t, rules=[{"target": "L", "p": [1.0]}, R_RULE]),
    "kernel-p-nan": lambda t: _kernel(t, sub_states={"L": ["L0", "L1"], "R": ["R"]}, rules=[
        {"target": "L", "p": {"L0": float("nan"), "L1": 1.0}}, R_RULE]),
    # a condition naming no causal state, sub-state or symbol never matches,
    # so the catch-all rule after it would be used in silence
    "kernel-source-class-unknown": lambda t: _kernel(t, rules=[
        {"target": "L", "source_class": "Q", "p": {"L": 1.0}}, L_RULE, R_RULE]),
    "kernel-source-class-number": lambda t: _kernel(t, rules=[
        {"target": "L", "source_class": 1, "p": {"L": 1.0}}, L_RULE, R_RULE]),
    "kernel-source-sub-unknown": lambda t: _kernel(t, rules=[
        {"target": "L", "source_sub": "Q", "p": {"L": 1.0}}, L_RULE, R_RULE]),
    "kernel-symbol-unknown": lambda t: _kernel(t, rules=[
        {"target": "L", "symbol": "Q", "p": {"L": 1.0}}, L_RULE, R_RULE]),
    "memory-causal-map-list": lambda t: _explicit_memory(t, ["L", "R"]),
    "memory-default-distribution": lambda t: _explicit_memory(
        t, PC_MAP, {"default_distribution": {"L": 0.2, "R": 0.8}}),
    "memory-name-nan": lambda t: _explicit_memory(t, PC_MAP, name=float("nan")),
    "kernel-name-null": lambda t: _kernel(t, name=None),
    # labels printed in a CSV field may not hold a delimiter, quote or newline
    "kernel-name-comma": lambda t: _kernel(t, name="last,two"),
    "memory-name-quote": lambda t: _explicit_memory(t, PC_MAP, name='pc"09'),
    "memory-stem-comma": lambda t: _memory_file(t, {"sub_states": {"L": ["L"], "R": ["R"]},
                                                    "rules": [L_RULE, R_RULE]}, stem="last,two"),
    "kernel-sub-state-comma": lambda t: _kernel(t, sub_states={"L": ["L,0"], "R": ["R"]},
                                                rules=[{"target": "L", "p": {"L,0": 1.0}}, R_RULE]),
    "state-comma": lambda t: _gm_relabelled(t, "A", "A,B"),
    "state-carriage-return": lambda t: _gm_relabelled(t, "B", "B\r"),
    "symbol-newline": lambda t: _gm_relabelled(t, "0", "0\n"),
    "default-distribution-nan": lambda t: [
        "costs", _machine_file(t, default_distribution={"L": float("nan"), "R": 1.0}),
        "-k", "2", "--csv"],
    "simulate-seed-negative": lambda t: ["simulate", _machine_file(t), "-k", "1", "-n", "5",
                                         "--seed", "-1"],
    "machine-nested-too-deep": lambda t: ["analyze", _raw_file(t, TOO_DEEP)],
    "machine-not-utf8": lambda t: ["analyze", _raw_file(t, NOT_UTF8)],
    "memory-nested-too-deep": lambda t: ["costs", _machine_file(t), "--memory",
                                         _raw_file(t, TOO_DEEP), "-k", "1"],
    "memory-not-utf8": lambda t: ["costs", _machine_file(t), "--memory",
                                  _raw_file(t, NOT_UTF8), "-k", "1"],
    "alphabet-number": lambda t: ["analyze", _machine_file(t, alphabet=5)],
    "alphabet-string": lambda t: ["analyze", _machine_file(t, alphabet="LR")],
    "states-string": lambda t: ["analyze", _machine_file(t, states="LR")],
    "p-string": lambda t: ["analyze", _bad_p(t)],
    "costs-k0": lambda t: ["costs", _machine_file(t), "-k", "0"],
    "simulate-k0": lambda t: ["simulate", _machine_file(t), "-k", "0", "-n", "5"],
    "simulate-n0": lambda t: ["simulate", _machine_file(t), "-k", "1", "-n", "0"],
    "analyze-emax0": lambda t: ["analyze", _machine_file(t), "--emax", "0"],
    "analyze-sync-depth0": lambda t: ["analyze", _machine_file(t), "--sync-depth", "0"],
    "costs-temperature-negative": lambda t: ["costs", _machine_file(t), "-k", "1", "--units", "kT",
                                             "--temperature", "-1"],
    "costs-temperature-zero": lambda t: ["costs", _machine_file(t), "-k", "1", "--units", "kT",
                                         "--temperature", "0"],
    "costs-temperature-nan": lambda t: ["costs", _machine_file(t), "-k", "1", "--units", "kT",
                                        "--temperature", "nan"],
    "analyze-etol-negative": lambda t: ["analyze", _machine_file(t), "--etol", "-1"],
    "analyze-etol-nan": lambda t: ["analyze", _machine_file(t), "--etol", "nan"],
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


FUZZ_VALUES = (None, True, False, float("nan"), float("inf"), float("-inf"),
               0, -1, 1e308, "", [], {})
DELETE = object()


def _fuzz_documents() -> dict:
    pc09 = json.loads((MACHINES / "pc09.json").read_text())
    return {
        "machine": pc09,
        "kernel": json.loads((MACHINES / "kernels" / "pc_split50.json").read_text()),
        "memory": {"kind": "machine", "name": "pc09-causal", "machine": pc09,
                   "causal_map": dict(PC_MAP)},
    }


def _fields(node, path=()):
    """The path of every value below `node`: dict entries and list items."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


@st.composite
def mutated_input(draw):
    """One of the three input documents with one to three fields replaced
    by an edge value or deleted."""
    kind = draw(st.sampled_from(("machine", "kernel", "memory")))
    return kind, _replace_fields(draw, _fuzz_documents()[kind])


def _replace_fields(draw, doc):
    """`doc` with one to three fields replaced by an edge value or deleted."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_fields(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = draw(st.sampled_from((DELETE,) + FUZZ_VALUES))
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@given(mutated_input())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_inputs_exit_cleanly(tmp_path, case):
    kind, doc = case
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    if kind == "machine":
        argv = ["costs", str(path), "-k", "2", "--csv"]
    else:
        argv = ["costs", str(MACHINES / "pc09.json"), "--memory", str(path),
                "-k", "2", "--csv"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = exit_code(argv)
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue().lower()
        assert "inf" not in out.getvalue().lower()
    else:
        assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1


def _seed_files() -> tuple[bytes, ...]:
    """The shipped pattern file, with and without a default distribution,
    the shipped kernel files and an explicit memory file, as bytes."""
    docs = _fuzz_documents()
    biased = dict(docs["machine"], default_distribution={"L": 0.9, "R": 0.1})
    return (
        (MACHINES / "pc09.json").read_bytes(),
        json.dumps(biased, indent=2).encode(),
        (MACHINES / "kernels" / "pc_split50.json").read_bytes(),
        (MACHINES / "kernels" / "pc_last_two.json").read_bytes(),
        json.dumps(docs["memory"], indent=2).encode(),
    )


SEED_FILES = _seed_files()
JSON_BYTES = b'0123456789.-+eE"[]{},: '


@st.composite
def fuzzed_bytes(draw) -> bytes:
    """Arbitrary bytes, or a seed file with one to four bytes replaced,
    inserted or deleted, or with some of its JSON values replaced."""
    how = draw(st.sampled_from(("arbitrary", "bytes", "values")))
    if how == "arbitrary":
        return draw(st.binary(max_size=64))
    seed = draw(st.sampled_from(SEED_FILES))
    if how == "values":
        return json.dumps(_replace_fields(draw, json.loads(seed))).encode()
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if edit == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


# (subcommand, whether the fuzzed file is its --memory file, not its machine file)
FUZZ_TARGETS = [(c, False) for c in ("analyze", "costs", "sweep", "simulate", "minimize")]
FUZZ_TARGETS += [(c, True) for c in ("costs", "sweep", "simulate")]


def _fuzz_argv(command: str, as_memory: bool, path: str, out: str) -> list[str]:
    """A small run of `command` that reads the file at `path`."""
    flags = {
        "analyze": [],
        "costs": ["-k", "2", "--csv"],
        "sweep": ["--k-range", "1:2"],
        "simulate": ["-k", "1", "-n", "20"],
        "minimize": ["-o", out],
    }[command]
    if as_memory:
        return [command, str(MACHINES / "pc09.json"), "--memory", path, *flags]
    return [command, path, *flags]


@given(st.sampled_from(FUZZ_TARGETS), fuzzed_bytes())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_bytes_exit_cleanly(tmp_path, target, data):
    """Whatever bytes a machine or memory file holds, every subcommand
    exits 0, 2, 3, 4 or 5, with one `error:` line when it fails."""
    path = tmp_path / "fuzzed.json"
    path.write_bytes(data)
    argv = _fuzz_argv(*target, str(path), str(tmp_path / "out.json"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = exit_code(argv)
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (code != 0)


class TestMinimize:
    def test_redundant_pc_minimizes_and_round_trips(self, tmp_path, capsys):
        dst = tmp_path / "pc2.json"
        assert main(["minimize", str(MACHINES / "pc09_redundant.json"), "-o", str(dst)]) == 0
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

    def test_default_distribution_survives_minimize(self, tmp_path, capsys):
        default = {"L": 0.9, "R": 0.1}
        machine = _machine_file(tmp_path, default_distribution=default)
        minimized = tmp_path / "minimized.json"
        assert main(["minimize", machine, "-o", str(minimized)]) == 0
        assert json.loads(minimized.read_text())["default_distribution"] == default
        rows = []
        for path in (machine, str(minimized)):
            capsys.readouterr()
            assert main(["costs", path, "-k", "2", "--csv"]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[1] == rows[0]
