"""CLI entry point, the critical-path analyzer, and the emulator."""

import pytest

from repro.__main__ import build_parser, main
from repro.emu.emulator import ArchEmulator
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.trace import Trace
from repro.sim import cache as cache_mod
from repro.sim.critical_path import analyze_critical_path


class TestCLI:
    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "spec06_mcf" in out and "ISPEC06" in out

    def test_storage_command(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "Prefetch Table" in out and "KB" in out

    def test_params_command(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "L1D" in out
        assert main(["params", "--core-2x"]) == 0
        assert "baseline-2x" in capsys.readouterr().out

    def test_run_command(self, capsys):
        assert main(["run", "spec06_bzip2", "--length", "1500",
                     "--warmup", "200", "--rfp"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "RFP useful" in out

    def test_run_with_profile(self, capsys, tmp_path):
        out_file = tmp_path / "run.pstats"
        assert main(["run", "spec06_bzip2", "--length", "1200",
                     "--warmup", "100", "--profile", "--profile-limit", "5",
                     "--profile-out", str(out_file)]) == 0
        captured = capsys.readouterr()
        assert "IPC" in captured.out
        # The cProfile report goes to stderr, the raw dump to the file.
        assert "cumulative" in captured.err
        assert "simulate" in captured.err
        assert out_file.exists() and out_file.stat().st_size > 0

    def test_sampled_suite_labels_the_feature_config(self, capsys,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        assert main(["suite", "-n", "1", "--rfp", "--sample", "2",
                     "--length", "4000", "--warmup", "2000",
                     "--jobs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Running 1 workloads under baseline +RFP..."
        header = lines[lines.index("sampled IPC (mean ± CI)") + 1]
        assert [cell.strip() for cell in header.split("|")] == [
            "workload", "baseline IPC", "baseline +RFP IPC"]

    def test_run_with_vp(self, capsys):
        assert main(["run", "spec06_bzip2", "--length", "1200",
                     "--warmup", "100", "--vp", "eves"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_parser_rejects_unknown_vp(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "w", "--vp", "bogus"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


LATENCY = {"L1": 5, "L2": 14, "LLC": 40, "DRAM": 200}


class TestCriticalPath:
    def test_empty_trace(self):
        report = analyze_critical_path(Trace([]), LATENCY)
        assert report["length"] == 0 and report["path"] == []

    def test_serial_chain_sums_costs(self):
        instrs = [Instruction(0x10, Op.MOV, dst=1, imm=1)]
        instrs += [Instruction(0x14, Op.ADD, dst=1, srcs=(1,), imm=1)
                   for _ in range(9)]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 10
        assert len(report["path"]) == 10

    def test_parallel_chains_pick_longest(self):
        instrs = []
        for _ in range(3):
            instrs.append(Instruction(0x10, Op.ADD, dst=1, srcs=(1,)))
        for _ in range(7):
            instrs.append(Instruction(0x20, Op.ADD, dst=2, srcs=(2,)))
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 7

    def test_load_costs_by_level(self):
        instrs = [
            Instruction(0x10, Op.LOAD, dst=1, addr=0x100),
            Instruction(0x14, Op.LOAD, dst=1, srcs=(1,), addr=0x200),
        ]
        report = analyze_critical_path(
            Trace(instrs), LATENCY, load_levels={0: "L1", 1: "DRAM"})
        assert report["length"] == 5 + 200
        assert report["by_level"] == {"L1": 5, "DRAM": 200}

    def test_loads_default_to_l1(self):
        instrs = [Instruction(0x10, Op.LOAD, dst=1, addr=0x100)]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 5

    def test_path_indices_are_dataflow_ordered(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=1),
            Instruction(0x14, Op.ADD, dst=2, srcs=(1,)),
            Instruction(0x18, Op.ADD, dst=3, srcs=(2,)),
        ]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["path"] == [0, 1, 2]


class TestEmulator:
    def test_load_store_roundtrip(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=55),
            Instruction(0x14, Op.STORE, srcs=(1,), addr=0x100),
            Instruction(0x18, Op.LOAD, dst=2, addr=0x100),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 55
        assert emu.memory[0x100] == 55
        assert emu.load_values == [55]

    def test_initial_image_respected(self):
        instrs = [Instruction(0x10, Op.LOAD, dst=1, addr=0x200)]
        emu = ArchEmulator(Trace(instrs, memory_image={0x200: 9})).run()
        assert emu.registers.read(1) == 9

    def test_limit(self):
        instrs = [Instruction(0x10, Op.ADD, dst=1, srcs=(1,), imm=1)
                  for _ in range(5)]
        emu = ArchEmulator(Trace(instrs)).run(limit=3)
        assert emu.registers.read(1) == 3

    def test_branch_writes_condition(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=3),
            Instruction(0x14, Op.BRANCH, dst=2, srcs=(1,)),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 1

    def test_misaligned_addresses_share_words(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=7),
            Instruction(0x14, Op.STORE, srcs=(1,), addr=0x104),
            Instruction(0x18, Op.LOAD, dst=2, addr=0x100),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 7  # same 8-byte word
