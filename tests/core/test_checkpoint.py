"""Checkpoint/resume: bit-exact restoration of interrupted campaigns."""

import json
import os

import pytest

from repro.baselines.mibench import build_crc32
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    LoopCheckpoint,
    checkpoint_iteration,
    compact_checkpoints,
    decode_evaluated,
    decode_member,
    encode_evaluated,
    encode_member,
    latest_checkpoint,
)
from repro.core.errors import CheckpointError
from repro.core.evaluator import EvaluatedProgram, Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig
from repro.coverage.metrics import IbrCoverage
from repro.isa import Program, imm, make, mem, reg, x64
from repro.isa.instructions import FUClass
from repro.microprobe.policies import GenerationConfig

GEN_CONFIG = GenerationConfig(num_instructions=40, data_size=2048)
METRIC = IbrCoverage(FUClass.INT_ADDER)
CONFIG = LoopConfig(
    population=6, keep=2, offspring_per_parent=2, iterations=5, seed=4
)


def make_loop(config=CONFIG):
    return HarpocratesLoop(
        Generator(GEN_CONFIG), Evaluator(METRIC), config=config
    )


def _witness_program():
    """A hand-built minimised witness: no generator produces it."""
    isa = x64()
    return Program(
        instructions=(
            make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(5, 64)),
            make(isa.by_name("add_r64_m64"), reg("rbx"), mem("rbp", 16)),
        ),
        name="witness", init_seed=3, data_size=2048, source="witness",
    )


class TestProgramRecords:
    def test_random_program_roundtrips_bit_exactly(self):
        generator = Generator(GEN_CONFIG)
        program = generator.initial_population(1, base_seed=11)[0]
        restored = decode_member(encode_member(program))
        assert restored.instructions == program.instructions
        assert restored.name == program.name
        assert restored.init_seed == program.init_seed
        # The genome the mutator rewrites on resume comes back too.
        assert Generator.genome_of(restored) == \
            Generator.genome_of(program)

    def test_mutated_program_roundtrips_bit_exactly(self):
        generator = Generator(GEN_CONFIG)
        base = generator.initial_population(1, base_seed=11)[0]
        realized = generator.realize(
            generator.genome_of(base), 12345, name="mutant"
        )
        restored = decode_member(encode_member(realized))
        assert restored.instructions == realized.instructions
        assert restored.metadata["genome"] == realized.metadata["genome"]

    def test_non_generator_programs_survive_a_checkpoint(self, tmp_path):
        """Baseline kernels and minimised witnesses are not genome-
        shaped; a checkpoint still restores their exact instructions."""
        kernel = build_crc32(scale=2)
        witness = _witness_program()
        LoopCheckpoint(
            iteration=1,
            population=[encode_member(kernel), encode_member(witness)],
            rng_state=[3, [0], None],
            best=[encode_evaluated(EvaluatedProgram(
                program=witness, fitness=0.5, total_cycles=9,
                crashed=False,
            ))],
        ).save(str(tmp_path))
        loaded = LoopCheckpoint.load(str(tmp_path))
        restored = [decode_member(record) for record in loaded.population]
        for original, copy in zip((kernel, witness), restored):
            assert copy.instructions == original.instructions
            assert (copy.name, copy.init_seed, copy.data_size,
                    copy.source) == (original.name, original.init_seed,
                                     original.data_size, original.source)
        best = decode_evaluated(loaded.best[0])
        assert best.program.instructions == witness.instructions
        assert (best.fitness, best.total_cycles) == (0.5, 9)

    def test_undecodable_record_is_a_checkpoint_error(self):
        record = dict(encode_member(_witness_program()), code="00")
        with pytest.raises(CheckpointError, match="undecodable"):
            decode_member(record)

    def test_oversized_data_region_is_a_checkpoint_error(self):
        record = dict(encode_member(_witness_program()), data_size=2 ** 36)
        with pytest.raises(CheckpointError, match="data_size"):
            decode_member(record)


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.resumed_from == 3
        assert resumed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in resumed.best] == \
            [e.name for e in reference.best]
        assert [e.fitness for e in resumed.best] == \
            [e.fitness for e in reference.best]
        assert [e.program.to_asm() for e in resumed.best] == \
            [e.program.to_asm() for e in reference.best]

    def test_resume_from_explicit_file(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(iterations=2, checkpoint_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), "checkpoint_000002.json")
        resumed = make_loop().run(resume_from=path)
        assert resumed.fitness_curve() == reference.fitness_curve()

    def test_checkpointing_does_not_perturb_results(self, tmp_path):
        reference = make_loop().run()
        checkpointed = make_loop().run(checkpoint_dir=str(tmp_path))
        assert checkpointed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in checkpointed.best] == \
            [e.name for e in reference.best]

    def test_checkpoint_every_throttles_writes(self, tmp_path):
        make_loop().run(
            iterations=4, checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path))
            if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000002.json", "checkpoint_000004.json",
        ]

    def test_history_restored_across_resume(self, tmp_path):
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert [s.iteration for s in resumed.history] == list(range(5))


class TestInterrupt:
    def test_keyboard_interrupt_returns_partial_result(self, tmp_path):
        loop = make_loop()

        def bail(stats, survivors):
            if stats.iteration == 1:
                raise KeyboardInterrupt

        result = loop.run(
            on_iteration=bail, checkpoint_dir=str(tmp_path)
        )
        assert result.interrupted
        assert result.iterations_run == 2
        assert len(result.history) == 2
        assert result.best  # the completed prefix's elite survives

    def test_interrupted_run_resumes_to_reference(self, tmp_path):
        reference = make_loop().run()

        def bail(stats, survivors):
            if stats.iteration == 2:
                raise KeyboardInterrupt

        interrupted = make_loop().run(
            on_iteration=bail, checkpoint_dir=str(tmp_path)
        )
        assert interrupted.interrupted
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in resumed.best] == \
            [e.name for e in reference.best]


class TestCheckpointFiles:
    def test_latest_checkpoint_picks_highest_iteration(self, tmp_path):
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        latest = latest_checkpoint(str(tmp_path))
        assert latest is not None
        assert latest.endswith("checkpoint_000003.json")

    def test_latest_checkpoint_empty_dir(self, tmp_path):
        assert latest_checkpoint(str(tmp_path)) is None
        assert latest_checkpoint(str(tmp_path / "missing")) is None

    def test_checkpoint_is_valid_json_with_schema(self, tmp_path):
        make_loop().run(iterations=1, checkpoint_dir=str(tmp_path))
        path = latest_checkpoint(str(tmp_path))
        with open(path) as stream:
            payload = json.load(stream)
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["iteration"] == 1
        assert len(payload["population"]) == CONFIG.population
        assert set(payload["population"][0]) == {
            "name", "init_seed", "data_size", "source", "code", "genome",
        }
        assert payload["rng_state"][0] == 3  # Mersenne Twister version

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "checkpoint_000001.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            LoopCheckpoint.load(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint_000001.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION + 1,
            "iteration": 1, "population": [], "rng_state": [],
        }))
        with pytest.raises(CheckpointError, match="version"):
            LoopCheckpoint.load(str(path))

    def test_version_1_checkpoint_refused(self, tmp_path):
        """Version 1 stored genome records re-realised through the
        generator; it is refused by name, not misread."""
        path = tmp_path / "checkpoint_000001.json"
        path.write_text(json.dumps({
            "version": 1, "iteration": 1, "rng_state": [],
            "population": [{"name": "p", "seed": 0,
                            "policy": "constrained_random",
                            "genome": []}],
        }))
        with pytest.raises(CheckpointError, match="version 1"):
            LoopCheckpoint.load(str(path))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            LoopCheckpoint.load(str(tmp_path / "nope"))

    def test_no_temp_files_left_behind(self, tmp_path):
        make_loop().run(iterations=2, checkpoint_dir=str(tmp_path))
        leftovers = [
            n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")
        ]
        assert leftovers == []


def _touch_checkpoints(directory, iterations):
    for iteration in iterations:
        path = directory / f"checkpoint_{iteration:06d}.json"
        path.write_text("{}")


class TestCompaction:
    def test_iteration_parsing(self):
        assert checkpoint_iteration("checkpoint_000042.json") == 42
        assert checkpoint_iteration("checkpoint_0.json") == 0
        assert checkpoint_iteration("notes.txt") is None
        assert checkpoint_iteration("checkpoint_best.json") is None
        assert checkpoint_iteration("checkpoint_000001.json.tmp") is None

    def test_keeps_latest_n(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 11))
        removed = compact_checkpoints(str(tmp_path), keep=3)
        survivors = sorted(os.listdir(str(tmp_path)))
        assert survivors == [
            "checkpoint_000008.json",
            "checkpoint_000009.json",
            "checkpoint_000010.json",
        ]
        assert len(removed) == 7

    def test_milestones_survive(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 13))
        compact_checkpoints(str(tmp_path), keep=2, milestone_every=5)
        survivors = sorted(os.listdir(str(tmp_path)))
        assert survivors == [
            "checkpoint_000005.json",   # milestone
            "checkpoint_000010.json",   # milestone
            "checkpoint_000011.json",   # latest 2
            "checkpoint_000012.json",
        ]

    def test_keep_zero_disables_rotation(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 6))
        assert compact_checkpoints(str(tmp_path), keep=0) == []
        assert len(os.listdir(str(tmp_path))) == 5

    def test_foreign_files_untouched(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 8))
        (tmp_path / "notes.txt").write_text("keep me")
        (tmp_path / "checkpoint_best.json").write_text("{}")
        compact_checkpoints(str(tmp_path), keep=1)
        survivors = set(os.listdir(str(tmp_path)))
        assert {"notes.txt", "checkpoint_best.json",
                "checkpoint_000007.json"} == survivors

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert compact_checkpoints(str(tmp_path / "nope"), keep=3) == []

    def test_loop_rotates_as_it_checkpoints(self, tmp_path):
        make_loop().run(
            iterations=5, checkpoint_dir=str(tmp_path),
            checkpoint_keep=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000004.json", "checkpoint_000005.json",
        ]

    def test_rotation_preserves_resume(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(
            iterations=3, checkpoint_dir=str(tmp_path),
            checkpoint_keep=1,
        )
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.fitness_curve() == reference.fitness_curve()

    def test_milestones_kept_by_loop(self, tmp_path):
        make_loop().run(
            iterations=5, checkpoint_dir=str(tmp_path),
            checkpoint_keep=1, checkpoint_milestone_every=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000002.json", "checkpoint_000004.json",
            "checkpoint_000005.json",
        ]
