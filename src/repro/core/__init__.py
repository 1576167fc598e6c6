"""The Harpocrates core: Generator, Mutator, Evaluator, and the loop."""

from repro.core.checkpoint import LoopCheckpoint, latest_checkpoint
from repro.core.errors import (
    CandidateEvaluationError,
    CheckpointCorruptError,
    CheckpointError,
    EvaluationError,
    EvaluationTimeout,
    LoopConfigError,
    WorkerCrashError,
)
from repro.core.evaluator import (
    QUARANTINE_FITNESS,
    EvaluatedProgram,
    EvalHealth,
    Evaluator,
)
from repro.core.generator import Generator
from repro.core.loop import (
    HarpocratesLoop,
    IterationStats,
    LoopConfig,
    LoopResult,
)
from repro.core.manager import Manager
from repro.core.mutator import (
    Genome,
    InstructionReplacementMutator,
    KPointCrossover,
    Mutator,
    SingleSiteReplacementMutator,
)
from repro.core.targets import (
    SCALED_L1D_MACHINE,
    TargetSpec,
    paper_targets,
    scaled_targets,
)

__all__ = [
    "CandidateEvaluationError",
    "CheckpointCorruptError",
    "CheckpointError",
    "EvalHealth",
    "EvaluatedProgram",
    "EvaluationError",
    "EvaluationTimeout",
    "Evaluator",
    "LoopCheckpoint",
    "LoopConfigError",
    "QUARANTINE_FITNESS",
    "WorkerCrashError",
    "latest_checkpoint",
    "Generator",
    "HarpocratesLoop",
    "IterationStats",
    "LoopConfig",
    "LoopResult",
    "Manager",
    "Genome",
    "InstructionReplacementMutator",
    "KPointCrossover",
    "Mutator",
    "SingleSiteReplacementMutator",
    "SCALED_L1D_MACHINE",
    "TargetSpec",
    "paper_targets",
    "scaled_targets",
]
