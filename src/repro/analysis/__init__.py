"""Program characterization utilities: dynamic profiles and the
simulation-free static dataflow analyzer."""

from repro.analysis.profile import (
    ProgramProfile,
    characterize,
    compare_profiles,
)
from repro.analysis.screen import should_skip, static_bound
from repro.analysis.static import (
    InstrFacts,
    StaticReport,
    StructuralReport,
    analyze_program,
    instruction_facts,
    structural_pass,
)

__all__ = [
    "InstrFacts",
    "ProgramProfile",
    "StaticReport",
    "StructuralReport",
    "analyze_program",
    "characterize",
    "compare_profiles",
    "instruction_facts",
    "should_skip",
    "static_bound",
    "structural_pass",
]
