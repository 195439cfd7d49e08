"""Ontology-aware clinical data pipeline building blocks.

Composable stages for coded clinical data: fidelity annotation at
ingestion, terminology version gating with quarantine, dual administrative/
clinical code layers, dormant-feature preservation, semantic drift
monitoring with cause classification, an AI-influence circuit breaker for
retraining, and pluggable compliance adapters - plus a synthetic encounter
generator with labeled distortions and a scenario harness that wires the
stages together.
"""

from .model import (
    AGE_BANDS,
    SEXES,
    CodeSystem,
    Layer,
    OntoguardError,
    PipelineConfig,
    RecordBatch,
    StageError,
    TimeWindow,
    ValidationError,
    load_code_system,
    load_config,
)

__all__ = [
    "AGE_BANDS",
    "SEXES",
    "CodeSystem",
    "Layer",
    "OntoguardError",
    "PipelineConfig",
    "RecordBatch",
    "StageError",
    "TimeWindow",
    "ValidationError",
    "load_code_system",
    "load_config",
]

__version__ = "0.1.0"
