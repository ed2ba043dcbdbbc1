"""Evaluation: metrics, experiment harness, reporting, error analysis."""

from repro.eval.analysis import ErrorBreakdown, classify_errors
from repro.eval.diagnose import (
    REFERENCE_CORPORA,
    DiagnosisTask,
    as_task,
    diagnose_batch,
    diagnose_corpus,
    diagnose_one,
    mask_source_values,
    reference_diagnosis,
    run_probes,
)
from repro.eval.hallucheck import (
    AnswerCheck,
    ClaimVerdict,
    check_answer,
    decompose_answer,
    hallucination_rate,
)
from repro.eval.harness import (
    FusionRow,
    MultiRAGStageReport,
    QARow,
    StageRecall,
    build_substrate,
    measure_stage_recall,
    run_fusion_method,
    run_fusion_methods,
    run_qa_method,
    run_qa_methods,
)
from repro.eval.report import generate_report
from repro.eval.reporting import format_series, format_table
from repro.eval.stats import (
    BootstrapCI,
    PermutationResult,
    bootstrap_ci,
    paired_permutation_test,
)
from repro.metrics import (
    f1_score,
    mean,
    normalized,
    precision,
    recall,
    recall_at_k,
    std,
)

__all__ = [
    "AnswerCheck",
    "BootstrapCI",
    "PermutationResult",
    "bootstrap_ci",
    "paired_permutation_test",
    "ClaimVerdict",
    "DiagnosisTask",
    "ErrorBreakdown",
    "REFERENCE_CORPORA",
    "as_task",
    "check_answer",
    "decompose_answer",
    "diagnose_batch",
    "diagnose_corpus",
    "diagnose_one",
    "hallucination_rate",
    "mask_source_values",
    "reference_diagnosis",
    "run_probes",
    "FusionRow",
    "MultiRAGStageReport",
    "QARow",
    "StageRecall",
    "build_substrate",
    "classify_errors",
    "f1_score",
    "format_series",
    "generate_report",
    "format_table",
    "mean",
    "measure_stage_recall",
    "normalized",
    "precision",
    "recall",
    "recall_at_k",
    "run_fusion_method",
    "run_fusion_methods",
    "run_qa_method",
    "run_qa_methods",
    "std",
]
