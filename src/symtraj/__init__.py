"""Symbolic reasoning trajectory toolkit.

Generate first-order entailment problems, sample Thought/Action/Observation
reasoning traces, verify each step with inference rules and bounded model
search, label steps by Monte Carlo completion, and build PRM/SFT/DPO
training files from the survivors.
"""

from .fol import (
    And,
    ArityConflict,
    CaptureError,
    Constant,
    Exists,
    ForAll,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    Signature,
    Term,
    Variable,
    Xor,
    collect_signature,
    constants,
    free_vars,
    is_closed,
    parse_formula,
    parse_prefix,
    print_formula,
    substitute,
    subformulas,
)
from .jsonl import FormatError, read_jsonl, write_jsonl
from .llm import (
    BackendUnavailable,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MalformedResponse,
    PromptTooLong,
    ScriptedMockBackend,
    Usage,
    generate_batch,
    prompt_key,
)
from .mock import OracleMockBackend
from .problems import (
    GenerationBudgetExceeded,
    InvariantViolation,
    Problem,
    Statement,
    generate_logicasker,
    load_problems,
    problem_from_dict,
    problem_to_dict,
    save_problems,
    split_even,
    validate_problem,
)
from .rules import (
    Rule,
    RuleApplication,
    StepVerdict,
    VerdictStatus,
    hint_from_text,
    verify_step,
    verify_trajectory,
)
from .semantics import (
    BudgetExceeded,
    EntailmentVerdict,
    Interpretation,
    Label,
    MissingSymbol,
    entails,
    evaluate,
)
from .supervision import (
    LengthMismatch,
    PreferencePair,
    PrmScore,
    RemoteScorer,
    ScorerUnavailable,
    StepLabel,
    SymbolicScorer,
    build_dpo_pairs,
    export_dpo_dataset,
    export_prm_dataset,
    export_sft_dataset,
    make_trajectory_id,
    mc_label,
    mc_label_all,
    prm_loss,
    score_trajectory,
    select_trajectories,
    trajectory_id_of,
)
from .trajectory import (
    CONTINUATION_REQUEST,
    EmptyTrajectory,
    PromptBundle,
    Step,
    StepKind,
    Trajectory,
    build_completion_prompt,
    build_sampling_prompt,
    extract_formulas,
    parse_trajectory,
    render_step,
    trajectory_from_dict,
    trajectory_to_dict,
)

__version__ = "0.1.0"
