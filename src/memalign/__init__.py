"""memalign: desk-scale engine for cross-paradigm agent-memory alignment.

Pipeline: memory graphs are serialized to a strict text format, a small
generative retriever is distillation-trained to emit query-conditioned
evidence subgraphs under grammar + subset constraints, heterogeneous
paradigm memory states are contrastively aligned into one unified vector
space, and aligned vectors are max-pool fused to condition retrieval.
"""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, EngineConfig, ParadigmSpec, default_config_text, load_config
from .contrastive import (
    AlignConfig,
    AlignTrainReport,
    cosine_alignment_gap,
    cosine_sim,
    infonce_loss,
    sample_negatives,
    topk_match_accuracy,
    train_alignment,
)
from .corpus import (
    CorpusInstance,
    CorpusError,
    corpus_vocabulary,
    coverage_mask,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    visible_gold,
)
from .decoding import ConstraintEngine, DecodeError, decode_many, generate_subgraph
from .fusion import FusedMemory, FusionError, fuse_states
from .graphs import (
    Edge,
    EvidenceSubgraph,
    GraphFormatError,
    MemoryGraph,
    Node,
    VerificationReport,
    Violation,
    emit,
    emit_evidence,
    parse_evidence,
    parse_full_graph,
    verify_subset,
)
from .metrics import (
    AnswerPair,
    MemoryRecord,
    exact_match,
    mem_length,
    memory_utilization,
    normalize_answer,
    rouge1,
    token_f1,
    unique_ratio,
)
from .optim import AdamW, lr_at_step
from .pipeline import (
    Runtime,
    build_runtime,
    evaluate_retrieval,
    prepare_retriever_examples,
    score_retrieval,
    train_alignment_pipeline,
    train_retriever_pipeline,
)
from .retriever import (
    DistillConfig,
    QueryEmbedder,
    RetrieverExample,
    RetrieverModel,
    distill_loss,
    init_retriever,
    teacher_distribution,
    train_retriever,
)
from .seeding import component_rng, fnv1a64, subseed
from .tokenization import delinearize, linearize, linearize_evidence
from .unified import (
    AlignmentModule,
    InstanceContent,
    MemoryState,
    ParadigmRegistry,
    align_forward,
    align_gradients,
    init_alignment_module,
)
from .vocab import Vocabulary, build_vocabulary

__version__ = "0.1.0"
