"""memalign: desk-scale engine for cross-paradigm agent-memory alignment.

Pipeline: memory graphs are serialized to a strict text format, a small
generative retriever is distillation-trained to emit query-conditioned
evidence subgraphs under grammar + subset constraints, heterogeneous
paradigm memory states are contrastively aligned into one unified vector
space, and aligned vectors are max-pool fused to condition retrieval.

The package root binds the names that callers outside the package import
from it; everything else is imported from the module that defines it.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import EngineConfig, default_config_text, load_config
from .corpus import coverage_mask, generate_synthetic_corpus, load_corpus, save_corpus
from .decoding import generate_subgraph
from .fusion import fuse_states
from .graphs import Edge, MemoryGraph, Node, emit_evidence, parse_evidence, parse_full_graph, verify_subset
from .pipeline import build_runtime
from .retriever import init_retriever
from .vocab import Vocabulary, build_vocabulary

__version__ = "0.1.0"
