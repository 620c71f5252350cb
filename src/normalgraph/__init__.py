"""Discrete belief propagation and local parameter learning on
normal-form factor graphs.

Variables live on edges, equality diverters replicate them, and SISO
blocks carry row-stochastic matrices between them.  Cycle-free graphs get
exact forward/backward propagation; trainable blocks learn from the
messages that arrive at their ports, with four local update rules
(``ml``, ``kl``, ``vit``, ``var``) sharing one EM-style driver.
"""

from .messages import (
    AllZeroVector,
    hadamard_posterior,
    max_indicator,
    normalize,
    one_hot,
    sharpen,
    uniform,
)
from .graph import (
    DiverterNode,
    GraphError,
    GraphSpec,
    InvalidIndex,
    SisoBlock,
    SourceBlock,
    UnknownVariable,
    build_expander,
    build_projector,
    ensure_valid,
    graph_digest,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    split_variable,
    validate,
)
from .propagation import (
    ContradictoryEvidence,
    MessageState,
    Propagator,
    aggregated_log_likelihood,
    posterior,
)
from .learning import (
    ALGORITHMS,
    BlockDataset,
    EpochRecord,
    TrainConfig,
    TrainReport,
    block_log_likelihood,
    em_train,
    generalized_divergence,
    kkt_multipliers,
    kl_update,
    ml_update,
    train_block,
    var_update,
    vit_update,
)
from .synthgen import (
    SampleSet,
    ancestral_sample,
    random_message_pairs,
    random_row_stochastic,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # messages
    "AllZeroVector", "hadamard_posterior", "max_indicator", "normalize", "one_hot",
    "sharpen", "uniform",
    # graph
    "DiverterNode", "GraphError", "GraphSpec", "InvalidIndex", "SisoBlock",
    "SourceBlock", "UnknownVariable", "build_expander", "build_projector",
    "ensure_valid", "graph_digest", "graph_from_dict", "graph_to_dict",
    "load_graph", "save_graph", "split_variable", "validate",
    # propagation
    "ContradictoryEvidence", "MessageState", "Propagator",
    "aggregated_log_likelihood", "posterior",
    # learning
    "ALGORITHMS", "BlockDataset", "EpochRecord", "TrainConfig",
    "TrainReport", "block_log_likelihood", "em_train", "generalized_divergence", "kkt_multipliers",
    "kl_update", "ml_update", "train_block", "var_update", "vit_update",
    # synthetic data
    "SampleSet", "ancestral_sample", "random_message_pairs",
    "random_row_stochastic", "substream",
]
