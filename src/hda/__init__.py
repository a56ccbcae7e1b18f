"""Few-shot hybrid domain adaptation of a toy generator.

Reference features of each target domain span an affine embedding
subspace; a copy of a frozen source generator is adapted so that its
embeddings move onto (a weighted blend of) those subspaces while the
direction of travel stays aligned with the source-to-target
displacement.  No discriminator is involved anywhere.
"""

from .ablation import AblationRow, ablation_suite
from .autodiff import GradCheckReport, Tape, Var, grad_check
from .engine import (
    AdaptationConfig,
    Checkpoint,
    MetricSnapshot,
    OptimizerState,
    RunRecord,
    adam_step,
    clip_gradients,
    default_adaptation_config,
    init_optimizer_state,
    run_adaptation,
)
from .errors import (
    AdaptationError,
    ConfigError,
    DegenerateDomain,
    DimensionError,
    NumericalError,
)
from .losses import (
    DomainWeight,
    EncoderTerms,
    LossBreakdown,
    direct_loss,
    dist_loss,
    hda_objective,
    hybrid_direct_loss,
    hybrid_dist_loss,
)
from .metrics import MetricsReport, SnapshotPlan, evaluate
from .subspace import (
    DomainSubspace,
    FeatureSet,
    build_subspace,
    pca2d_export,
    project,
    separation_ratio,
    subspace_distance_sq,
)
from .worlds import (
    DEFAULT_WORLD_SEED,
    ENCODER_BIAS_CENTER,
    EncoderSpec,
    GeneratorParams,
    SyntheticDomainSpec,
    World,
    WorldConfig,
    build_world,
    build_world_subspaces,
    default_world_config,
    encode,
    make_encoder,
    make_source_generator,
    sample_domain_references,
)

__all__ = [name for name in dir() if not name.startswith("_")]
