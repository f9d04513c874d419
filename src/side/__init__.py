"""Socially informed drought estimation.

Quantifies drought's societal impact from social/news text as weekly
determinant distributions, then jointly forecasts drought severity
(DSCI) and impact with a cross-attention encoder-decoder.
"""

from .core import (
    DETERMINANT_COUNT,
    DETERMINANT_NAMES,
    OTHER_INDEX,
    Document,
    SeveritySeries,
    Source,
    Windows,
    check_impacts,
    chronological_split,
    make_windows,
)
from .dsiq import (
    LexiconBackend,
    LlmBackend,
    TopicCluster,
    TopicModel,
    build_impact_series,
    fit_topic_model,
    map_topic,
    quantify,
)
from .model import LossWeights, ModelConfig, cross_attend, decode, encode, forward, joint_loss
from .train_eval import (
    MetricReport,
    Standardizer,
    TrainConfig,
    baseline_linear_ar,
    baseline_persistence,
    compute_metrics,
    evaluate,
    run_ablation,
    train,
)

__version__ = "0.1.0"
