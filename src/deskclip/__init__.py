"""Desk-scale contrastive image-text pre-training toolkit.

A small numpy/scipy stack covering the full recipe: a reverse-mode autodiff
tensor engine, masked ViT image and causal text towers, the symmetric
contrastive objective with a learnable clamped temperature, LAMB/AdamW with
layer-wise LR decay and dynamic loss scaling, a synthetic paired corpus with
binary shards, deterministic training with binary checkpoints, and the
zero-shot classification / retrieval / robustness evaluation protocol.
"""

__version__ = "0.1.0"

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    Batch,
    BatchStream,
    Corpus,
    CorpusSpec,
    TokenizerSpec,
    detokenize,
    generate_corpus,
    load_corpus,
    random_resized_crop,
    read_shard,
    tokenize,
    write_shard,
)
from .encoders import (
    EmbeddingOutput,
    ImageEncoderConfig,
    MaskSpec,
    ModelConfig,
    TextEncoderConfig,
    count_params,
    encode_image,
    encode_text,
    interpolate_pos_embed,
    patchify,
    sample_mask,
)
from .evaluation import (
    EvalReport,
    build_class_embeddings,
    center_frame,
    evaluate,
    mean_top1_top5,
    recall_at_k,
    retrieval_report,
    robustness_gap,
    zero_shot_classify,
)
from .model import ClipModel, preset
from .objective import clamp_scale, clip_loss, similarity_logits
from .optim import (
    LossScalerState,
    Optimizer,
    OptimizerConfig,
    ParamGroup,
    Schedule,
    adamw_step,
    lamb_step,
    layer_scales,
    lr_at,
    scaler_update,
)
from .tensor import Tensor, backward, grad_check, no_grad, zero_grads
from .trainer import (
    StepRecord,
    TrainConfig,
    Trainer,
    bench,
    init_from_checkpoint,
    run_ablation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
