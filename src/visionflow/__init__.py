"""visionflow: dual-resolution feature fusion, object-level box tokens, and a
toy trainable answer scorer, built on a minimal reverse-mode tensor core."""

from .assembly import MergeMethod, TokenSequence, assemble, assemble_video, score_answer
from .boxes import Detection, DetectionSet, box_stats, generate_boxes, iou
from .config import RunConfig, load_config
from .encoders import (
    DataError,
    EncoderConfig,
    HighResEncoder,
    LowResEncoder,
    SceneDescriptor,
    TextEmbedder,
    generate_scene,
    render_scene,
)
from .fusion import FusionStrategy, conv_gate_fuse, cross_attention, fuse
from .roi import MultiScalePyramid, build_pyramid, extract_object_features
from .tensor import Tensor, ShapeError, concat, conv1d, one_hot
from .training import FreezeMask, ModelParams, train_two_stage

__version__ = "0.1.0"
