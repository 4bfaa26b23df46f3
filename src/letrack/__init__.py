"""letrack: open-world video instance tracking and evaluation.

Class-agnostic detections go in, associated and classified tracks come out,
and a two-pass higher-order evaluator scores them in closed (HOTA) or open
(OWTA) world mode.  A seeded synthetic harness generates matched
gt/detections/bank triples for end-to-end testing, and every file the
package writes is canonical JSON, so equal inputs give byte-equal outputs.
"""

from .assignment import hungarian_max
from .association import (
    Diagnostics,
    FrameAssignment,
    Tracker,
    TrackerConfig,
    bisoftmax_scores,
    cem_gate,
    run_sequence,
    track_sequence,
)
from .classification import (
    SPLITS,
    CategoryBank,
    CategoryEntry,
    classify_detection,
    track_label,
    vote,
    vote_fraction,
)
from .core import (
    BBox,
    Detection,
    InternalInvariantError,
    SequenceMeta,
    TrackState,
    TrackStatus,
    validate_sequence,
)
from .io import (
    ConfigError,
    FrameDetections,
    SchemaError,
    SequenceDetections,
    SequenceTracks,
    TrackObservation,
    TrackRecord,
    dumps_canonical,
    load_bank,
    load_detections,
    load_tracks,
    parse_flat_config,
    save_bank,
    save_detections,
    save_tracks,
)
from .maskops import (
    RleMask,
    box_iou,
    box_iou_matrix,
    mask_iou,
    mask_to_box,
    rle_decode,
    rle_encode,
    validate_rle,
)
from .metrics import (
    DEFAULT_ALPHAS,
    EvalConfig,
    MetricsReport,
    evaluate,
    hota_alpha,
    match_frames,
)
from .rng import SplitMix64
from .synth import SynthConfig, SynthResult, generate, perfect_tracker

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CategoryBank",
    "CategoryEntry",
    "ConfigError",
    "DEFAULT_ALPHAS",
    "Detection",
    "Diagnostics",
    "EvalConfig",
    "FrameAssignment",
    "FrameDetections",
    "InternalInvariantError",
    "MetricsReport",
    "RleMask",
    "SPLITS",
    "SchemaError",
    "SequenceDetections",
    "SequenceMeta",
    "SequenceTracks",
    "SplitMix64",
    "SynthConfig",
    "SynthResult",
    "TrackObservation",
    "TrackRecord",
    "TrackState",
    "TrackStatus",
    "Tracker",
    "TrackerConfig",
    "bisoftmax_scores",
    "box_iou",
    "box_iou_matrix",
    "cem_gate",
    "classify_detection",
    "dumps_canonical",
    "evaluate",
    "generate",
    "hota_alpha",
    "hungarian_max",
    "load_bank",
    "load_detections",
    "load_tracks",
    "mask_iou",
    "mask_to_box",
    "match_frames",
    "parse_flat_config",
    "perfect_tracker",
    "rle_decode",
    "rle_encode",
    "run_sequence",
    "save_bank",
    "save_detections",
    "save_tracks",
    "track_label",
    "track_sequence",
    "validate_rle",
    "validate_sequence",
    "vote",
    "vote_fraction",
    "__version__",
]
