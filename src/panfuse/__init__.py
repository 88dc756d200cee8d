"""Panoptic segment fusion at desk scale.

Pipeline: semantic probabilities + detections -> dynamic potential
(one channel per candidate segment) -> dense instance affinity
aggregation (linear pixel complexity) -> per-pixel argmax, trained
end-to-end with a segment-matching cross-entropy loss and evaluated
with the PQ/SQ/RQ metric family.
"""

from .affinity import (
    AffinityGrads,
    AffinityParams,
    CostReport,
    affinity_map_for_pixel,
    apply_affinity_factored,
    apply_affinity_naive,
    backward_affinity,
    estimate_costs,
    project_features,
)
from .errors import (
    CapacityError,
    CueError,
    DimensionError,
    FormatError,
    GenerationError,
    NumericError,
    PanfuseError,
    UsageError,
)
from .inference import (
    MergerParams,
    PanopticMap,
    Segment,
    heuristic_merge,
    infer_panoptic,
    panoptic_from_ground_truth,
    trim_small_stuff,
)
from .matching import (
    MatchResult,
    TargetMap,
    box_iou,
    boxes_from_segments,
    build_target_map,
    match_segments,
    panoptic_matching_loss,
)
from .metrics import (
    ConfusionTS,
    PQReport,
    PQStats,
    box_average_precision,
    class_pixel_counts,
    mean_iou,
    thing_stuff_confusion,
)
from .numerics import IGNORE, VOID, argmax_channels
from .potential import (
    ChannelInfo,
    DynamicPotential,
    Variant,
    append_stuff_boxes,
    build_potential,
    filter_by_score,
)
from .scene import (
    Box,
    ClassCatalog,
    Detection,
    GroundTruthPanoptic,
    GtSegment,
    SceneCues,
    SynthConfig,
    load_scene,
    save_scene,
    synth_scene,
    validate_scene,
)
from .train import (
    TrainConfig,
    TrainingReport,
    ablate,
    train_toy,
)

__version__ = "0.1.0"
