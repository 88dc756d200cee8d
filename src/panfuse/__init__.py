"""Panoptic segment fusion at desk scale.

Pipeline: semantic probabilities + detections -> dynamic potential
(one channel per candidate segment) -> dense instance affinity
aggregation (linear pixel complexity) -> per-pixel argmax, trained
end-to-end with a segment-matching cross-entropy loss and evaluated
with the PQ/SQ/RQ metric family.
"""

__version__ = "0.1.0"
