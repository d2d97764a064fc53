"""Streaming sketches and exact finalizers for edge-connectivity augmentation."""

from .cactus import CactusGraph, UnfoldedCycle, cactus_build, cactus_unfold, cactus_validate
from .certificate_stream import ForestStack
from .cycle_aug_stream import UnweightedArcStore, WeightedAugState
from .errors import Infeasible, SizeGuardError, StreamFormatError
from .graph_core import (
    Arc,
    Partition,
    UnionFind,
    WeightedEdge,
    edge_connectivity_at_least,
    three_edge_components,
)
from .oracles import (
    AugmentationInstance,
    exact_directed_cycle_cover,
    exact_kcap,
    exact_sndp,
    validate_certificate,
)
from .pipelines import (
    PipelineReport,
    ReplayableStream,
    StreamEvent,
    kcap_fully_streaming,
    kcap_link_arrival,
    kecss,
    stap_fully_streaming,
)
from .sndp_coreset import Cascade, Requirements, SndpSolution, solve_sndp
from .spanner_stream import SpannerState
from .weightbands import GeometricBands

__all__ = [
    "Arc",
    "AugmentationInstance",
    "CactusGraph",
    "Cascade",
    "ForestStack",
    "GeometricBands",
    "Infeasible",
    "Partition",
    "PipelineReport",
    "ReplayableStream",
    "Requirements",
    "SizeGuardError",
    "SndpSolution",
    "SpannerState",
    "StreamEvent",
    "StreamFormatError",
    "UnfoldedCycle",
    "UnionFind",
    "UnweightedArcStore",
    "WeightedAugState",
    "WeightedEdge",
    "cactus_build",
    "cactus_unfold",
    "cactus_validate",
    "edge_connectivity_at_least",
    "exact_directed_cycle_cover",
    "exact_kcap",
    "exact_sndp",
    "kcap_fully_streaming",
    "kcap_link_arrival",
    "kecss",
    "solve_sndp",
    "stap_fully_streaming",
    "three_edge_components",
    "validate_certificate",
]
