"""Hand-optimized native implementations — the paper's reference point."""

from ..rounds import DEFAULT_DAMPING
from .cf import collaborative_filtering, iterations_to_rmse
from .compression import (
    bitvector_decode,
    bitvector_encode,
    delta_varint_decode,
    delta_varint_encode,
    encode_id_set,
    encoded_size,
)
from .engine import RUNNERS as _RUNNERS
from .options import FIGURE7_LADDER, NativeOptions

# native.pagerank(graph, cluster, options=...) etc.: the round programs,
# triangle counting's under its own engine.
globals().update(_RUNNERS)

__all__ = [
    "DEFAULT_DAMPING",
    "FIGURE7_LADDER",
    "NativeOptions",
    "bitvector_decode",
    "bitvector_encode",
    "collaborative_filtering",
    "delta_varint_decode",
    "delta_varint_encode",
    "encode_id_set",
    "encoded_size",
    "iterations_to_rmse",
]
