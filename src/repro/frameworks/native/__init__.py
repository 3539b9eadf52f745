"""Hand-optimized native implementations — the paper's reference point."""

from .cf import iterations_to_rmse
from .compression import (
    bitvector_decode,
    bitvector_encode,
    delta_varint_decode,
    delta_varint_encode,
    encode_id_set,
    encoded_size,
)
from .options import FIGURE7_LADDER, NativeOptions

__all__ = [
    "FIGURE7_LADDER",
    "NativeOptions",
    "bitvector_decode",
    "bitvector_encode",
    "delta_varint_decode",
    "delta_varint_encode",
    "encode_id_set",
    "encoded_size",
    "iterations_to_rmse",
]
