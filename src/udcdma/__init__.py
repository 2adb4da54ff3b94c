"""Uniquely decodable ternary codes for overloaded synchronous CDMA."""

from .codebook import (
    FtSearchResult,
    TernaryCodebook,
    UdBoundError,
    UdWitness,
    build_codebook,
    max_ud_columns,
    strip_first_row,
    verify_ud,
)
from .channel import ChannelConfig, add_awgn, ebn0_to_sigma, spread
from .decoder import (
    DecodeOutcome,
    MlDecoder,
    QuantizeResult,
    fda_decode,
    fda_decode_batch,
    ml_decode,
    quantize,
)

__all__ = [
    "FtSearchResult",
    "TernaryCodebook",
    "UdBoundError",
    "UdWitness",
    "build_codebook",
    "max_ud_columns",
    "strip_first_row",
    "verify_ud",
    "ChannelConfig",
    "add_awgn",
    "ebn0_to_sigma",
    "spread",
    "DecodeOutcome",
    "MlDecoder",
    "QuantizeResult",
    "fda_decode",
    "fda_decode_batch",
    "ml_decode",
    "quantize",
]
