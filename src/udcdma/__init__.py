"""Uniquely decodable ternary codes for overloaded synchronous CDMA."""

from .codebook import (
    FtSearchResult,
    TernaryCodebook,
    UdBoundError,
    UdWitness,
    build_codebook,
    max_ud_columns,
    verify_ud,
)
from .channel import ChannelConfig, ebn0_to_sigma
from .decoder import DecodeOutcome, MlDecoder, fda_decode, fda_decode_batch

__all__ = [
    "FtSearchResult",
    "TernaryCodebook",
    "UdBoundError",
    "UdWitness",
    "build_codebook",
    "max_ud_columns",
    "verify_ud",
    "ChannelConfig",
    "ebn0_to_sigma",
    "DecodeOutcome",
    "MlDecoder",
    "fda_decode",
    "fda_decode_batch",
]
