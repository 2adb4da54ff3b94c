import udcdma

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert udcdma.__all__ == PUBLIC
    for name in udcdma.__all__:
        assert getattr(udcdma, name) is not None
