import importlib
import importlib.util
from pathlib import Path

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


# Every attribute that bench/run.py's install_tracing rebinds to record spans,
# as (module, attribute path): a refactor that drops one fails here, not in
# a traced benchmark run.
TRACED = [
    ("cli", "cli_main"),
    ("harness", "run_ber_sweep"),
    ("complexity", "empirical_avg_comparisons"),
    ("complexity", "comparison_census"),
    ("codebook", "build_codebook"),
    ("channel", "random_words"),
    ("channel", "spread_many"),
    ("channel", "noise_block"),
    ("decoder", "fda_decode"),
    ("decoder", "fda_decode_batch8"),
    ("decoder", "MlDecoder.__init__"),
    ("decoder", "MlDecoder.decode_batch"),
]


def _owner(module, path):
    obj = importlib.import_module(f"udcdma.{module}")
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def test_traced_attributes_resolve():
    for module, path in TRACED:
        owner, attr = _owner(module, path)
        assert callable(getattr(owner, attr)), (module, path)


def test_traced_attributes_are_the_ones_the_bench_rebinds(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def wrap(self, owner, attr, name, **metrics):
            self.wrapped.append((owner, attr))

    rec = Recorder()
    run.install_tracing(rec)
    assert rec.wrapped == [_owner(module, path) for module, path in TRACED]
