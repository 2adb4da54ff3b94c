"""Run one benchmark workload against the ``udcdma`` sources of this checkout.

    python3 bench/run.py --workload ber-l2 --seed 1 --seconds 30 --trace 0

A run is a closed loop: one ``udcdma.cli.cli_main`` operation at a time, back
to back, in this process, until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics (set-up time, words decoded per second, peak
resident memory); ``--trace 1`` alternates untraced and traced operations and
reports per-layer metrics from spans recorded around the calls into each
``udcdma`` module (see ``spans.py``).  The last line of standard output
is one JSON object; results and span files go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, probe_seconds, scaled
from spans import END, NAME, PARENT, START, SpanRecorder, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_LAUNCHES = 10


def import_program():
    """Import ``udcdma`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "udcdma" / "cli.py").is_file():
        raise ImportError(f"no udcdma sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import udcdma.cli
    if Path(udcdma.__file__).resolve().parent != SRC / "udcdma":
        raise ImportError(f"udcdma was imported from {udcdma.__file__}, not {SRC}")
    return udcdma.cli


def run_op(cli, argv):
    """One operation: (wall seconds, exit code, standard output)."""
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_main(argv)
    return perf_counter() - start, rc, buf.getvalue()


def setup_launch(argv) -> float:
    """Wall time from launching a fresh interpreter to the end of a one-trial operation."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-m", "udcdma", *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up operation failed: {done.stderr.decode()[-500:]}")
    return perf_counter() - start


def install_tracing(rec):
    from udcdma import channel, cli, codebook, complexity, decoder, harness

    rows = lambda args, result: len(result)
    rec.wrap(cli, "cli_main", "cli.cli_main")
    rec.wrap(harness, "run_ber_sweep", "harness.run_ber_sweep")
    rec.wrap(complexity, "empirical_avg_comparisons", "complexity.empirical_avg_comparisons")
    rec.wrap(complexity, "comparison_census", "complexity.comparison_census")
    rec.wrap(codebook, "build_codebook", "codebook.build_codebook")
    rec.wrap(channel, "random_words", "channel.random_words", words=rows)
    rec.wrap(channel, "spread_many", "channel.spread_many", words=rows)
    rec.wrap(channel, "noise_block", "channel.noise_block", words=rows)
    rec.wrap(decoder, "fda_decode", "decoder.fda_decode",
             words=lambda a, r: 1, comps=lambda r: r.comparisons)
    rec.wrap(decoder, "fda_decode_batch8", "decoder.fda_decode_batch8",
             words=lambda a, r: len(r[0]), comps=lambda r: int(r[1].sum()))
    rec.wrap(decoder.MlDecoder, "__init__", "decoder.MlDecoder.__init__")
    rec.wrap(decoder.MlDecoder, "decode_batch", "decoder.MlDecoder.decode_batch",
             words=lambda a, r: len(a[1]))
    return channel


def layer_metrics(spans, selfs, lo, hi, words_per_decoder) -> dict:
    """Per-layer metrics of the spans spans[lo:hi], which hold one traced operation."""
    time_in, calls, self_in = {}, {}, {}
    builds = []
    for i in range(lo, hi):
        s = spans[i]
        name, dur = s[NAME], s[END] - s[START]
        time_in[name] = time_in.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_in[layer] = self_in.get(layer, 0.0) + selfs[i]
        if name == "codebook.build_codebook" and (
                s[PARENT] < 0 or spans[s[PARENT]][NAME] != name):
            builds.append(dur)
    per_word = lambda name: 1e6 * time_in.get(name, 0.0) / words_per_decoder
    return {
        "decoder.fda_decode_batch8.us_per_word": per_word("decoder.fda_decode_batch8"),
        "decoder.fda_decode.us_per_word": per_word("decoder.fda_decode"),
        "decoder.fda_decode.calls": calls.get("decoder.fda_decode", 0),
        "decoder.MlDecoder.init_s": time_in.get("decoder.MlDecoder.__init__", 0.0),
        "decoder.MlDecoder.decode_batch.us_per_word": per_word("decoder.MlDecoder.decode_batch"),
        "channel.random_words.us_per_word": per_word("channel.random_words"),
        "channel.spread_many.us_per_word": per_word("channel.spread_many"),
        "channel.noise_block.us_per_word": per_word("channel.noise_block"),
        "harness.self_s": self_in.get("harness", 0.0),
        "harness.blocks": calls.get("channel.random_words", 0),
        "complexity.self_s": self_in.get("complexity", 0.0),
        "cli.self_s": self_in.get("cli", 0.0),
        "codebook.build_codebook.s": statistics.median(builds) if builds else 0.0,
    }


# Unit of each metric, by the part of its name after the last dot.
UNITS = {"setup_s": "s", "words_per_s": "words/s", "peak_rss_mib": "MiB",
         "us_per_word": "us/word", "calls": "count", "blocks": "count", "init_s": "s",
         "self_s": "s", "s": "s", "comparisons_per_word": "count/word",
         "tracing_overhead_s": "s"}


def traced_run(cli, wl, seed, seconds):
    """Alternate untraced and traced operations; return (outputs, per-layer metrics).

    Each traced operation's times are scaled by a probe run right after it,
    as in ``untraced_run``; each metric is the median over traced operations.
    """
    rec = SpanRecorder()
    argv = wl.argv(seed)
    outputs, plain, traced, per_op = [], [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        dt, rc, text = run_op(cli, argv)
        outputs.append((rc, text))
        plain.append(scaled(dt))
        lo = len(rec.spans)
        channel = install_tracing(rec)
        try:
            dt, rc, text = run_op(cli, argv)
            for cfg, stream, block, chips in wl.noise_replay(seed):
                channel.noise_block(cfg, stream, block, chips)
        finally:
            rec.restore()
        factor = REFERENCE_S / probe_seconds()
        outputs.append((rc, text))
        traced.append(dt * factor)
        per_op.append((lo, len(rec.spans), factor))
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{wl.name}-seed{seed}.csv.gz")
    selfs = self_times(rec.spans)
    rows = []
    for lo, hi, factor in per_op:
        m = layer_metrics(rec.spans, selfs, lo, hi, wl.words_per_decoder)
        rows.append({k: v * factor if UNITS[k.rsplit(".", 1)[-1]] in ("s", "us/word") else v
                     for k, v in m.items()})
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["decoder.fda.comparisons_per_word"] = wl.comparisons_per_word(outputs[0][1])
    metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return outputs, metrics


def untraced_run(cli, wl, seed, seconds):
    """Time operations back to back; return (outputs, end-to-end metrics).

    Every operation and every one of ``SETUP_LAUNCHES`` set-up launches,
    spread evenly over the run, is timed and then scaled by a probe run right
    after it (``probe.py``); each time metric is the median of the scaled
    figures.
    """
    argv = wl.argv(seed)
    start = perf_counter()
    dt, rc, text = run_op(cli, argv)
    # Every operation is the same, so the first reaches the workload's peak;
    # read it before the probe's own arrays can raise it.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs, rates, launches = [(rc, text)], [wl.words_per_op / scaled(dt)], []
    while True:
        elapsed = perf_counter() - start
        if len(launches) < SETUP_LAUNCHES and elapsed >= len(launches) * seconds / SETUP_LAUNCHES:
            launches.append(scaled(setup_launch(wl.setup_argv(seed))))
            continue
        if elapsed >= seconds:
            break
        dt, rc, text = run_op(cli, argv)
        outputs.append((rc, text))
        rates.append(wl.words_per_op / scaled(dt))
    return outputs, {"setup_s": statistics.median(launches),
                     "words_per_s": statistics.median(rates), "peak_rss_mib": peak_mib}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_op(cli, wl.setup_argv(args.seed))              # warm-up, untimed
    measure = traced_run if args.trace else untraced_run
    outputs, metrics = measure(cli, wl, args.seed, args.seconds)

    # Checks, outside the timed region.  All operations ran the same command,
    # so each output must equal the first, and the first must pass the checks.
    problems = wl.run_checks(args.seed, lambda argv: run_op(cli, argv))
    first = outputs[0][1]
    content = wl.check(first, args.seed)
    failed = sum(1 for rc, text in outputs if rc != 0 or text != first or content)
    for msg in problems + content:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]}
                    for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
