"""The three workloads: ``pairs``, ``retrieval`` and ``index``.

Each workload makes its inputs from the seed, sets up several times (the
median is ``setup_s``), then runs a closed loop with one caller thread until
the requested seconds have passed: the next operation starts when the
previous one returns. Every output is checked; a mismatch or a raised
exception counts as a failed check.

Untraced operations call the user-visible entry points (``psmi_similarity``,
``run_hitrate``, the ``build-psmi`` call chain). With tracing on, every
other operation is replaced by a traced one that does the same work through
the public functions underneath, one span per call; the untraced ones in
between give the tracing overhead.

Between operations the host-speed kernel runs in short bursts (see
:class:`harness.HostSpeed`); end-to-end times are scaled by it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vwsim import (
    GeneratorConfig,
    HitRateConfig,
    ImageObject,
    MatchOutcome,
    PsimIndex,
    Vocabulary,
    build_huffman_tree,
    build_psmi_index,
    build_temp_index,
    generate_synthetic,
    image_similarity,
    load_images,
    load_psmi,
    load_truth,
    load_vocabulary,
    perturb_image,
    psmi_match,
    psmi_similarity,
    query_top1,
    run_hitrate,
    save_images,
    save_psmi,
    save_truth,
    save_vocabulary,
    smii_match,
    smii_similarity,
    smin_match,
    smin_similarity,
)
from vwsim.core import unit_rows

from harness import LAYERS, HostSpeed, Tracer, median, percentile, perf

MU0 = 0.7
# Set-up repeats at least SETUP_MIN and at most SETUP_MAX times, until
# SETUP_TARGET_S have passed: cheap set-ups get more samples for their median.
SETUP_MIN, SETUP_MAX = 5, 15
SETUP_TARGET_S = 3.0
# Kernel runs around each set-up repetition: set-up is long and seen once.
SETUP_BURST = 30
# Kernel runs between the index workload's sub-operations, which take seconds.
CYCLE_BURST = 40
# Kernel runs between the retrieval workload's steps (load, build, run_hitrate).
STEP_BURST = 40
# Criterion-7 perturbation grid; rho = 0 must always retrieve the source.
RHO_GRID = (0.0, 0.1, 0.2, 0.4, 0.8, 1.0)
# Share of a query image's words drawn from its target, as near-duplicate
# pairs have; independent draws would rarely share a word at K = 10 000.
SHARED_FRACTION = 0.2


@dataclass(frozen=True)
class Sizes:
    pairs_vocab: int = 10_000
    pairs_dim: int = 16
    pair_words: int = 100
    pair_count: int = 2000
    psmi_per_block: int = 100
    sample_pairs: int = 64
    corpus_vocab: int = 1024
    corpus_dim: int = 64
    corpus_images: int = 1000
    words_per_image: int = 40
    query_count: int = 2
    check_query_count: int = 1
    index_vocab: int = 10_000
    index_dim: int = 16


FULL = Sizes()
SMOKE = Sizes(pairs_vocab=300, pair_words=12, pair_count=20, psmi_per_block=10, sample_pairs=3,
              corpus_vocab=96, corpus_dim=16, corpus_images=40, words_per_image=12,
              index_vocab=300)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    workdir: Path
    host: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Raw wall times by operation name: name -> (value, unit, samples).
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    # Host-speed-scaled end-to-end metrics: name -> (value, samples).
    end_to_end: dict[str, tuple[float, int]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def error(self, what: str, exc: Exception) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


class Spans(defaultdict):
    """``(start, end)`` of every timed call, by operation kind."""

    def __init__(self):
        super().__init__(list)

    def raw(self, kind: str) -> list[float]:
        return [end - start for start, end in self[kind]]


# Per-layer metrics read off span durations (median per call).
SPAN_METRICS = (
    ("core.from_arrays_us", "core.from_arrays", "us"),
    ("core.image_similarity_us", "core.image_similarity", "us"),
    ("core.checksum_s", "core.checksum", "s"),
    ("psmi.psmi_match_us", "psmi.psmi_match", "us"),
    ("psmi.build_psmi_index_s", "psmi.build_psmi_index", "s"),
    ("psmi.from_lists_s", "psmi.from_lists", "s"),
    ("psmi.build_huffman_tree_s", "psmi.build_huffman_tree", "s"),
    ("temp_index.build_temp_index_us", "temp_index.build_temp_index", "us"),
    ("temp_index.query_top1_us", "temp_index.query_top1", "us"),
    ("temp_index.smii_match_us", "temp_index.smii_match", "us"),
    ("matching.smin_match_us", "matching.smin_match", "us"),
    ("io.load_vocabulary_s", "io.load_vocabulary", "s"),
    ("io.load_images_s", "io.load_images", "s"),
    ("io.save_psmi_s", "io.save_psmi", "s"),
    ("io.load_psmi_s", "io.load_psmi", "s"),
    ("synth.perturb_image_us", "synth.perturb_image", "us"),
    ("bench.rank_us", "bench.rank", "us"),
)
# Per-layer counts (mean per recorded value).
COUNT_METRICS = (
    ("psmi.entries_walked", "count"),
    ("psmi.hit_ratio", "ratio"),
    ("psmi.index_entries", "count"),
    ("matching.pair_scores", "count"),
)
_SCALE = {"us": 1e6, "s": 1.0}


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, _, unit in SPAN_METRICS}
    units.update(dict(COUNT_METRICS))
    units["psmi.allpairs_s"] = "s"
    units.update({f"{layer}.self_pct": "%" for layer in LAYERS})
    units["trace.overhead_pct"] = "%"
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op2_ms_p50": "ms",
    "op3_ms_p50": "ms",
}


def _end_to_end(ctx: Context, spans: Spans, ops: tuple[str, ...], op: str, op2: str, op3: str,
                work_per_op: int = 1) -> dict[str, tuple[float, int]]:
    """Scaled end-to-end metrics.

    ``ops_per_s`` is a throughput: ``work_per_op`` units over the mean time
    of one operation, an operation being one span of each kind in ``ops``.
    Being a mean, it also moves when only a few operations slow down.
    """
    scaled = {kind: ctx.host.scale(spans[kind]) for kind in {"setup", op, op2, op3, *ops}}
    n_ops = len(scaled[ops[0]])
    per_op = sum(float(np.mean(scaled[kind])) for kind in ops)
    return {
        "setup_s": (median(scaled["setup"]), len(scaled["setup"])),
        "ops_per_s": (work_per_op / per_op, work_per_op * n_ops),
        "op_ms_p50": (median(scaled[op]) * 1e3, len(scaled[op])),
        "op2_ms_p50": (median(scaled[op2]) * 1e3, len(scaled[op2])),
        "op3_ms_p50": (median(scaled[op3]) * 1e3, len(scaled[op3])),
    }


def _layer_metrics(ctx: Context, tr: Tracer, loop_root: str,
                   untraced_op_s: list[float]) -> dict[str, float]:
    """Per-layer numbers of a traced run; 0 for a layer this workload never calls.

    Span times are scaled by the host speed around them, like end-to-end times.
    """
    out = {}
    for name, span, unit in SPAN_METRICS:
        intervals = tr.intervals(span)
        out[name] = median(ctx.host.scale(intervals)) * _SCALE[unit] if intervals else 0.0
    for name, _ in COUNT_METRICS:
        values = tr.counts.get(name)
        out[name] = float(np.mean(values)) if values else 0.0
    build, lists = out["psmi.build_psmi_index_s"], out["psmi.from_lists_s"]
    out["psmi.allpairs_s"] = build - lists if build and lists else 0.0
    for layer, share in tr.self_shares().items():
        out[f"{layer}.self_pct"] = share * 100.0
    base = median(untraced_op_s)
    out["trace.overhead_pct"] = (median(tr.op_times(loop_root)) - base) / base * 100.0
    return out


def _traced_build(tr: Tracer, vocab: Vocabulary) -> PsimIndex:
    """``build_psmi_index`` with the checksum paid first, plus re-runs of
    the CSR/object assembly and the Huffman layer to time them apart."""
    tr.call("core.checksum", getattr, vocab, "checksum")
    index = tr.call("psmi.build_psmi_index", build_psmi_index, vocab, MU0)
    tr.call("psmi.from_lists", PsimIndex.from_lists, index.frequencies, index.csr_offsets,
            index.csr_ids, index.csr_sims, index.mu0_build, index.vocab_checksum,
            index.dimension, probe=True)
    tr.call("psmi.build_huffman_tree", build_huffman_tree, index.frequencies, index.lists,
            probe=True)
    tr.count("psmi.index_entries", index.csr_ids.size)
    return index


def _record_psmi_counts(tr: Tracer, index: PsimIndex, a: ImageObject,
                        outcome: MatchOutcome) -> np.ndarray:
    """Count list entries walked and useful hits; return the partner array
    ``MatchOutcome.from_arrays`` is re-run on."""
    offsets = index.csr_offsets
    tr.count("psmi.entries_walked", int((offsets[a.word_ids + 1] - offsets[a.word_ids]).sum()))
    tr.count("psmi.hit_ratio", outcome.pair_count / a.word_count)
    partners = np.full(outcome.mu.size, -1, dtype=np.int64)
    partners[outcome.a_indices] = outcome.b_indices
    return partners


def _traced_psmi(tr: Tracer, a: ImageObject, b: ImageObject, index: PsimIndex) -> float:
    outcome = tr.call("psmi.psmi_match", psmi_match, a, b, MU0, index)
    score = tr.call("core.image_similarity", image_similarity, a, b, outcome)
    partners = tr.call("trace.count", _record_psmi_counts, tr, index, a, outcome, probe=True)
    tr.call("core.from_arrays", MatchOutcome.from_arrays, outcome.mu, partners, probe=True)
    return score


def _setup_rounds():
    first = perf()
    n = 0
    while n < SETUP_MIN or (n < SETUP_MAX and perf() - first < SETUP_TARGET_S):
        yield n
        n += 1


def _close_loop(ctx: Context, min_ops: int):
    """Yield operation numbers until the time is up (at least ``min_ops``)."""
    gc.collect()
    gc.freeze()
    deadline = perf() + ctx.seconds
    i = 0
    while i < min_ops or perf() < deadline:
        yield i
        i += 1


def _seeded_vocabulary_arrays(rng: np.random.RandomState, k: int, d: int):
    return unit_rows(rng.standard_normal((k, d))), rng.randint(1, 100, size=k).astype(np.int64)


# --------------------------------------------------------------------------
# pairs


def _make_pairs(rng: np.random.RandomState, vocab: Vocabulary, count: int,
                words: int) -> list[tuple[ImageObject, ImageObject]]:
    pairs = []
    for i in range(count):
        b_ids = rng.randint(0, vocab.size, size=words)
        a_ids = rng.randint(0, vocab.size, size=words)
        shared = rng.uniform(size=words) < SHARED_FRACTION
        a_ids[shared] = b_ids[rng.randint(0, words, size=int(shared.sum()))]
        wa = rng.uniform(0.1, 1.0, size=words)
        wb = rng.uniform(0.1, 1.0, size=words)
        pairs.append((ImageObject(f"a{i}", weights=wa / wa.max(), word_ids=a_ids, vocab=vocab),
                      ImageObject(f"b{i}", weights=wb / wb.max(), word_ids=b_ids, vocab=vocab)))
    return pairs


def run_pairs(ctx: Context) -> Outcome:
    sz = ctx.sizes
    out = Outcome()
    spans = Spans()
    tr = Tracer() if ctx.trace else None
    rng = np.random.RandomState(ctx.seed)
    vectors, freqs = _seeded_vocabulary_arrays(rng, sz.pairs_vocab, sz.pairs_dim)

    for _ in _setup_rounds():
        vocab = index = None
        ctx.host.burst(SETUP_BURST)
        start = perf()
        vocab = Vocabulary(vectors=vectors, frequencies=freqs)
        vocab.checksum
        index = build_psmi_index(vocab, MU0)
        spans["setup"].append((start, perf()))
    ctx.host.burst(SETUP_BURST)
    if tr is not None:
        with tr.op("op.setup"):
            vocab = Vocabulary(vectors=vectors, frequencies=freqs)
            index = _traced_build(tr, vocab)

    pairs = _make_pairs(rng, vocab, sz.pair_count, sz.pair_words)
    samples = _make_pairs(rng, vocab, sz.sample_pairs, sz.pair_words)
    first_score: list[float | None] = [None] * len(pairs)
    p = 0
    for block in _close_loop(ctx, min_ops=2 if tr is None else 4):
        traced = tr is not None and block % 2 == 1
        for _ in range(sz.psmi_per_block):
            slot = p % len(pairs)
            a, b = pairs[slot]
            p += 1
            try:
                if traced:
                    with tr.op("op.psmi_pair"):
                        score = _traced_psmi(tr, a, b, index)
                else:
                    start = perf()
                    score = psmi_similarity(a, b, MU0, index)
                    spans["psmi"].append((start, perf()))
            except Exception as exc:  # a failing call is counted, not fatal
                out.error(f"psmi pair {slot}", exc)
                continue
            if first_score[slot] is None:
                first_score[slot] = score
            out.check(0.0 <= score <= 1.0 and score == first_score[slot],
                      f"psmi pair {slot}: score {score!r} differs from {first_score[slot]!r}")

        what = f"sample pair {block % len(samples)}"
        a, b = samples[block % len(samples)]
        try:
            if traced:
                with tr.op("op.smii_pair"):
                    s_ii = tr.call("core.image_similarity", image_similarity, a, b,
                                   tr.call("temp_index.smii_match", smii_match, a, b, MU0))
                    tidx = tr.call("temp_index.build_temp_index", build_temp_index, b, probe=True)
                    for row in a.vector_matrix():
                        tr.call("temp_index.query_top1", query_top1, tidx, row, probe=True)
                with tr.op("op.smin_pair"):
                    s_in = tr.call("core.image_similarity", image_similarity, a, b,
                                   tr.call("matching.smin_match", smin_match, a, b, MU0))
                tr.count("matching.pair_scores", a.word_count * b.word_count)
            else:
                start = perf()
                s_ii = smii_similarity(a, b, MU0)
                mid = perf()
                s_in = smin_similarity(a, b, MU0)
                spans["smii"].append((start, mid))
                spans["smin"].append((mid, perf()))
            s_p = psmi_similarity(a, b, MU0, index)
            o_p = psmi_match(a, b, MU0, index)
            o_ii = smii_match(a, b, MU0)
            o_in = smin_match(a, b, MU0)
        except Exception as exc:  # a failing call is counted, not fatal
            out.error(what, exc)
            continue
        finally:
            ctx.host.burst(5)
        out.check(s_p == s_ii, f"{what}: smii score {s_ii!r} != psmi {s_p!r}")
        out.check(s_p == s_in and o_p == o_ii == o_in,
                  f"{what}: smin score {s_in!r} or an outcome differs from psmi")

    psmi_s = spans.raw("psmi")
    out.named = {
        "setup_s": (median(spans.raw("setup")), "s", len(spans["setup"])),
        "psmi_pairs_per_s": (len(psmi_s) / sum(psmi_s), "1/s", len(psmi_s)),
        "psmi_pair_us_p50": (median(psmi_s) * 1e6, "us", len(psmi_s)),
        "psmi_pair_us_p99": (percentile(psmi_s, 99) * 1e6, "us", len(psmi_s)),
        "smii_pair_us_p50": (median(spans.raw("smii")) * 1e6, "us", len(spans["smii"])),
        "smin_pair_us_p50": (median(spans.raw("smin")) * 1e6, "us", len(spans["smin"])),
    }
    out.end_to_end = _end_to_end(ctx, spans, ops=("psmi",), op="psmi", op2="smii", op3="smin")
    if tr is not None:
        out.layers = _layer_metrics(ctx, tr, "op.psmi_pair", psmi_s)
        out.tracer = tr
    return out


# --------------------------------------------------------------------------
# retrieval


def _hit_rates(rows: list[dict]) -> list[float]:
    return [row["hit_rate"] for row in rows]


def _replay_hitrate(tr: Tracer, cfg: HitRateConfig) -> list[float]:
    """``run_hitrate``'s steps through the same public functions, traced.

    Same loaders, same RNG draws in the same order, same scoring direction
    and tie-breaking, so the hit rates must come out identical.
    """
    root = Path(cfg.data_dir)
    vocab = tr.call("io.load_vocabulary", load_vocabulary, root / "vocabulary.jsonl")
    dataset = tr.call("io.load_images", load_images, root / "images.jsonl", vocab=vocab)
    truth = load_truth(root / "truth.json")
    by_id = {img.image_id: img for img in dataset.images}
    source_ids = sorted(set(truth.values()))
    rng = np.random.RandomState(cfg.seed)
    picked = rng.choice(len(source_ids), size=cfg.query_count, replace=False)
    sources = [by_id[source_ids[int(i)]] for i in picked]
    index = _traced_build(tr, vocab)

    rates = []
    for rho in cfg.rho_grid:
        queries = [tr.call("synth.perturb_image", perturb_image, src, rho, rng,
                           image_id=f"query{qi:06d}")
                   for qi, src in enumerate(sources)]
        hits = 0
        for query, source in zip(queries, sources):
            scored = [(-_traced_psmi(tr, query, img, index), img.image_id)
                      for img in dataset.images]
            tr.call("bench.rank", scored.sort)
            hits += source.image_id in {image_id for _, image_id in scored[:cfg.top_k]}
        rates.append(hits / cfg.query_count)
    return rates


def run_retrieval(ctx: Context) -> Outcome:
    sz = ctx.sizes
    out = Outcome()
    spans = Spans()
    tr = Tracer() if ctx.trace else None
    dataset, _, truth = generate_synthetic(GeneratorConfig(
        seed=ctx.seed, vocab_size=sz.corpus_vocab, dimension=sz.corpus_dim,
        image_count=sz.corpus_images, words_per_image=sz.words_per_image, zipf_exponent=1.1,
        duplicate_fraction=0.1, perturbation=0.1))
    vocab_path = ctx.workdir / "vocabulary.jsonl"
    images_path = ctx.workdir / "images.jsonl"
    save_vocabulary(dataset.vocab, vocab_path)
    save_images(dataset, images_path)
    save_truth(truth, ctx.workdir / "truth.json")
    del dataset

    for _ in _setup_rounds():
        ctx.host.burst(SETUP_BURST)
        start = perf()
        vocab = load_vocabulary(vocab_path)
        load_images(images_path, vocab=vocab)
        build_psmi_index(vocab, MU0)
        spans["setup"].append((start, perf()))
    ctx.host.burst(SETUP_BURST)

    cfg = HitRateConfig(data_dir=str(ctx.workdir), query_count=sz.query_count,
                        rho_grid=RHO_GRID, top_k=1, mu0=MU0, seed=ctx.seed)
    # Exact agreement with the naive matcher, on fewer queries and outside
    # the timed window: smin costs over twice as much as psmi per query here.
    small = dataclasses.replace(cfg, query_count=sz.check_query_count)
    try:
        psmi_rates = _hit_rates(run_hitrate(small))
        smin_rates = _hit_rates(run_hitrate(dataclasses.replace(small, algorithm="smin")))
        out.check(psmi_rates == smin_rates,
                  f"hit rates psmi {psmi_rates} != smin {smin_rates} on {small.query_count} queries")
    except Exception as exc:  # a failing call is counted, not fatal
        out.error("smin hit-rate check", exc)

    reference = None
    for i in _close_loop(ctx, min_ops=3 if tr is None else 4):
        traced = tr is not None and i % 2 == 1
        try:
            if traced:
                with tr.op("op.hitrate"):
                    rates = _replay_hitrate(tr, cfg)
                what = "traced replay"
            else:
                start = perf()
                vocab = load_vocabulary(vocab_path)
                load_images(images_path, vocab=vocab)
                loaded = perf()
                ctx.host.burst(STEP_BURST)
                built = perf()
                build_psmi_index(vocab, MU0)
                spans["build"].append((built, perf()))
                spans["load"].append((start, loaded))
                ctx.host.burst(STEP_BURST)
                start = perf()
                rates = _hit_rates(run_hitrate(cfg))
                spans["call"].append((start, perf()))
                what = "run_hitrate"
        except Exception as exc:  # a failing call is counted, not fatal
            out.error(f"retrieval op {i}", exc)
            continue
        finally:
            ctx.host.burst(STEP_BURST)
        if reference is None and not traced:
            reference = rates
        out.check(rates[0] == 1.0, f"{what} op {i}: hit rate {rates[0]} at rho=0")
        out.check(reference is None or rates == reference,
                  f"{what} op {i}: hit rates {rates} != first run_hitrate call {reference}")

    queries_per_call = cfg.query_count * len(cfg.rho_grid)
    call_s = spans.raw("call")
    out.named = {
        "setup_s": (median(spans.raw("setup")), "s", len(spans["setup"])),
        "retrieval_queries_per_s": (queries_per_call * len(call_s) / sum(call_s), "1/s",
                                    queries_per_call * len(call_s)),
        "retrieval_call_s_p50": (median(call_s), "s", len(call_s)),
        "corpus_load_s_p50": (median(spans.raw("load")), "s", len(spans["load"])),
        "corpus_index_build_s_p50": (median(spans.raw("build")), "s", len(spans["build"])),
    }
    out.end_to_end = _end_to_end(ctx, spans, ops=("call",), op="call", op2="load", op3="build",
                                 work_per_op=queries_per_call)
    if tr is not None:
        out.layers = _layer_metrics(ctx, tr, "op.hitrate", call_s)
        out.tracer = tr
    return out


# --------------------------------------------------------------------------
# index


def _same_index(built: PsimIndex, loaded: PsimIndex) -> bool:
    return (all(np.array_equal(getattr(built, name), getattr(loaded, name))
                for name in ("frequencies", "csr_offsets", "csr_ids", "csr_sims"))
            and (built.mu0_build, built.vocab_checksum, built.dimension)
            == (loaded.mu0_build, loaded.vocab_checksum, loaded.dimension))


def run_index(ctx: Context) -> Outcome:
    sz = ctx.sizes
    out = Outcome()
    spans = Spans()
    tr = Tracer() if ctx.trace else None
    rng = np.random.RandomState(ctx.seed)
    vectors, freqs = _seeded_vocabulary_arrays(rng, sz.index_vocab, sz.index_dim)
    vocab_path = ctx.workdir / "vocabulary.jsonl"
    index_path = ctx.workdir / "index.psmi"

    for _ in _setup_rounds():
        ctx.host.burst(SETUP_BURST)
        start = perf()
        save_vocabulary(Vocabulary(vectors=vectors, frequencies=freqs), vocab_path)
        spans["setup"].append((start, perf()))
    ctx.host.burst(SETUP_BURST)
    del vectors, freqs

    digest = None
    index_bytes = 0
    for i in _close_loop(ctx, min_ops=2 if tr is None else 4):
        traced = tr is not None and i % 2 == 1
        index = loaded = None
        try:
            if traced:
                with tr.op("op.index_cycle"):
                    vocab = tr.call("io.load_vocabulary", load_vocabulary, vocab_path)
                    index = _traced_build(tr, vocab)
                    tr.call("io.save_psmi", save_psmi, index, index_path)
                    fresh = tr.call("io.load_vocabulary", load_vocabulary, vocab_path)
                    tr.call("core.checksum", getattr, fresh, "checksum")
                    loaded = tr.call("io.load_psmi", load_psmi, index_path, vocab=fresh)
            else:
                # build-psmi: load the vocabulary, build, save.
                start = perf()
                index = build_psmi_index(load_vocabulary(vocab_path), MU0)
                built = perf()
                save_psmi(index, index_path)
                saved = perf()
                spans["build"].append((start, saved))
                spans["save"].append((built, saved))
                ctx.host.burst(CYCLE_BURST)
                # What every `sim --algo psmi` pays: load against a fresh vocabulary.
                start = perf()
                fresh = load_vocabulary(vocab_path)
                spans["fresh"].append((start, perf()))
                ctx.host.burst(CYCLE_BURST)
                start = perf()
                loaded = load_psmi(index_path, vocab=fresh)
                spans["load"].append((start, perf()))
                # Save once more: short next to the build, so a second sample
                # per cycle steadies its median at little cost.
                ctx.host.burst(CYCLE_BURST)
                start = perf()
                save_psmi(index, index_path)
                spans["save"].append((start, perf()))
            payload = index_path.read_bytes()
        except Exception as exc:  # a failing call is counted, not fatal
            out.error(f"index op {i}", exc)
            continue
        finally:
            ctx.host.burst(CYCLE_BURST)
        sha = hashlib.sha256(payload).hexdigest()
        digest = digest or sha
        index_bytes = len(payload)
        out.check(sha == digest, f"index op {i}: saved bytes differ from the first build")
        out.check(_same_index(index, loaded), f"index op {i}: loaded CSR arrays differ from built")

    build_s, load_s = spans.raw("build"), spans.raw("load")
    out.named = {
        "setup_s": (median(spans.raw("setup")), "s", len(spans["setup"])),
        "build_s": (median(build_s), "s", len(build_s)),
        "load_s": (median(load_s), "s", len(load_s)),
        "save_s": (median(spans.raw("save")), "s", len(spans["save"])),
        "index_bytes": (float(index_bytes), "bytes", 1),
    }
    out.end_to_end = _end_to_end(ctx, spans, ops=("build", "load"), op="build", op2="load",
                                 op3="save")
    if tr is not None:
        # Untraced work matching one traced cycle: build-psmi, fresh vocabulary, one load.
        cycle_s = [b + f + l for b, f, l in zip(build_s, spans.raw("fresh"), load_s)]
        out.layers = _layer_metrics(ctx, tr, "op.index_cycle", cycle_s)
        out.tracer = tr
    return out


WORKLOADS = {"pairs": run_pairs, "retrieval": run_retrieval, "index": run_index}
