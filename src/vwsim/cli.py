"""Command-line surface.

Subcommands: gen, build-vocab, quantize, build-psmi, sim, bench,
eval-hitrate. Each accepts only the flags it reads: --seed on gen,
build-vocab, bench, eval-hitrate and quantize --k; --index on sim --algo
psmi only; --csv on bench and eval-hitrate, which write CSV there or to
stdout. Exit codes: 0 success, 1 for validation or file-format problems, 2
for violated preconditions and usage errors, a flag the subcommand does not
read and a malformed comma list (--algos, --m, --n, --rho) included.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .bench import (
    ALGORITHMS,
    BENCH_COLUMNS,
    HITRATE_COLUMNS,
    SCORERS,
    BenchConfig,
    HitRateConfig,
    run_bench,
    run_hitrate,
)
from .errors import ContractError, PreconditionError, VwsimError
from .io import Dataset, load_images, load_psmi, load_vocabulary, save_images, save_psmi, save_truth, save_vocabulary
from .psmi import build_psmi_index, weighted_code_length
from .quantize import assign_words, kmeans_quantize, tfidf_weights
from .synth import GeneratorConfig, generate_synthetic


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_csv(rows, columns, csv_path) -> None:
    out = open(csv_path, "w", newline="", encoding="utf-8") if csv_path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    finally:
        if csv_path:
            out.close()


def cmd_sim(args) -> int:
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    a = load_images(args.image_a, vocab=vocab).image(0)
    b = load_images(args.image_b, vocab=vocab).image(0)
    index = load_psmi(args.index, vocab=vocab) if args.algo == "psmi" else None
    score = SCORERS[args.algo](a, b, args.mu0, index)
    print(f"{score:.6f}")
    return 0


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        algorithms=args.algos,
        pair_count=args.gamma,
        m_values=args.m,
        n_values=args.n,
        dimension=args.d,
        vocab_size=args.k,
        mu0=args.mu0,
        seed=args.seed,
        repetitions=args.reps,
    )
    rows = run_bench(cfg)
    _write_csv(rows, BENCH_COLUMNS, args.csv)
    if args.csv:
        print(f"wrote {len(rows)} benchmark rows to {args.csv}")
    return 0


def cmd_eval_hitrate(args) -> int:
    cfg = HitRateConfig(
        data_dir=args.data,
        query_count=args.queries,
        rho_grid=args.rho,
        top_k=args.top_k,
        mu0=args.mu0,
        seed=args.seed,
        algorithm=args.algo,
    )
    rows = run_hitrate(cfg)
    _write_csv(rows, HITRATE_COLUMNS, args.csv)
    if args.csv:
        print(f"wrote {len(rows)} hit-rate rows to {args.csv}")
    return 0


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        vocab_size=args.k,
        dimension=args.dim,
        image_count=args.images,
        words_per_image=args.words,
        zipf_exponent=args.zipf,
        duplicate_fraction=args.dup_fraction,
        perturbation=args.rho,
    )
    dataset, queries, truth = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_vocabulary(dataset.vocab, out / "vocabulary.jsonl")
    save_images(dataset, out / "images.jsonl")
    save_images(Dataset.from_images(queries, vocab=dataset.vocab), out / "queries.jsonl")
    save_truth(truth, out / "truth.json")
    print(f"generated {len(dataset)} images, {len(queries)} duplicate queries, "
          f"vocabulary of {dataset.vocab.size} words into {out} (seed {args.seed})")
    return 0


def cmd_build_vocab(args) -> int:
    raw = load_images(args.features)
    vocab, _ = kmeans_quantize(raw, args.k, args.seed)
    save_vocabulary(vocab, args.out)
    print(f"built vocabulary of {vocab.size} words (d={vocab.dimension}) "
          f"from {len(raw)} images into {args.out} (seed {args.seed})")
    return 0


def cmd_quantize(args) -> int:
    raw = load_images(args.features)
    if args.vocab:
        vocab = load_vocabulary(args.vocab)
        dataset = assign_words(vocab, raw)
        seeded = ""
    else:
        seed = 0 if args.seed is None else args.seed
        vocab, dataset = kmeans_quantize(raw, args.k, seed)
        if args.out_vocab:
            save_vocabulary(vocab, args.out_vocab)
        seeded = f", seed {seed}"
    if args.weighting == "tfidf":
        dataset = tfidf_weights(dataset)
    save_images(dataset, args.out)
    print(f"quantized {len(dataset)} images against {vocab.size} words into {args.out} "
          f"({args.weighting} weights{seeded})")
    return 0


def cmd_build_psmi(args) -> int:
    vocab = load_vocabulary(args.vocab)
    index = build_psmi_index(vocab, args.mu0)
    save_psmi(index, args.out)
    entries = int(index.csr_offsets[-1])
    print(f"built index over {index.size} words ({entries} list entries, "
          f"weighted code length {weighted_code_length(index)}) into {args.out}")
    return 0


def _algorithm(name: str) -> str:
    """argparse converter: one name from :data:`bench.ALGORITHMS`."""
    if name not in ALGORITHMS:
        raise ValueError(name)
    return name


def _comma_list(convert):
    """argparse type: a comma-separated list of *convert* values, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(convert(x) for x in text.split(","))
    parse.__name__ = f"comma-separated {convert.__name__.lstrip('_')}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vwsim",
        description="Similarity measurement for images represented as weighted bags of visual words.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    csv_out = argparse.ArgumentParser(add_help=False)
    csv_out.add_argument("--csv", default=None, help="write CSV rows to this path instead of stdout")

    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sim", help="score one image pair")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.add_argument("--algo", choices=ALGORITHMS, default="smin")
    p.add_argument("--mu0", type=float, default=0.7, help="similarity threshold (default 0.7)")
    p.add_argument("--vocab", default=None, help="vocabulary file (needed for id-carrying images)")
    p.add_argument("--index", default=None, help="offline index file (required for psmi)")
    p.set_defaults(fn=cmd_sim)

    p = subs.add_parser("bench", parents=[seeded, csv_out], help="timing sweep over random pairs")
    p.add_argument("--algos", type=_comma_list(_algorithm), default="smin,smii,psmi",
                   help="comma list of algorithms")
    p.add_argument("--gamma", type=int, default=100, help="pairs per sweep point")
    p.add_argument("--m", type=_comma_list(int), default="40", help="comma list of query image sizes")
    p.add_argument("--n", type=_comma_list(int), default="40", help="comma list of target image sizes")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--mu0", type=float, default=0.7)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(fn=cmd_bench)

    p = subs.add_parser("eval-hitrate", parents=[seeded, csv_out], help="near-duplicate retrieval evaluation")
    p.add_argument("--data", required=True, help="directory written by gen")
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--rho", type=_comma_list(float), default="0,0.1,0.2,0.4,0.8",
                   help="comma list of perturbation levels")
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--mu0", type=float, default=0.7)
    p.add_argument("--algo", choices=ALGORITHMS, default="psmi")
    p.set_defaults(fn=cmd_eval_hitrate)

    p = subs.add_parser("gen", parents=[seeded], help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--images", type=int, default=1000)
    p.add_argument("--words", type=int, default=40)
    p.add_argument("--zipf", type=float, default=1.1)
    p.add_argument("--dup-fraction", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.1)
    p.set_defaults(fn=cmd_gen)

    p = subs.add_parser("build-vocab", parents=[seeded], help="cluster raw features into a vocabulary")
    p.add_argument("--features", required=True, help="image file with inline-vector words")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_vocab)

    p = subs.add_parser("quantize", help="quantize raw features against a vocabulary")
    p.add_argument("--features", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--vocab", default=None, help="existing vocabulary (otherwise cluster with --k)")
    source.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="random seed with --k (default 0)")
    p.add_argument("--out", required=True)
    p.add_argument("--out-vocab", default=None, help="where to save the vocabulary made with --k")
    p.add_argument("--weighting", choices=("tfidf", "count"), default="tfidf")
    p.set_defaults(fn=cmd_quantize)

    p = subs.add_parser("build-psmi", help="build the offline similar-words index")
    p.add_argument("--vocab", required=True)
    p.add_argument("--mu0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_psmi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sim" and (args.algo == "psmi") != bool(args.index):
        parser.error("sim takes --index exactly when --algo is psmi")
    if args.command == "quantize" and args.vocab and (args.seed is not None or args.out_vocab):
        parser.error("quantize --vocab reads no --seed or --out-vocab")
    try:
        return args.fn(args)
    except (PreconditionError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VwsimError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
