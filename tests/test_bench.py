import dataclasses

import numpy as np
import pytest

from conftest import random_vocab

from vwsim import (
    BenchConfig,
    Dataset,
    DomainError,
    GeneratorConfig,
    HitRateConfig,
    ImageObject,
    generate_synthetic,
)
from vwsim import bench, psmi
from vwsim.bench import BENCH_COLUMNS, HITRATE_COLUMNS, run_bench, run_hitrate
from vwsim.io import save_images, save_truth, save_vocabulary


def tiny_bench(**overrides):
    base = dict(algorithms=("smin", "smii", "psmi", "exhaustive-baseline"),
                pair_count=2, m_values=(3,), n_values=(4,), dimension=6,
                vocab_size=32, mu0=0.6, seed=5, repetitions=3)
    base.update(overrides)
    return BenchConfig(**base)


def write_benchmark(tmp_path, **overrides):
    cfg_kwargs = dict(seed=7, vocab_size=64, dimension=16, image_count=30,
                      words_per_image=10, zipf_exponent=1.1,
                      duplicate_fraction=0.3, perturbation=0.1)
    cfg_kwargs.update(overrides)
    dataset, queries, truth = generate_synthetic(GeneratorConfig(**cfg_kwargs))
    save_vocabulary(dataset.vocab, tmp_path / "vocabulary.jsonl")
    save_images(dataset, tmp_path / "images.jsonl")
    save_images(Dataset.from_images(queries, vocab=dataset.vocab), tmp_path / "queries.jsonl")
    save_truth(truth, tmp_path / "truth.json")
    return tmp_path


class TestBenchConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(DomainError):
            tiny_bench(algorithms=("smin", "warp"))

    def test_rejects_too_few_repetitions(self):
        with pytest.raises(DomainError):
            tiny_bench(repetitions=2)

    def test_rejects_empty_sweep(self):
        with pytest.raises(DomainError):
            tiny_bench(m_values=())

    @pytest.mark.parametrize("value", [2.5, True, "4"])
    @pytest.mark.parametrize("field", ["pair_count", "dimension", "vocab_size", "repetitions",
                                       "seed", "m_values", "n_values"])
    def test_integer_fields_refuse_floats_bools_and_strings(self, field, value):
        if field.endswith("_values"):
            value = (3, value)
        with pytest.raises(DomainError, match=rf"^{field} must be integers.*; {field}(\[1\])? is "):
            tiny_bench(**{field: value})

    def test_fields_keep_python_values(self):
        cfg = tiny_bench(pair_count=np.int32(2), m_values=np.array([3, 5]), seed=np.int64(5))
        assert type(cfg.pair_count) is int and type(cfg.seed) is int
        assert cfg.m_values == (3, 5) and type(cfg.m_values[0]) is int


class TestHitRateConfig:
    @pytest.mark.parametrize("field, value, kind", [
        *((name, value, "integers") for name in ("query_count", "top_k", "seed")
          for value in (1.5, True, "4")),
        ("rho_grid", (0.0, "0.1"), "numbers"),
        ("rho_grid", (0.0, True), "numbers"),
    ])
    def test_refuses_floats_bools_and_strings(self, tmp_path, field, value, kind):
        fields = dict(data_dir=str(tmp_path), query_count=2, rho_grid=(0.0,))
        fields[field] = value
        with pytest.raises(DomainError, match=rf"^{field} must be {kind}.*; {field}(\[1\])? is "):
            HitRateConfig(**fields)

    def test_range_messages_stay(self, tmp_path):
        for field, value, message in [("top_k", 0, "top_k must be >= 1"),
                                      ("query_count", 0, "query_count must be >= 1"),
                                      ("rho_grid", (1.5,), r"rho values must lie in \[0, 1\]")]:
            fields = dict(data_dir=str(tmp_path), query_count=2, rho_grid=(0.0,))
            fields[field] = value
            with pytest.raises(DomainError, match=message):
                HitRateConfig(**fields)


class TestRunBench:
    def test_smoke_emits_one_row_per_algorithm(self):
        rows = run_bench(tiny_bench(pair_count=1))
        algos = [r["algo"] for r in rows]
        assert algos.count("smin") == algos.count("smii") == algos.count("psmi") == 1
        assert algos.count("exhaustive-baseline") == 1
        assert "psmi-build" in algos
        for row in rows:
            assert set(BENCH_COLUMNS) <= set(row)

    def test_non_timing_columns_deterministic(self):
        fixed = [c for c in BENCH_COLUMNS if c not in ("median_ms", "per_pair_us")]
        rows_a = run_bench(tiny_bench())
        rows_b = run_bench(tiny_bench())
        assert [[r[c] for c in fixed] for r in rows_a] == [[r[c] for c in fixed] for r in rows_b]

    def test_sweep_emits_cross_product(self):
        rows = run_bench(tiny_bench(algorithms=("smin",), m_values=(2, 3), n_values=(2, 5)))
        points = {(r["m"], r["n"]) for r in rows}
        assert points == {(2, 2), (2, 5), (3, 2), (3, 5)}

    def test_build_row_reports_no_per_pair_time(self):
        rows = run_bench(tiny_bench(algorithms=("psmi",)))
        build = [r for r in rows if r["algo"] == "psmi-build"]
        assert len(build) == 1 and build[0]["per_pair_us"] == ""
        assert build[0]["median_ms"] > 0.0


class TestRunHitrate:
    def test_exact_copies_always_retrieve_source(self, tmp_path):
        write_benchmark(tmp_path)
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=8, rho_grid=(0.0,),
                            top_k=1, mu0=0.7, seed=3, algorithm="smii")
        rows = run_hitrate(cfg)
        assert rows[0]["hit_rate"] == 1.0
        assert rows[0]["dataset_size"] == 30
        assert set(HITRATE_COLUMNS) <= set(rows[0])

    def test_algorithms_agree_on_hit_rate(self, tmp_path):
        write_benchmark(tmp_path)
        rates = []
        for algo in ("smin", "smii", "psmi"):
            cfg = HitRateConfig(data_dir=str(tmp_path), query_count=5, rho_grid=(0.2,),
                                top_k=1, mu0=0.7, seed=3, algorithm=algo)
            rates.append(run_hitrate(cfg)[0]["hit_rate"])
        assert rates[0] == rates[1] == rates[2]

    def test_deterministic_given_seed(self, tmp_path):
        write_benchmark(tmp_path)
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=6, rho_grid=(0.0, 0.5),
                            top_k=2, mu0=0.7, seed=9, algorithm="psmi")
        assert run_hitrate(cfg) == run_hitrate(cfg)

    def test_missing_truth_is_domain_error(self, tmp_path):
        write_benchmark(tmp_path)
        (tmp_path / "truth.json").unlink()
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=3, rho_grid=(0.0,))
        with pytest.raises(DomainError):
            run_hitrate(cfg)

    def test_too_many_queries_rejected(self, tmp_path):
        write_benchmark(tmp_path)
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=500, rho_grid=(0.0,))
        with pytest.raises(DomainError):
            run_hitrate(cfg)

    def test_psmi_scores_each_query_in_one_search(self, tmp_path, monkeypatch):
        write_benchmark(tmp_path)
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=6, rho_grid=(0.0, 0.4, 1.0),
                            top_k=1, mu0=0.7, seed=11, algorithm="psmi")
        smin_rows = run_hitrate(dataclasses.replace(cfg, algorithm="smin"))

        def per_image(*args):
            raise AssertionError("the psmi path made a per-image call")

        searches = []
        monkeypatch.setitem(bench.SCORERS, "psmi", per_image)
        monkeypatch.setattr(psmi, "psmi_match", per_image)
        monkeypatch.setattr(bench, "search", lambda *args: searches.append(1) or psmi.search(*args))
        rows = run_hitrate(cfg)
        assert len(searches) == cfg.query_count * len(cfg.rho_grid)
        assert [{**row, "algo": "smin"} for row in rows] == smin_rows

    def test_psmi_builds_no_image_object_per_corpus_image(self, tmp_path, monkeypatch):
        # The corpus stays in the dataset's columns: only the sources and the
        # perturbed queries become image objects (30 corpus images here).
        write_benchmark(tmp_path)
        cfg = HitRateConfig(data_dir=str(tmp_path), query_count=4, rho_grid=(0.0, 0.5, 1.0),
                            top_k=1, mu0=0.7, seed=5, algorithm="psmi")
        built = []
        post_init = ImageObject.__post_init__
        monkeypatch.setattr(ImageObject, "__post_init__", lambda img: built.append(img) or post_init(img))
        run_hitrate(cfg)
        assert len(built) <= cfg.query_count * (1 + len(cfg.rho_grid))

    @pytest.mark.parametrize("algorithm", ["psmi", "smin"])
    def test_ties_rank_by_image_id(self, tmp_path, algorithm):
        # "a1" and "z1" are exact copies of the source "s1": every query scores
        # them equal to it, and the smaller image id ranks first.
        vocab = random_vocab(np.random.RandomState(173), 16, 4)
        twin = dict(weights=np.array([1.0, 0.5, 0.3]), word_ids=[0, 1, 2], vocab=vocab)
        images = [ImageObject("s1", **twin), ImageObject("m2", np.ones(2), word_ids=[5, 6], vocab=vocab),
                  ImageObject("z1", **twin), ImageObject("a1", **twin)]
        save_vocabulary(vocab, tmp_path / "vocabulary.jsonl")
        save_images(Dataset.from_images(images, vocab=vocab), tmp_path / "images.jsonl")
        save_truth({"dup": "s1"}, tmp_path / "truth.json")
        rates = [run_hitrate(HitRateConfig(data_dir=str(tmp_path), query_count=1, rho_grid=(0.0,),
                                           top_k=top_k, mu0=0.7, seed=1,
                                           algorithm=algorithm))[0]["hit_rate"]
                 for top_k in (1, 2, 3)]
        assert rates == [0.0, 1.0, 1.0]
