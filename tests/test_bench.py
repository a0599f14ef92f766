import pytest

from vwsim import BenchConfig, Dataset, DomainError, GeneratorConfig, HitRateConfig, generate_synthetic
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
    save_images(Dataset(images=queries, vocab=dataset.vocab), tmp_path / "queries.jsonl")
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
