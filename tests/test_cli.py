import csv
import json

import numpy as np
import pytest

from vwsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_single_word_image(path, vector, weight=1.0, image_id="img"):
    rec = {"image_id": image_id, "words": [{"vector": list(vector), "weight": weight}]}
    path.write_text(json.dumps(rec) + "\n")
    return path


@pytest.fixture
def gen_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run_cli(capsys, "gen", "--out", str(out), "--k", "64", "--dim", "8",
                         "--images", "25", "--words", "8", "--dup-fraction", "0.4",
                         "--rho", "0.1", "--seed", "7")
    assert code == 0
    return out


class TestSim:
    def test_identical_single_word_images_print_one(self, tmp_path, capsys):
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0, 0.0])
        b = write_single_word_image(tmp_path / "b.jsonl", [1.0, 0.0], image_id="other")
        code, out, _ = run_cli(capsys, "sim", str(a), str(b), "--mu0", "0.5")
        assert code == 0
        assert out.strip() == "1.000000"

    def test_disjoint_images_print_zero(self, tmp_path, capsys):
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0, 0.0])
        b = write_single_word_image(tmp_path / "b.jsonl", [0.0, 1.0], image_id="other")
        code, out, _ = run_cli(capsys, "sim", str(a), str(b), "--mu0", "0.5")
        assert code == 0
        assert out.strip() == "0.000000"

    def test_baseline_algorithm(self, tmp_path, capsys):
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0, 0.0])
        code, out, _ = run_cli(capsys, "sim", str(a), str(a), "--algo", "exhaustive-baseline")
        assert code == 0
        assert out.strip() == "1.000000"

    def test_unscorable_pair_exits_one(self, tmp_path, capsys):
        # Cosine 1e-170 at mu0 = 0: the score's denominator underflows to 0.
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0, 0.0])
        b = write_single_word_image(tmp_path / "b.jsonl", [1e-170, 1.0], image_id="other")
        for algo in ("smin", "smii"):
            code, out, err = run_cli(capsys, "sim", str(a), str(b), "--mu0", "0", "--algo", algo)
            assert code == 1 and out == "" and "too small to score" in err

    def test_psmi_without_index_is_usage_error(self, tmp_path, capsys):
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0, 0.0])
        with pytest.raises(SystemExit) as info:
            main(["sim", str(a), str(a), "--algo", "psmi"])
        assert info.value.code == 2

    def test_malformed_image_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code, _, err = run_cli(capsys, "sim", str(bad), str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sim", str(tmp_path / "none.jsonl"), str(tmp_path / "none.jsonl"))
        assert code == 1

    def test_all_exact_algorithms_print_identical_scores(self, gen_dir, tmp_path, capsys):
        images = (gen_dir / "images.jsonl").read_text().splitlines()
        (tmp_path / "a.jsonl").write_text(images[0] + "\n")
        (tmp_path / "b.jsonl").write_text(images[1] + "\n")
        idx = tmp_path / "idx.psmi"
        code, _, _ = run_cli(capsys, "build-psmi", "--vocab", str(gen_dir / "vocabulary.jsonl"),
                             "--mu0", "0.7", "--out", str(idx))
        assert code == 0
        outputs = []
        for algo, extra in (("smin", []), ("smii", []), ("psmi", ["--index", str(idx)])):
            code, out, _ = run_cli(capsys, "sim", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
                                   "--algo", algo, "--mu0", "0.7",
                                   "--vocab", str(gen_dir / "vocabulary.jsonl"), *extra)
            assert code == 0
            outputs.append(out.strip())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_psmi_on_idless_images_is_precondition_error(self, gen_dir, tmp_path, capsys):
        a = write_single_word_image(tmp_path / "a.jsonl", [1.0] + [0.0] * 7)
        idx = tmp_path / "idx.psmi"
        run_cli(capsys, "build-psmi", "--vocab", str(gen_dir / "vocabulary.jsonl"),
                "--mu0", "0.7", "--out", str(idx))
        code, _, err = run_cli(capsys, "sim", str(a), str(a), "--algo", "psmi",
                               "--index", str(idx))
        assert code == 2


class TestGen:
    def test_writes_all_artifacts(self, gen_dir):
        for name in ("vocabulary.jsonl", "images.jsonl", "queries.jsonl", "truth.json"):
            assert (gen_dir / name).exists()
        truth = json.loads((gen_dir / "truth.json").read_text())
        assert len(truth) == 10

    def test_same_seed_byte_identical(self, gen_dir, tmp_path, capsys):
        out2 = tmp_path / "data2"
        code, _, _ = run_cli(capsys, "gen", "--out", str(out2), "--k", "64", "--dim", "8",
                             "--images", "25", "--words", "8", "--dup-fraction", "0.4",
                             "--rho", "0.1", "--seed", "7")
        assert code == 0
        for name in ("vocabulary.jsonl", "images.jsonl", "queries.jsonl", "truth.json"):
            assert (out2 / name).read_bytes() == (gen_dir / name).read_bytes()

    def test_nan_zipf_is_an_error_line(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "data"), "--zipf", "nan")
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


class TestBenchCommand:
    def test_csv_columns_and_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(capsys, "bench", "--algos", "smin,psmi", "--gamma", "1",
                               "--m", "3", "--n", "3", "--d", "4", "--k", "16",
                               "--mu0", "0.6", "--seed", "1", "--csv", str(out_csv))
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["algo"] for r in rows} == {"smin", "psmi", "psmi-build"}
        assert rows[0].keys() == {"algo", "gamma", "m", "n", "d", "k", "mu0", "seed",
                                  "median_ms", "per_pair_us"}

    def test_stdout_when_no_csv_path(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--algos", "exhaustive-baseline", "--gamma", "1",
                               "--m", "2", "--n", "2", "--d", "3", "--k", "8")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("algo,gamma,m,n,d,k,mu0,seed")

    def test_single_algorithm_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--algos", "smii", "--gamma", "2",
                               "--m", "2", "--n", "2", "--d", "3", "--k", "8")
        assert code == 0 and "smii" in out


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("bench", "--algos", "smii", "--threads", "2"),
        ("build-psmi", "--vocab", "v.jsonl", "--mu0", "0.7", "--out", "i.psmi", "--csv", "x"),
        ("build-psmi", "--vocab", "v.jsonl", "--mu0", "0.7", "--out", "i.psmi", "--seed", "1"),
        ("sim", "a.jsonl", "b.jsonl", "--seed", "1"),
        ("gen", "--out", "data", "--csv", "x"),
        ("quantize", "--features", "f.jsonl", "--vocab", "v.jsonl", "--out", "o.jsonl", "--k", "9"),
        ("quantize", "--features", "f.jsonl", "--vocab", "v.jsonl", "--out", "o.jsonl", "--seed", "5"),
        ("quantize", "--features", "f.jsonl", "--vocab", "v.jsonl", "--out", "o.jsonl",
         "--out-vocab", "w.jsonl"),
        ("sim", "a.jsonl", "a.jsonl", "--algo", "smin", "--index", "/nonexistent.psmi"),
    ])
    def test_flag_not_read_by_subcommand_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("bench", "--m", "4x"),
        ("bench", "--n", "40,"),
        ("eval-hitrate", "--data", "d", "--rho", "0,x"),
        ("bench", "--algos", "smii,bogus"),
    ])
    def test_malformed_comma_list_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "invalid comma-separated" in capsys.readouterr().err


class TestEvalCommand:
    def test_hit_rate_csv(self, gen_dir, tmp_path, capsys):
        out_csv = tmp_path / "hits.csv"
        code, _, _ = run_cli(capsys, "eval-hitrate", "--data", str(gen_dir),
                             "--queries", "5", "--rho", "0,0.5", "--algo", "smii",
                             "--seed", "2", "--csv", str(out_csv))
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["rho"] for r in rows] == ["0", "0.5"]
        assert rows[0]["hit_rate"] == "1"
        assert rows[0]["dataset_size"] == "25"

    def test_missing_truth_exits_one(self, gen_dir, capsys):
        (gen_dir / "truth.json").unlink()
        code, _, err = run_cli(capsys, "eval-hitrate", "--data", str(gen_dir), "--queries", "2",
                               "--rho", "0")
        assert code == 1


class TestQuantizeCommands:
    @pytest.fixture
    def features(self, tmp_path):
        rng = np.random.RandomState(191)
        lines = []
        for i in range(6):
            words = [{"vector": [float(x) for x in rng.standard_normal(4)], "count": 1}
                     for _ in range(rng.randint(4, 9))]
            lines.append(json.dumps({"image_id": f"raw{i}", "words": words}))
        path = tmp_path / "features.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_build_vocab(self, features, tmp_path, capsys):
        out = tmp_path / "vocab.jsonl"
        code, msg, _ = run_cli(capsys, "build-vocab", "--features", str(features),
                               "--k", "4", "--seed", "3", "--out", str(out))
        assert code == 0 and out.exists()
        from vwsim import load_vocabulary
        assert load_vocabulary(out).size == 4

    def test_quantize_against_existing_vocab(self, features, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.jsonl"
        run_cli(capsys, "build-vocab", "--features", str(features), "--k", "4",
                "--seed", "3", "--out", str(vocab_path))
        out = tmp_path / "quantized.jsonl"
        code, _, _ = run_cli(capsys, "quantize", "--features", str(features),
                             "--vocab", str(vocab_path), "--out", str(out))
        assert code == 0
        from vwsim import load_images, load_vocabulary
        dataset = load_images(out, vocab=load_vocabulary(vocab_path))
        assert len(dataset) == 6
        for img in dataset.images:
            assert img.word_ids is not None

    def test_quantize_needs_vocab_or_k(self, features, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["quantize", "--features", str(features), "--out", str(tmp_path / "x.jsonl")])
        assert info.value.code == 2

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize("command", ["build-vocab", "quantize"])
    def test_nonpositive_k_is_an_error_line(self, features, tmp_path, capsys, command, k):
        code, _, err = run_cli(capsys, command, "--features", str(features), "--k", k,
                               "--out", str(tmp_path / "out.jsonl"))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_quantize_fresh_vocab(self, features, tmp_path, capsys):
        out = tmp_path / "quantized.jsonl"
        out_vocab = tmp_path / "fresh.jsonl"
        code, _, _ = run_cli(capsys, "quantize", "--features", str(features), "--k", "3",
                             "--seed", "5", "--out", str(out), "--out-vocab", str(out_vocab),
                             "--weighting", "count")
        assert code == 0 and out.exists() and out_vocab.exists()


class TestBuildPsmiCommand:
    def test_checksum_guard(self, gen_dir, tmp_path, capsys):
        idx = tmp_path / "idx.psmi"
        run_cli(capsys, "build-psmi", "--vocab", str(gen_dir / "vocabulary.jsonl"),
                "--mu0", "0.7", "--out", str(idx))
        other = tmp_path / "other"
        run_cli(capsys, "gen", "--out", str(other), "--k", "64", "--dim", "8",
                "--images", "10", "--words", "6", "--seed", "99")
        images = (other / "images.jsonl").read_text().splitlines()
        (tmp_path / "a.jsonl").write_text(images[0] + "\n")
        code, _, err = run_cli(capsys, "sim", str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl"),
                               "--algo", "psmi", "--vocab", str(other / "vocabulary.jsonl"),
                               "--index", str(idx))
        assert code == 1
        assert "vocabulary" in err
