import json
import subprocess
import sys

import pytest

from fockheis import oracles
from fockheis.cli import main, parse_partition
from fockheis.errors import InvalidInput
from fockheis.fock import FockVector
from fockheis.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPartitionParsing:
    def test_basic(self):
        assert parse_partition("4,1") == Partition([4, 1])
        assert parse_partition("0") == Partition([])
        assert parse_partition("") == Partition([])

    def test_rejects_non_canonical(self):
        with pytest.raises(InvalidInput):
            parse_partition("1,4")
        with pytest.raises(InvalidInput):
            parse_partition("a,b")


class TestSubcommands:
    def test_partition_decompose(self, capsys):
        code, out, _ = run(capsys, "partition", "decompose", "--eta", "4,1", "--b", "3")
        assert code == 0
        assert json.loads(out) == {"mu": [1, 1], "tau": [1]}

    def test_partition_decompose_empty(self, capsys):
        code, out, _ = run(capsys, "partition", "decompose", "--eta", "0", "--b", "3")
        assert code == 0
        assert json.loads(out) == {"mu": [], "tau": []}

    def test_partition_stats(self, capsys):
        code, out, _ = run(capsys, "partition", "stats", "--eta", "3,1")
        data = json.loads(out)
        assert (data["content"], data["d"], data["transpose"]) == (2, 1, [2, 1, 1])

    def test_heis_modp_vacuum(self, capsys):
        code, out, _ = run(
            capsys, "heis-modp", "--tau", "1", "--b", "2", "--p", "5", "--vacuum"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "terms": [
                {
                    "mu": [2],
                    "coeff": {
                        "monomials": [
                            {"vexp": "0", "c": "1"},
                            {"vexp": "10", "c": "-1"},
                        ]
                    },
                },
                {
                    "mu": [1, 1],
                    "coeff": {
                        "monomials": [
                            {"vexp": "0", "c": "-1"},
                            {"vexp": "10", "c": "1"},
                        ]
                    },
                },
            ]
        }

    def test_lr_with_oracle(self, capsys):
        code, out, _ = run(capsys, "lr", "--mu", "2,1", "--nu", "2,1", "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["oracle_checked"] is True
        assert {"mu": [4, 2], "coeff": "1"} in data["terms"]

    def test_char_table_oracle(self, capsys):
        code, out, _ = run(capsys, "char-table", "--n", "4", "--oracle")
        assert code == 0
        assert json.loads(out)["oracle_checked"] is True

    def test_symfunc_multiply(self, capsys):
        f = json.dumps({"basis": "schur", "terms": [{"mu": [1], "coeff": "1"}]})
        code, out, _ = run(
            capsys, "symfunc", "multiply", "--f", f, "--g", f, "--oracle"
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"mu": [2], "coeff": "1"},
            {"mu": [1, 1], "coeff": "1"},
        ]

    def test_symfunc_plethysm(self, capsys):
        code, out, _ = run(
            capsys, "symfunc", "plethysm", "--tau", "2", "--b", "2", "--oracle"
        )
        data = json.loads(out)
        assert data["terms"] == [
            {"mu": [4], "coeff": "1"},
            {"mu": [3, 1], "coeff": "-1"},
            {"mu": [2, 2], "coeff": "1"},
        ]

    def test_symfunc_plethysm_rational_oracle(self, capsys):
        f = json.dumps({"basis": "schur", "terms": [{"mu": [1], "coeff": "1/2"}]})
        code, out, _ = run(
            capsys, "symfunc", "plethysm", "--f", f, "--b", "2", "--oracle"
        )
        assert code == 0
        data = json.loads(out)
        assert data["oracle_checked"] is True
        assert data["terms"] == [
            {"mu": [2], "coeff": "1/2"},
            {"mu": [1, 1], "coeff": "-1/2"},
        ]

    def test_heis_b_op(self, capsys):
        code, out, _ = run(
            capsys, "heis", "b-op", "--i", "1", "--b", "3", "--vacuum"
        )
        mus = [t["mu"] for t in json.loads(out)["terms"]]
        assert mus == [[3], [2, 1], [1, 1, 1]]

    def test_heis_b_op_oracle(self, capsys):
        code, out, _ = run(
            capsys, "heis", "b-op", "--i", "2", "--b", "2", "--eta", "2,1", "--oracle"
        )
        assert code == 0
        assert json.loads(out)["oracle_checked"] is True

    def test_vector_from_file(self, capsys, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text(
            json.dumps(
                {
                    "terms": [
                        {"mu": [2, 1], "coeff": {"monomials": [{"vexp": "0", "c": "1"}]}}
                    ]
                }
            )
        )
        code, out, _ = run(
            capsys, "heis", "b-op", "--i", "1", "--b", "2", "--x", f"@{path}"
        )
        assert code == 0
        assert json.loads(out)["terms"][0]["mu"] == [4, 1]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            "--output", str(path),
            "partition", "decompose", "--eta", "4,1", "--b", "3",
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text()) == {"mu": [1, 1], "tau": [1]}

    def test_heis_b_tau_oracle(self, capsys):
        code, out, _ = run(
            capsys, "heis", "b-tau", "--tau", "2", "--b", "2", "--eta", "2,1", "--oracle"
        )
        assert code == 0
        assert json.loads(out)["oracle_checked"] is True

    def test_label_image_pos(self, capsys):
        code, out, _ = run(
            capsys,
            "label-image", "pos", "--eta", "3", "--tau", "1", "--a", "1", "--b", "3",
        )
        data = json.loads(out)
        assert [e["label"]["eta"] for e in data["images"]] == [[6], [3, 3]]

    def test_label_image_neg(self, capsys):
        code, out, _ = run(
            capsys,
            "label-image", "neg", "--eta", "1", "--tau", "1", "--a", "-5", "--b", "2",
        )
        data = json.loads(out)
        assert [e["label"]["eta"] for e in data["images"]] == [[1, 1, 1]]

    def test_supports(self, capsys):
        code, out, _ = run(capsys, "supports", "--n", "5", "--b", "2")
        assert json.loads(out) == [
            {"k": 5, "l": 0, "dim": 5},
            {"k": 3, "l": 1, "dim": 4},
            {"k": 1, "l": 2, "dim": 3},
        ]

    def test_stability_interval(self, capsys):
        code, out, _ = run(capsys, "stability-interval", "--z", "0", "--p", "7", "--n", "2")
        assert json.loads(out) == {"lo": -3, "hi": 2}

    def test_stability_unbounded(self, capsys):
        code, out, _ = run(capsys, "stability-interval", "--z", "0", "--p", "7", "--n", "1")
        assert json.loads(out) == {"lo": None, "hi": None}

    def test_verma_hilbert(self, capsys):
        code, out, _ = run(
            capsys, "verma-hilbert", "--eta", "2", "--m", "0", "--max-deg", "5", "--oracle"
        )
        data = json.loads(out)
        assert data["coeffs"] == [1, 1, 2, 2, 3, 3]

    def test_pipeline_unit_table(self, capsys):
        code, out, _ = run(
            capsys,
            "pipeline", "--eta", "2", "--a", "1", "--b", "2", "--p", "5", "--unit-table",
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"][0]["mu"] == [2]

    def test_pipeline_table_json(self, capsys):
        table = json.dumps(
            {
                "entries": [
                    {
                        "mu": [],
                        "vector": {
                            "terms": [
                                {
                                    "mu": [],
                                    "coeff": {"monomials": [{"vexp": "0", "c": "1"}]},
                                }
                            ]
                        },
                    }
                ]
            }
        )
        code, out, _ = run(
            capsys,
            "pipeline", "--eta", "3", "--a", "1", "--b", "3", "--p", "5",
            "--table", table,
        )
        assert code == 0
        mus = [t["mu"] for t in json.loads(out)["terms"]]
        assert mus == [[3], [2, 1], [1, 1, 1]]


RATIONAL_X = json.dumps(
    {
        "terms": [
            {"mu": [2, 1], "coeff": {"monomials": [{"vexp": "0", "c": "1/2"}, {"vexp": "1/2", "c": "-3"}]}},
            {"mu": [1], "coeff": {"monomials": [{"vexp": "1", "c": "2"}]}},
            {"mu": [3], "coeff": {"monomials": [{"vexp": "3/2", "c": "-1"}]}},
        ]
    }
)

# the class of the empty partition at v^{3/2}: the pipeline shifts its
# output back to v^0
SHIFTED_TABLE = json.dumps(
    {
        "entries": [
            {
                "mu": [],
                "vector": {"terms": [{"mu": [], "coeff": {"monomials": [{"vexp": "3/2", "c": "2"}]}}]},
            }
        ]
    }
)


class TestKoszulOracle:
    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize(
        "argv",
        [
            ["heis-modp", "--tau", "2,1", "--p", "5", "--x", RATIONAL_X],
            ["heis-modp", "--tau", "2", "--p", "7", "--eta", "3,1"],
            ["pipeline", "--eta", "7,5,2", "--a", "1", "--p", "5", "--unit-table"],
            ["pipeline", "--eta", "6", "--a", "5", "--p", "7", "--table", SHIFTED_TABLE],
        ],
        ids=["heis-modp-rational", "heis-modp-basis", "pipeline", "pipeline-shifted"],
    )
    def test_oracle_agrees(self, capsys, argv, b):
        code, plain, _ = run(capsys, *argv, "--b", str(b))
        assert code == 0
        code, out, _ = run(capsys, *argv, "--b", str(b), "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data.pop("oracle_checked") is True
        assert data == json.loads(plain) and data["terms"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["heis-modp", "--tau", "1", "--b", "2", "--p", "5", "--eta", "1"],
            ["pipeline", "--eta", "3", "--a", "1", "--b", "2", "--p", "5", "--unit-table"],
        ],
        ids=["heis-modp", "pipeline"],
    )
    def test_mismatch_is_3(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(oracles, "heis_modp_koszul", lambda *args: FockVector.vacuum())
        code, out, err = run(capsys, *argv, "--oracle")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "oracle mismatch"


class TestExitCodes:
    def test_input_error_is_2(self, capsys):
        code, _, err = run(capsys, "partition", "stats", "--eta", "1,3")
        assert code == 2
        assert "error" in json.loads(err)

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "stability-interval", "--z", "3", "--p", "7", "--n", "2")
        assert code == 3
        assert "error" in json.loads(err)

    def test_missing_vector_file_is_2(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent.json"
        code, out, err = run(
            capsys, "heis-modp", "--tau", "1", "--b", "2", "--p", "7", "--x", f"@{missing}"
        )
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("m", ["x", "1/0"])
    def test_malformed_m_is_2(self, capsys, m):
        for argv in (
            ["label-image", "pos", "--eta", "3", "--tau", "1", "--a", "1", "--b", "3"],
            ["verma-hilbert", "--eta", "2", "--max-deg", "3"],
        ):
            code, out, err = run(capsys, *argv, "--m", m)
            assert code == 2 and out == ""
            assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["heis", "b-op", "--i", "1", "--b", "2", "--x",
             '{"terms":[{"mu":[1],"coeff":{"monomials":[{"vexp":"1/0","c":"1"}]}}]}'],
            ["symfunc", "plethysm", "--b", "2", "--f",
             '{"basis":"schur","terms":[{"mu":[1],"coeff":"1/0"}]}'],
        ],
        ids=["vector", "symfunc"],
    )
    def test_zero_denominator_in_json_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("part", ['"a"', "1.5", "true"], ids=["string", "float", "bool"])
    @pytest.mark.parametrize(
        "argv, template",
        [
            (["heis", "b-op", "--i", "1", "--b", "2", "--x"],
             '{"terms":[{"mu":[%s],"coeff":{"monomials":[{"vexp":"0","c":"1"}]}}]}'),
            (["symfunc", "plethysm", "--b", "2", "--f"],
             '{"basis":"schur","terms":[{"mu":[%s],"coeff":"1"}]}'),
        ],
        ids=["vector", "symfunc"],
    )
    def test_non_integer_part_in_json_is_2(self, capsys, argv, template, part):
        code, out, err = run(capsys, *argv, template % part)
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "table",
        [
            '{"entries":[{"mu":["a"],"vector":{"terms":[]}}]}',
            '{"entries":[{"mu":[1.5],"vector":{"terms":[]}}]}',
            '{"entries":[{"mu":[true],"vector":{"terms":[]}}]}',
            '{"entries":[{"mu":5,"vector":{"terms":[]}}]}',
            '{"entries":[{"vector":{"terms":[]}}]}',
            '{"rows":[]}',
            '[1]',
        ],
        ids=["string", "float", "bool", "not-a-list", "no-mu", "no-entries", "not-an-object"],
    )
    def test_malformed_table_is_2(self, capsys, table):
        code, out, err = run(
            capsys, "pipeline", "--eta", "2", "--a", "1", "--b", "2", "--p", "5", "--table", table
        )
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["heis-modp", "--tau", "1", "--b", "2", "--vacuum"],
            ["pipeline", "--eta", "4", "--a", "1", "--b", "2", "--unit-table"],
            ["pipeline", "--eta", "1", "--a", "1", "--b", "2", "--unit-table"],
        ],
        ids=["heis-modp", "pipeline", "pipeline-coprime"],
    )
    def test_composite_p_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--p", "4")
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    def test_large_prime_stability_interval(self, capsys):
        # 10^18 + 3 is prime; trial division up to its square root does not finish
        code, out, _ = run(
            capsys, "stability-interval", "--z", "0", "--p", "1000000000000000003", "--n", "2"
        )
        assert code == 0
        assert json.loads(out) == {"lo": -500000000000000001, "hi": 500000000000000000}

    def test_label_image_neg_m_off_lattice_is_2(self, capsys):
        argv = ["--eta", "1", "--m", "1/3", "--tau", "1", "--b", "2"]
        for side, a in (("pos", "1"), ("neg", "-5")):
            code, out, err = run(capsys, "label-image", side, *argv, "--a", a)
            assert code == 2 and out == ""
            assert "(1/2)Z" in json.loads(err)["error"]

    def test_missing_table_is_3(self, capsys):
        code, _, err = run(
            capsys, "pipeline", "--eta", "2", "--a", "1", "--b", "2", "--p", "5",
            "--table", json.dumps({"entries": []}),
        )
        assert code == 3


class TestDeterminismAndJobs:
    def test_byte_identical_runs(self):
        cmd = [
            sys.executable, "-m", "fockheis.cli",
            "heis-modp", "--tau", "2", "--b", "2", "--p", "3", "--eta", "2,1",
        ]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b

