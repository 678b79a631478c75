"""Unit tests for repro.core.pattern."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import Pattern
from repro.errors import PatternError


class TestConstruction:
    def test_empty_pattern_is_level_zero(self):
        p = Pattern()
        assert p.level == 0
        assert p.attrs == frozenset()

    def test_items_sorted_canonically(self):
        a = Pattern([("b", 1), ("a", 0)])
        b = Pattern([("a", 0), ("b", 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_attr_rejected(self):
        with pytest.raises(PatternError):
            Pattern([("a", 0), ("a", 1)])

    def test_negative_code_rejected(self):
        with pytest.raises(PatternError):
            Pattern([("a", -1)])

    def test_from_labels(self, toy_schema):
        p = Pattern.from_labels(toy_schema, {"age": "old", "sex": "f"})
        assert p.value_of("age") == 2
        assert p.value_of("sex") == 1

    def test_from_labels_numeric_rejected(self, toy_schema):
        with pytest.raises(PatternError):
            Pattern.from_labels(toy_schema, {"score": "1.0"})


class TestAlgebra:
    def test_drop(self):
        p = Pattern([("a", 0), ("b", 1)])
        assert p.drop("a") == Pattern([("b", 1)])

    def test_drop_missing_attr(self):
        with pytest.raises(PatternError):
            Pattern([("a", 0)]).drop("z")

    def test_drop_all(self):
        p = Pattern([("a", 0), ("b", 1), ("c", 2)])
        assert p.drop_all(["a", "c"]) == Pattern([("b", 1)])

    def test_drop_all_empty(self):
        p = Pattern([("a", 0)])
        assert p.drop_all([]) == p

    def test_with_value_replaces(self):
        p = Pattern([("a", 0)]).with_value("a", 2)
        assert p.value_of("a") == 2

    def test_with_value_adds(self):
        p = Pattern([("a", 0)]).with_value("b", 1)
        assert p.level == 2

    def test_value_of_nondeterministic(self):
        with pytest.raises(PatternError):
            Pattern([("a", 0)]).value_of("b")


class TestDominance:
    def test_dominated_by_generalisation(self):
        region = Pattern([("a", 0), ("b", 1), ("c", 2)])
        subgroup = Pattern([("a", 0), ("c", 2)])
        assert region.is_dominated_by(subgroup)
        assert subgroup.dominates(region)

    def test_not_dominated_with_different_value(self):
        region = Pattern([("a", 0), ("b", 1)])
        other = Pattern([("a", 1)])
        assert not region.is_dominated_by(other)

    def test_every_pattern_dominated_by_empty(self):
        region = Pattern([("a", 0)])
        assert region.is_dominated_by(Pattern())

    def test_self_dominance(self):
        p = Pattern([("a", 0)])
        assert p.is_dominated_by(p)
        assert p.dominates(p)


class TestDistance:
    def test_hamming(self):
        a = Pattern([("a", 0), ("b", 1)])
        b = Pattern([("a", 2), ("b", 1)])
        assert a.hamming_distance(b) == 1
        assert a.hamming_distance(a) == 0

    def test_distance_different_dims_rejected(self):
        # The paper: regions in different dimensions are not comparable.
        a = Pattern([("a", 0)])
        b = Pattern([("b", 1)])
        with pytest.raises(PatternError):
            a.hamming_distance(b)


class TestDatasetHooks:
    def test_mask_and_counts(self, toy_dataset):
        p = Pattern([("age", 0), ("sex", 0)])
        assert p.mask(toy_dataset).sum() == 4
        assert p.counts(toy_dataset) == (4, 0)

    def test_support(self, toy_dataset):
        p = Pattern([("age", 0)])
        assert p.support(toy_dataset) == pytest.approx(4 / 12)

    def test_describe(self, toy_dataset):
        p = Pattern([("age", 0), ("sex", 1)])
        text = p.describe(toy_dataset.schema)
        assert "age=young" in text and "sex=f" in text

    def test_describe_empty(self, toy_dataset):
        assert "entire dataset" in Pattern().describe(toy_dataset.schema)


class TestPickle:
    def test_round_trip(self):
        p = Pattern([("sex", 0), ("race", 1)])
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and back.items == p.items

    def test_unpickled_under_another_hash_seed_hits_a_dict(self):
        """String hashes are salted per process (as in a spawned pool
        worker), so a loaded pattern must hash with the loader's salt."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        key = "Pattern([('race', 1), ('sex', 0)])"

        def run(seed, code, data=None):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
            prelude = "import pickle, sys\nfrom repro.core import Pattern\n"
            return subprocess.run(
                [sys.executable, "-c", prelude + code], input=data, env=env,
                capture_output=True, check=True, timeout=60,
            ).stdout

        blob = run(1, f"sys.stdout.buffer.write(pickle.dumps({key}))")
        out = run(
            2,
            "p = pickle.loads(sys.stdin.buffer.read())\n"
            f"print({{{key}: 'hit'}}.get(p, 'miss'))",
            blob,
        )
        assert out.decode().strip() == "hit"
