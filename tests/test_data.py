"""Dataset model, file round-trips, and synthetic generators."""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelbandit.classifiers import ClassifierSpec, fit, predict_arrays
from labelbandit.data import (
    REGIME_LABEL_KIND,
    REGIMES,
    Bag,
    Dataset,
    Instance,
    WeakLabel,
    generate_binary_mil,
    generate_gaussian_blobs,
    generate_multiclass_mil,
    label_set_size_histogram,
    load_dataset,
    save_dataset,
    strip_ground_truth,
    with_proportion_labels,
)
from labelbandit.errors import ParameterError, ParseError, UsageError, ValidationError


def class_means(pool: list[Instance]) -> dict[int, np.ndarray]:
    """Empirical mean of each class in a labeled pool."""
    by_class: dict[int, list[np.ndarray]] = {}
    for inst in pool:
        by_class.setdefault(inst.ground_truth, []).append(inst.features)
    return {cls: np.mean(rows, axis=0) for cls, rows in by_class.items()}


def make_dataset():
    instances = [
        Instance(0, [0.0, 1.0], 0),
        Instance(1, [1.0, 0.5], 1),
        Instance(2, [-1.0, 2.0], 0),
    ]
    bags = [
        Bag(0, [0, 1], WeakLabel.binary(1)),
        Bag(1, [2], WeakLabel.binary(0)),
    ]
    return Dataset(instances, bags, 2, "binary-mil")


def random_dataset(rng, regime):
    if regime == "binary-mil":
        return generate_binary_mil(
            num_bags=int(rng.integers(4, 10)),
            bag_size_range=(1, 5),
            positive_fraction=0.5,
            feature_dim=int(rng.integers(1, 6)),
            class_separation=float(rng.uniform(0, 8)),
            seed=int(rng.integers(0, 2**31)),
        )
    if regime == "multiclass-mil":
        pool = generate_gaussian_blobs(4, 30, 3, 5.0, int(rng.integers(0, 2**31)))
        return generate_multiclass_mil(
            pool, int(rng.integers(3, 8)), (2, 6), {1, 2}, int(rng.integers(0, 2**31))
        )
    return with_proportion_labels(
        generate_binary_mil(6, (2, 5), 0.5, 3, 4.0, int(rng.integers(0, 2**31)))
    )


class TestWeakLabel:
    def test_binary_values(self):
        assert WeakLabel.binary(1).value == 1
        with pytest.raises(ValidationError):
            WeakLabel.binary(2)

    def test_label_set_rejects_negative_class(self):
        with pytest.raises(ValidationError):
            WeakLabel.label_set({0, 1})
        assert WeakLabel.label_set([3, 1]).value == frozenset({1, 3})

    def test_proportion_bounds(self):
        assert WeakLabel.proportion(0.5).value == 0.5
        with pytest.raises(ValidationError):
            WeakLabel.proportion(1.5)

    def test_positive_classes_of_every_kind(self):
        assert WeakLabel.binary(1).positive_classes == {1}
        assert WeakLabel.binary(0).positive_classes == frozenset()
        assert WeakLabel.label_set({2, 4}).positive_classes == {2, 4}
        assert WeakLabel.label_set(()).positive_classes == frozenset()
        assert WeakLabel.proportion(5e-324).positive_classes == {1}
        assert WeakLabel.proportion(0.0).positive_classes == frozenset()
        assert WeakLabel.label_set({2, 4}).max_class_id() == 4


class TestDatasetValidation:
    def test_instance_in_two_bags_names_offender(self):
        instances = [Instance(0, [1.0]), Instance(1, [2.0])]
        bags = [Bag(0, [0, 1], WeakLabel.binary(1)), Bag(1, [1], WeakLabel.binary(0))]
        with pytest.raises(ValidationError, match="instance 1"):
            Dataset(instances, bags, 2, "binary-mil")

    def test_uncovered_instance_rejected(self):
        instances = [Instance(0, [1.0]), Instance(1, [2.0])]
        bags = [Bag(0, [0], WeakLabel.binary(1))]
        with pytest.raises(ValidationError, match="not covered"):
            Dataset(instances, bags, 2, "binary-mil")

    def test_zero_dimensional_features_rejected(self):
        with pytest.raises(ValidationError, match="dimension"):
            Dataset([Instance(0, [])], [Bag(0, [0], WeakLabel.binary(0))], 2, "binary-mil")

    def test_mixed_feature_dims_rejected(self):
        instances = [Instance(0, [1.0]), Instance(1, [1.0, 2.0])]
        bags = [Bag(0, [0, 1], WeakLabel.binary(0))]
        with pytest.raises(ValidationError):
            Dataset(instances, bags, 2, "binary-mil")

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Dataset(
                [Instance(0, [np.nan])], [Bag(0, [0], WeakLabel.binary(0))], 2, "binary-mil"
            )

    @pytest.mark.parametrize(
        "ids, later, message",
        [
            # the first non-finite instance in dataset order, not by id
            ([9, 4, 2, 7], None, "instance 4: non-finite feature value"),
            # a non-finite instance before a duplicate id is named first
            ([9, 4, 2, 4], None, "instance 4: non-finite feature value"),
            # a duplicate id is reported before its own instance's features
            ([9, 9, 2, 4], None, "duplicate instance id 9"),
            # and before a feature dimension that differs
            ([9, 4, 2, 7], [1.0, 2.0], "instance 4: non-finite feature value"),
        ],
    )
    def test_first_non_finite_instance_in_dataset_order_is_named(self, ids, later, message):
        features = [[0.5], [np.inf], [1.5], [np.nan]]
        if later is not None:
            features[2] = later
        instances = [Instance(x, f) for x, f in zip(ids, features)]
        bags = [Bag(0, sorted(set(ids)), WeakLabel.binary(0))]
        with pytest.raises(ValidationError) as info:
            Dataset(instances, bags, 2, "binary-mil")
        assert str(info.value) == message

    def test_weak_label_class_must_fit_num_classes(self):
        instances = [Instance(0, [1.0])]
        bags = [Bag(0, [0], WeakLabel.label_set({4}))]
        with pytest.raises(ValidationError, match="num_classes"):
            Dataset(instances, bags, 3, "multiclass-mil")

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(REGIMES),
        st.lists(st.sampled_from(["binary", "label_set", "proportion"]), min_size=1, max_size=4),
    )
    def test_bag_kinds_must_match_a_built_in_regime(self, regime, kinds):
        """Every regime x weak-label kind: a built-in regime accepts only its
        own kind and names the first bag of another; custom takes any mix."""
        value = {"binary": 1, "label_set": {1}, "proportion": 0.5}
        instances = [Instance(b, [float(b)]) for b in range(len(kinds))]
        bags = [Bag(b, [b], WeakLabel(kind, value[kind])) for b, kind in enumerate(kinds)]
        expected = REGIME_LABEL_KIND.get(regime)
        wrong = [b for b, kind in enumerate(kinds) if expected not in (None, kind)]
        if not wrong:
            assert Dataset(instances, bags, 2, regime).regime == regime
            return
        with pytest.raises(ValidationError, match=rf"^bag {wrong[0]}: regime '{regime}' needs"):
            Dataset(instances, bags, 2, regime)

    def test_bag_partition_property(self):
        rng = np.random.default_rng(0)
        for regime in ("binary-mil", "multiclass-mil", "llp"):
            for _ in range(5):
                ds = random_dataset(rng, regime)
                covered = [i for bag in ds.bags for i in bag.instance_ids]
                assert len(covered) == len(ds.instances)
                assert len(set(covered)) == len(covered)


class TestFileRoundTrip:
    def test_minimal_json_load(self, tmp_path):
        doc = {
            "num_classes": 2,
            "regime": "binary-mil",
            "bags": [
                {
                    "id": 0,
                    "weak_label": {"kind": "binary", "value": 1},
                    "instances": [
                        {"id": 0, "features": [0.5, 1.0], "ground_truth": None},
                        {"id": 1, "features": [1.5, -1.0], "ground_truth": 1},
                    ],
                }
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        ds = load_dataset(path, "json")
        assert ds.num_classes == 2
        assert len(ds.bags) == 1 and ds.bags[0].weak_label.value == 1
        assert ds.instances[0].ground_truth is None
        assert ds.instances[1].ground_truth == 1

    def test_json_bag_of_another_kind_names_the_bag(self, tmp_path):
        doc = {
            "num_classes": 2,
            "regime": "llp",
            "bags": [
                {"id": 3, "weak_label": {"kind": "proportion", "value": 0.5},
                 "instances": [{"id": 0, "features": [0.5]}]},
                {"id": 7, "weak_label": {"kind": "binary", "value": 1},
                 "instances": [{"id": 1, "features": [1.5]}]},
            ],
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="bag 7: regime 'llp' needs 'proportion'"):
            load_dataset(path, "json")

    @pytest.mark.parametrize("regime, text", [("binary-mil", "0.5"), ("llp", "1;2")])
    def test_csv_weak_label_of_another_kind_names_the_bag(self, tmp_path, regime, text):
        path = tmp_path / "mismatch.csv"
        path.write_text(
            f"# num_classes=3 regime={regime}\n"
            f"instance_id,bag_id,weak_label,ground_truth,f0\n0,4,{text},,1.0\n"
        )
        with pytest.raises(ParseError, match=f"bag 4: weak label '{text}'"):
            load_dataset(path, "csv")

    def test_csv_without_regime_takes_it_from_the_kinds(self, tmp_path):
        for kind, text in (("binary", "1"), ("label_set", "1;2"), ("proportion", "0.5")):
            path = tmp_path / f"{kind}.csv"
            path.write_text(f"instance_id,bag_id,weak_label,ground_truth,f0\n0,0,{text},,1.0\n")
            ds = load_dataset(path, "csv")
            assert REGIME_LABEL_KIND[ds.regime] == kind
        path.write_text("instance_id,bag_id,weak_label,ground_truth,f0\n0,0,1,,1.0\n1,1,0.5,,2.0\n")
        assert load_dataset(path, "csv").regime == "custom"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_classes": 2,\n  broken')
        with pytest.raises(ParseError, match="line"):
            load_dataset(path, "json")

    @pytest.mark.parametrize("regime", ["binary-mil", "multiclass-mil", "llp"])
    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_round_trip_equality(self, tmp_path, regime, format):
        rng = np.random.default_rng(42)
        for trial in range(4):
            ds = random_dataset(rng, regime)
            path = tmp_path / f"{regime}-{trial}.{format}"
            save_dataset(ds, path, format)
            assert load_dataset(path, format) == ds

    def test_csv_label_set_serialization(self, tmp_path):
        pool = generate_gaussian_blobs(5, 20, 2, 6.0, 0)
        ds = generate_multiclass_mil(pool, 4, (3, 6), {1, 3, 4}, 0)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path, "csv")
        body = path.read_text()
        sets = [b.weak_label.value for b in ds.bags]
        biggest = max(sets, key=len)
        assert ";".join(str(i) for i in sorted(biggest)) in body

    def test_csv_round_trip_preserves_missing_ground_truth(self, tmp_path):
        ds = strip_ground_truth(make_dataset())
        path = tmp_path / "ds.csv"
        save_dataset(ds, path, "csv")
        again = load_dataset(path, "csv")
        assert all(i.ground_truth is None for i in again.instances)
        assert again == ds

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        ds = make_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path, "csv")
        # a blank line after the column header and after every row
        comment, *lines = path.read_text().splitlines(keepends=True)
        path.write_text(comment + "\n".join(lines) + "\n\n")
        assert path.read_text().count("\n\n") == len(lines) == 4
        assert load_dataset(path, "csv") == ds

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(["json", "csv"]))
    def test_round_trip_property(self, tmp_path_factory, data, format):
        dataset = data.draw(datasets())
        path = tmp_path_factory.getbasetemp() / f"round-trip.{format}"
        save_dataset(dataset, path, format)
        again = load_dataset(path, format)
        assert again == dataset
        # == compares floats by value; the bytes also keep -0.0's sign
        assert [i.features.tobytes() for i in again.instances] == [
            i.features.tobytes() for i in dataset.instances
        ]
        assert [b.weak_label.kind for b in again.bags] == [b.weak_label.kind for b in dataset.bags]

    @pytest.mark.parametrize(
        "format, edit, bad",
        [
            ("json", lambda doc: doc.update(num_classes="two"), "'two'"),
            ("json", lambda doc: doc["bags"][0]["instances"][0].update(id="x"), "'x'"),
            ("json", lambda doc: doc["bags"][0]["instances"][0].update(features=["a"]), "'a'"),
            ("json", lambda doc: doc["bags"][0].update(
                weak_label={"kind": "label_set", "value": ["a"]}), "'a'"),
            ("json", lambda doc: doc["bags"][0].update(
                weak_label={"kind": "proportion", "value": "x"}), "'x'"),
            ("csv", "# num_classes=two regime=binary-mil\n", "'two'"),
        ],
        ids=["num-classes", "instance-id", "feature", "label-set", "proportion", "csv-header"],
    )
    def test_malformed_value_is_a_parse_error_naming_the_file(self, tmp_path, format, edit, bad):
        path = tmp_path / f"ds.{format}"
        save_dataset(make_dataset(), path, format)
        if format == "json":
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
        else:
            path.write_text(edit + path.read_text().split("\n", 1)[1])
        with pytest.raises(ParseError, match=re.escape(str(path)) + f".*{bad}"):
            load_dataset(path, format)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["json", "csv"]))
    def test_one_value_replaced_by_a_string_loads_or_is_a_usage_error(
        self, tmp_path_factory, data, format
    ):
        """Any one value of a saved file (in JSON any node, containers too; in
        CSV a header value or a cell) replaced by a string either loads or
        raises a UsageError, never another exception."""
        path = tmp_path_factory.getbasetemp() / f"one-string.{format}"
        save_dataset(data.draw(datasets()), path, format)
        text = st.text(max_size=4) | st.sampled_from(["x", "two", "", "1", "0.5", "1;a", "-1"])
        if format == "json":
            doc = json.loads(path.read_text())
            nodes = list(json_nodes(doc))
            parent, key = data.draw(st.sampled_from(nodes))
            parent[key] = data.draw(text)
            path.write_text(json.dumps(doc))
        else:
            comment, *rows = path.read_text().splitlines()
            tokens = comment[1:].split()
            cells = [(None, t) for t in range(len(tokens))]
            cells += [(r, c) for r in range(1, len(rows)) for c in range(len(rows[r].split(",")))]
            row, col = data.draw(st.sampled_from(cells))
            value = data.draw(text.filter(lambda v: "\n" not in v and "\r" not in v))
            if row is None:
                tokens[col] = tokens[col].partition("=")[0] + "=" + value
                comment = "# " + " ".join(tokens)
            else:
                parsed = next(csv.reader([rows[row]]))
                parsed[col] = value
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="").writerow(parsed)
                rows[row] = buffer.getvalue()
            path.write_text("\n".join([comment, *rows]) + "\n")
        try:
            load_dataset(path, format)
        except UsageError:
            pass

    def test_generator_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(generate_binary_mil(8, (2, 4), 0.5, 3, 5.0, 7), a)
        save_dataset(generate_binary_mil(8, (2, 4), 0.5, 3, 5.0, 7), b)
        assert a.read_bytes() == b.read_bytes()


class TestBinaryGenerator:
    def test_two_bag_forced_case(self):
        ds = generate_binary_mil(2, (1, 1), 0.5, 2, 10.0, 0)
        by_label = {b.weak_label.value: b for b in ds.bags}
        truth = ds.ground_truth_map()
        assert truth[by_label[1].instance_ids[0]] == 1
        assert truth[by_label[0].instance_ids[0]] == 0

    def test_positive_bags_contain_a_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds = generate_binary_mil(10, (1, 6), 0.4, 3, 3.0, int(rng.integers(2**31)))
            truth = ds.ground_truth_map()
            for bag in ds.bags:
                positives = [i for i in bag.instance_ids if truth[i] == 1]
                if bag.weak_label.value == 1:
                    assert positives
                else:
                    assert not positives

    def test_infeasible_positive_fraction(self):
        with pytest.raises(ParameterError):
            generate_binary_mil(2, (1, 2), 0.01, 2, 5.0, 0)

    def test_supervised_oracle_separates_at_six_sigma(self):
        ds = generate_binary_mil(50, (3, 10), 0.5, 5, 6.0, 0)
        X = np.stack([i.features for i in ds.instances])
        y = np.array([i.ground_truth for i in ds.instances])
        model = fit(ClassifierSpec("linear-svm", 2), X, y, seed=0)
        labels, _ = predict_arrays(model, X)
        assert (labels == y).mean() >= 0.99


class TestBlobGenerator:
    def test_two_instances_distinct_classes(self):
        pool = generate_gaussian_blobs(2, 1, 2, 5.0, 0)
        assert {i.ground_truth for i in pool} == {0, 1}

    def test_sample_means_near_generator_means(self):
        per_class = 400
        pool = generate_gaussian_blobs(3, per_class, 4, 9.0, 123)
        means = class_means(pool)
        gaps = [
            np.linalg.norm(means[a] - means[b])
            for a in means
            for b in means
            if a < b
        ]
        # separation is the minimum pairwise distance of the exact means;
        # sample means sit within 3 sigma / sqrt(n) of them
        tolerance = 2 * 3 / np.sqrt(per_class)
        assert min(gaps) >= 9.0 - tolerance

    def test_zero_separation_is_degenerate_but_valid(self):
        pool = generate_gaussian_blobs(3, 5, 2, 0.0, 0)
        assert len(pool) == 15


class TestMulticlassGenerator:
    def test_label_set_matches_positive_contents(self):
        rng = np.random.default_rng(5)
        pool = generate_gaussian_blobs(6, 40, 3, 4.0, 8)
        ds = generate_multiclass_mil(pool, 30, (4, 9), {1, 2, 3}, 9)
        truth = ds.ground_truth_map()
        for bag in ds.bags:
            present = {truth[i] for i in bag.instance_ids} - {0}
            assert bag.weak_label.value == frozenset(present)

    def test_all_negative_bag_has_empty_label_set(self):
        pool = [Instance(i, [float(i)], 0) for i in range(10)]
        pool += [Instance(10 + i, [50.0 + i], 1) for i in range(3)]
        ds = generate_multiclass_mil(pool, 20, (2, 4), {1}, seed=3)
        truth = ds.ground_truth_map()
        for bag in ds.bags:
            if all(truth[i] == 0 for i in bag.instance_ids):
                assert bag.weak_label.value == frozenset()

    def test_label_set_size_histogram_unimodal_interior_mode(self):
        pool = generate_gaussian_blobs(10, 60, 2, 5.0, 21)
        ds = generate_multiclass_mil(pool, 6000, (5, 15), {1, 2, 3, 4, 5}, 22)
        histogram = label_set_size_histogram(ds)
        assert sum(histogram.values()) == 6000
        sizes = sorted(histogram)
        counts = [histogram[s] for s in sizes]
        mode = sizes[int(np.argmax(counts))]
        assert 0 < mode < 5
        peak = int(np.argmax(counts))
        assert all(counts[i] <= counts[i + 1] for i in range(peak))
        assert all(counts[i] >= counts[i + 1] for i in range(peak, len(counts) - 1))

    def test_empty_pool_rejected(self):
        with pytest.raises(ParameterError):
            generate_multiclass_mil([], 5, (2, 3), {1}, 0)


class TestGroundTruthHandling:
    def test_strip_ground_truth(self):
        ds = make_dataset()
        stripped = strip_ground_truth(ds)
        assert all(i.ground_truth is None for i in stripped.instances)
        assert [b.id for b in stripped.bags] == [b.id for b in ds.bags]

    def test_proportion_relabeling(self):
        ds = make_dataset()
        llp = with_proportion_labels(ds)
        assert llp.regime == "llp"
        assert llp.bags[0].weak_label.value == 0.5
        assert llp.bags[1].weak_label.value == 0.0


def json_nodes(node):
    """(container, key) of every value below a JSON document's root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from json_nodes(value)


# awkward finite floats: signed zero, subnormals, the extremes of the range
awkward_floats = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 1e-300]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    """A valid dataset of one built-in regime, instances listed in bag order
    (the order both file formats write and read them in)."""
    regime = draw(st.sampled_from(["binary-mil", "multiclass-mil", "llp"]))
    num_classes = draw(st.integers(2, 6)) if regime == "multiclass-mil" else 2
    dim = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    total, count = sum(sizes), len(sizes)
    ids = draw(st.lists(st.integers(0, 10**12), min_size=total, max_size=total, unique=True))
    bag_ids = draw(st.lists(st.integers(0, 10**6), min_size=count, max_size=count, unique=True))
    if regime == "binary-mil":
        weak = st.integers(0, 1).map(WeakLabel.binary)
    elif regime == "multiclass-mil":
        weak = st.frozensets(st.integers(1, num_classes - 1)).map(WeakLabel.label_set)
    else:
        weak = (st.sampled_from([0.0, -0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)).map(
            WeakLabel.proportion
        )
    instances = [
        Instance(
            iid,
            draw(st.lists(awkward_floats, min_size=dim, max_size=dim)),
            draw(st.none() | st.integers(0, num_classes - 1)),
        )
        for iid in ids
    ]
    bags, start = [], 0
    for bag_id, size in zip(bag_ids, sizes):
        bags.append(Bag(bag_id, ids[start : start + size], draw(weak)))
        start += size
    return Dataset(instances, bags, num_classes, regime)
