"""Engine operator tests: stats/sketches, keyed checks, dedup,
similarity, text, windows, drift, resumable runs."""

import datetime
import glob
import os

import numpy as np
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

SF = "/root/testdata/sf0.001"


def _ray():
    import ray

    return ray


def test_column_stats_documents():
    from json_schema_ray.engine.stats import column_stats

    ds = _ray().data.read_parquet(f"{SF}/documents.parquet")
    t = column_stats(ds, with_tdigest=True).to_pylist()
    by_col = {r["column"]: r for r in t}
    assert by_col["doc_id"]["count"] == 500
    assert by_col["doc_id"]["null_count"] == 0
    # exact distinct is 500; HLL should be within 5%
    assert abs(by_col["doc_id"]["approx_distinct"] - 500) <= 25
    assert by_col["n_chars"]["num_min"] >= 0
    assert by_col["text"]["len_mean"] > 0
    assert "p50" in by_col["n_chars"]


def test_hll_accuracy_and_merge():
    from json_schema_ray.state.sketches import HyperLogLog, hash_ints

    a, b = HyperLogLog(), HyperLogLog()
    a.add_hashed(hash_ints(np.arange(0, 60_000, dtype=np.int64)))
    b.add_hashed(hash_ints(np.arange(30_000, 100_000, dtype=np.int64)))
    m = HyperLogLog.deserialize(a.merge(b).serialize())
    assert abs(m.estimate() - 100_000) / 100_000 < 0.05


def test_tdigest_quantiles():
    from json_schema_ray.state.sketches import TDigest

    rng = np.random.default_rng(1)
    data = rng.normal(50, 10, 100_000)
    parts = [TDigest() for _ in range(16)]
    for i, p in enumerate(parts):
        p.add(data[i::16])
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    for q in (0.5, 0.95):
        assert abs(merged.quantile(q) - np.quantile(data, q)) < 0.5


def test_duplicate_keys_and_ordering():
    from json_schema_ray.engine.keys import (
        duplicate_keys, turn_ordering_violations)
    from json_schema_ray.sources.transcripts import generate_transcripts

    t = generate_transcripts(2000)
    dup = t.slice(5, 3)
    ds = _ray().data.from_arrow(pa.concat_tables([t, dup])).repartition(4)
    dups = duplicate_keys(ds, ["conv_id", "turn_idx"]).take_all()
    assert len(dups) == 3
    assert all(d["cnt"] == 2 for d in dups)

    ord_v = turn_ordering_violations(ds).take_all()
    assert {v["error_type"] for v in ord_v} == {"duplicate_turn"}


def test_ordering_one_hot_conversation_spans_every_block():
    """One conversation owning the whole corpus (spans every block
    after the sort): the partial-based stitch must find exactly the
    brute-force violation set with O(blocks) driver state, including
    gaps/dups landing on block boundaries."""
    from json_schema_ray.engine.keys import (
        _check_sorted_run, turn_ordering_violations)

    n = 200_000
    turns = np.arange(n, dtype=np.int64)
    turns[50_000:] += 5            # a gap
    turns[120_000] = turns[119_999]  # a duplicate
    ts = np.sort(np.random.default_rng(3).integers(
        0, 10**9, size=n)).astype(np.int64)
    ts[70_000] = 0                 # a ts regression
    t = pa.table({
        "conv_id": pa.array(["hot"] * n, pa.string()),
        "turn_idx": pa.array(turns, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    got = sorted((r["error_type"], r["message"]) for r in
                 turn_ordering_violations(
                     _ray().data.from_arrow(t).repartition(16))
                 .take_all())
    want_rows: list = []
    order = np.lexsort((ts, turns))
    _check_sorted_run("hot", turns[order], ts[order], want_rows)
    want = sorted((e, m) for _, e, m in set(want_rows))
    assert got == want
    assert {"duplicate_turn", "turn_gap", "ts_out_of_order"} \
        <= {e for e, _ in got}


def test_referential_violations():
    from json_schema_ray.engine.keys import referential_violations

    orders = _ray().data.from_arrow(pa.table({
        "o_id": pa.array([1, 2, 3, 4], pa.int64()),
        "cust": pa.array([10, 20, 99, None], pa.int64()),
    }))
    cust = _ray().data.from_arrow(pa.table({
        "c_id": pa.array([10, 20, 30], pa.int64())}))
    bad = referential_violations(orders, "cust", cust, "c_id").take_all()
    assert [r["o_id"] for r in bad] == [3]


def test_exact_dedup():
    from json_schema_ray.engine.dedup import exact_dedup

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["a", "b", "a", "c", "b"], pa.string()),
    })
    ds = _ray().data.from_arrow(t).repartition(2)
    survivors = exact_dedup(ds, ["text"], "id").take_all()
    assert sorted(r["id"] for r in survivors) == [1, 2, 4]


def test_minhash_finds_near_duplicates():
    from json_schema_ray.engine.dedup import minhash_dedup_pairs

    words = [f"word{i}" for i in range(60)]
    base = " ".join(words)
    nearly_words = list(words)
    nearly_words[30] = "changed"  # one word differs -> high Jaccard
    nearly = " ".join(nearly_words)
    different = " ".join(f"other{i}" for i in range(60))
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([base, nearly, different], pa.string()),
    })
    ds = _ray().data.from_arrow(t)
    pairs = minhash_dedup_pairs(ds, "doc_id", threshold=0.5)
    got = {(a, b) for a, b in zip(pairs["id_a"].to_pylist(),
                                  pairs["id_b"].to_pylist())}
    assert (1, 2) in got
    assert (1, 3) not in got and (2, 3) not in got


def test_simhash_close_for_similar_docs():
    from json_schema_ray.engine.dedup import SimHasher

    h = SimHasher("id")
    a = h.signature("the quick brown fox jumps over the lazy dog " * 5)
    b = h.signature("the quick brown fox jumps over the sleepy dog " * 5)
    c = h.signature("completely different content about spark engines")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac


def test_knn_bruteforce_matches_numpy():
    from json_schema_ray.engine.similarity import knn_bruteforce

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ds = _ray().data.read_parquet(f"{SF}/embeddings.parquet")
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)

    res = knn_bruteforce(ds, q, k=5, exclude_ids={0})

    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    scores = mn @ qn
    keep = ids != 0
    order = sorted(zip(-scores[keep], ids[keep]))[:5]
    expected = [int(i) for _, i in order]
    assert res["vec_id"].to_pylist() == expected


def test_knn_lsh_mostly_agrees_with_bruteforce():
    from json_schema_ray.engine.similarity import knn_bruteforce, knn_lsh

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    q = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    ds = _ray().data.read_parquet(f"{SF}/embeddings.parquet")
    exact = set(knn_bruteforce(ds, q, k=10)["vec_id"].to_pylist())
    approx = set(knn_lsh(_ray().data.read_parquet(
        f"{SF}/embeddings.parquet"), q, k=10)["vec_id"].to_pylist())
    # approximate: expect meaningful overlap, not exactness
    assert len(exact & approx) >= 3


def test_token_counts_and_quality():
    from json_schema_ray.engine.text import quality_scores, token_counts

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["one two  three", ""], pa.string())})
    ds = _ray().data.from_arrow(t)
    rows = token_counts(ds).take_all()
    assert [r["n_tokens"] for r in rows] == [3, 0]

    rows = quality_scores(_ray().data.from_arrow(t)).take_all()
    assert 0 <= rows[0]["quality_score"] <= 1


def test_fingerprints_stable_and_discriminative():
    from json_schema_ray.engine.text import fingerprint_batch

    t = pa.table({"text": pa.array(
        ["some repeated content here " * 4,
         "some repeated content here " * 4,
         "totally different words entirely " * 4], pa.string())})
    fp = fingerprint_batch(t)["fingerprint"].to_pylist()
    assert fp[0] == fp[1]
    assert fp[0] != fp[2]


def test_sessionize_counts():
    from json_schema_ray.engine.window import sessionize_counts

    base = 1_700_000_000_000_000
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "ts": pa.array([base, base + 10_000_000,
                        base + 10_000_000_000, base], pa.timestamp("us")),
    })
    ds = _ray().data.from_arrow(t)
    rows = {r["user_id"]: r for r in
            sessionize_counts(ds, gap_seconds=1800.0).take_all()}
    assert rows[1]["n_sessions"] == 2  # 10000s gap > 1800s
    assert rows[2]["n_sessions"] == 1


def test_shared_fingerprint_pairs_matches_bruteforce():
    """Cross-doc repeated-span candidates vs a driver-side replay:
    duplicated bases, unique docs, a None text and a sub-window doc,
    multiblock input."""
    from json_schema_ray.engine.text import (_rolling_hashes_batch,
                                             shared_fingerprint_pairs)

    rng = np.random.default_rng(60)
    base = ["the quick brown fox jumps over the lazy dog " * 3,
            "lorem ipsum dolor sit amet consectetur adipiscing " * 2,
            "pack my box with five dozen liquor jugs today ok " * 2]
    texts = []
    for i in range(120):
        t = base[i % 3]
        if i % 7 == 0:
            t = t + f" unique suffix {i}"
        elif i % 5 == 0:
            t = (f"prefix {i} " + "".join(
                chr(97 + c) for c in rng.integers(0, 26, 40)))
        texts.append(t)
    texts[10] = None
    texts[11] = "short"
    t = pa.table({"doc_id": pa.array(range(120), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(5)
    out = shared_fingerprint_pairs(ds)
    got = sorted(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist(),
                     out["n_shared"].to_pylist()))

    datas = [None if x is None else
             np.frombuffer(x.encode(), np.uint8) for x in texts]
    hs = _rolling_hashes_batch(datas, 16)
    mins = {i: set(np.unique(h)[:4].tolist())
            for i, h in enumerate(hs) if h is not None and len(h)}
    want = []
    ks = sorted(mins)
    for ai, a in enumerate(ks):
        for b in ks[ai + 1:]:
            n = len(mins[a] & mins[b])
            if n:
                want.append((a, b, n))
    assert got == sorted(want)
    assert len(got) > 100  # the duplicated bases must actually pair


def test_transition_violations_matches_bruteforce():
    """Protocol validation over ordered per-key sequences vs a
    driver-side replay: restricted from-labels, open-world labels,
    a start set, NULL labels, multiblock input, and order==tiebreak
    aliasing."""
    from json_schema_ray.engine.keys import transition_violations

    rng = np.random.default_rng(58)
    n = 3000
    labels = np.array(["a", "b", "c", "d"], dtype=object)
    lab = labels[rng.integers(0, 4, size=n)]
    lab[rng.random(n) < 0.03] = None
    keys = rng.integers(0, 40, size=n)
    t = pa.table({
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(np.arange(n), pa.int64()),
        "lab": pa.array(lab.tolist(), pa.string()),
    })
    allowed = {"a": {"b", "c"}, "c": {"a"}}
    start = {"a", "d"}
    ds = _ray().data.from_arrow(t).repartition(6)
    out = transition_violations(ds, "k", "o", "lab", allowed,
                                tiebreak="o", start=start)
    got = sorted((r["k"], r["o"], r["prev_label"], r["lab"])
                 for r in out.take_all())

    # driver replay
    want = []
    by_key: dict = {}
    for k, o, v in sorted(zip(keys.tolist(), range(n), lab.tolist())):
        prev = by_key.get(k, ("__first",))
        if prev == ("__first",):
            if v not in start:
                want.append((k, o, None, v))
        elif prev[0] in allowed and v not in allowed[prev[0]]:
            want.append((k, o, prev[0], v))
        by_key[k] = (v,)
    assert got == sorted(want)
    assert len(got) > 0


def test_transition_violations_dictionary_label_column():
    """A dictionary-encoded label column must produce the same
    violations as the plain-string one (the current-label side used
    to hit pc.is_in uncast while the lag side was cast to string)."""
    from json_schema_ray.engine.keys import transition_violations

    rng = np.random.default_rng(59)
    n = 800
    labels = np.array(["a", "b", "c"], dtype=object)
    lab = labels[rng.integers(0, 3, size=n)].tolist()
    keys = rng.integers(0, 10, size=n)
    base = {
        "k": pa.array(keys, pa.int64()),
        "o": pa.array(np.arange(n), pa.int64()),
    }
    t_str = pa.table({**base, "lab": pa.array(lab, pa.string())})
    t_dict = pa.table({**base, "lab": pa.array(lab, pa.string())
                       .dictionary_encode()})
    allowed = {"a": {"b"}, "b": {"a", "c"}}
    kw = dict(order="o", label="lab", allowed=allowed, tiebreak="o",
              start={"a"})
    got_str = sorted((r["k"], r["o"], r["prev_label"], str(r["lab"]))
                     for r in transition_violations(
                         _ray().data.from_arrow(t_str).repartition(4),
                         "k", **kw).take_all())
    got_dict = sorted((r["k"], r["o"], r["prev_label"], str(r["lab"]))
                      for r in transition_violations(
                          _ray().data.from_arrow(t_dict).repartition(4),
                          "k", **kw).take_all())
    assert got_str == got_dict
    assert len(got_str) > 0


def test_window_ops_unit_invariant():
    """The same instants expressed as timestamp("us"), ("ms") and
    ("s") columns must sessionize and window-aggregate identically —
    the raw int64 view of a timestamp is in the column's OWN unit
    (regression: gap/window math used to assume microseconds, so an
    ms column got a 1000x-too-small gap)."""
    from json_schema_ray.engine.window import (hopping_window_counts,
                                               sessionize_counts,
                                               tumbling_window_counts)

    rng = np.random.default_rng(57)
    n = 500
    base_s = 1_700_000_000
    secs = base_s + rng.integers(0, 5 * 86_400, size=n)

    def run_all(unit, scale):
        t = pa.table({
            "user_id": pa.array(rng.integers(0, 8, size=n) * 0
                                + np.repeat(np.arange(10), 50)[:n],
                                pa.int64()),
            "ts": pa.array(secs * scale, pa.timestamp(unit)),
            "value": pa.array(np.ones(n)),
        })
        ds = _ray().data.from_arrow(t).repartition(4)
        sess = sorted(
            (r["user_id"], r["n_events"], r["n_sessions"])
            for r in sessionize_counts(ds, gap_seconds=3600.0)
            .take_all())
        tumb = sorted(
            tuple(r.values())
            for r in tumbling_window_counts(
                ds, window_seconds=86_400).to_pylist())
        hop = sorted(
            tuple(r.values())
            for r in hopping_window_counts(
                ds, window_seconds=86_400,
                hop_seconds=43_200).to_pylist())
        return sess, tumb, hop

    want = run_all("us", 1_000_000)
    assert run_all("ms", 1_000) == want
    assert run_all("s", 1) == want


def test_drift_profile_roundtrip_and_psi():
    from json_schema_ray.engine.drift import ReferenceProfile, psi

    assert psi({"a": 50, "b": 50}, {"a": 50, "b": 50}) < 1e-9
    assert psi({"a": 90, "b": 10}, {"a": 10, "b": 90}) > 1.0

    ds = _ray().data.read_parquet(f"{SF}/documents.parquet")
    prof = ReferenceProfile.build(ds, categorical=["lang"],
                                  numeric_or_text=["text"])
    rt = ReferenceProfile.from_json(prof.to_json())
    report = rt.compare(
        _ray().data.read_parquet(f"{SF}/documents.parquet")).to_pylist()
    by_metric = {r["metric"]: r["value"] for r in report}
    assert by_metric["psi"] < 1e-6
    assert by_metric["ks"] < 0.05


def test_categorical_histogram_nullable_column_over_blocks():
    """Four blocks, half of each null: the null keys count as "None"
    and the drift against the same data is zero."""
    from json_schema_ray.engine.drift import (
        ReferenceProfile, categorical_histogram)

    t = pa.table({"tool": [None if i % 2 == 0 else "search"
                           for i in range(400)]})
    ds = _ray().data.from_arrow([t.slice(i * 100, 100) for i in range(4)])
    assert categorical_histogram(ds, "tool") == {"None": 200, "search": 200}
    # an all-null block's key column is typed null
    mixed = _ray().data.from_arrow([
        pa.table({"tool": pa.nulls(3, pa.string())}),
        pa.table({"tool": pa.nulls(2)}),
        pa.table({"tool": ["a", None, "a"]}),
    ])
    assert categorical_histogram(mixed, "tool") == {"None": 6, "a": 2}
    prof = ReferenceProfile.build(ds, categorical=["tool"])
    assert all(r["value"] == 0.0 for r in prof.compare(ds).to_pylist())


def test_resumable_run_skips_done_fragments(tmp_path):
    from json_schema_ray.engine.manifest import run_resumable_validation
    from json_schema_ray.engine.validate import compile_plan_for
    from json_schema_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, VALIDATION_SCHEMA, write_transcripts)

    data_dir = str(tmp_path / "in")
    write_transcripts(data_dir, 3000, violation_rate=0.01, n_files=4)
    files = sorted(glob.glob(os.path.join(data_dir, "*.parquet")))
    plan = compile_plan_for(VALIDATION_SCHEMA, TRANSCRIPT_SCHEMA,
                            key_columns=["conv_id", "turn_idx"])
    out = str(tmp_path / "out")

    first = run_resumable_validation(files[:2], out, plan)
    assert first["fragments"] == 2 and first["skipped"] == 0
    second = run_resumable_validation(files, out, plan)
    assert second["fragments"] == 2 and second["skipped"] == 2
    third = run_resumable_validation(files, out, plan)
    assert third["fragments"] == 0 and third["skipped"] == 4
    # one violations file per fragment, no duplicates on resume
    assert len(os.listdir(os.path.join(out, "violations"))) == 4


def test_multimodal_feature_stage():
    from json_schema_ray.engine.multimodal import (
        deterministic_fake_image_features, extract_features)

    t = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([b"abc", None], pa.binary()),
    })
    ds = _ray().data.from_arrow(t)
    rows = extract_features(
        ds, decode_fn=deterministic_fake_image_features).take_all()
    assert rows[0]["features"] is not None
    assert len(rows[0]["features"]) == 16
    assert rows[1]["features"] is None
    # stub without decode_fn raises NotImplementedError per contract
    from json_schema_ray.engine.multimodal import FeatureExtractor

    fe = FeatureExtractor()
    with pytest.raises(NotImplementedError):
        fe(t)


def test_salted_aggregate_matches_plain():
    from json_schema_ray.engine.relational import (
        grouped_aggregate, salted_aggregate)

    ds = _ray().data.read_parquet(f"{SF}/events.parquet")
    plain = grouped_aggregate(ds, ["event_type"],
                              [("value", "sum"), (None, "count")])
    ds2 = _ray().data.read_parquet(f"{SF}/events.parquet")
    salted = salted_aggregate(ds2, ["event_type"],
                              [("value", "sum"), (None, "count")])
    p = {r["event_type"]: (round(r["value_sum"], 6), r["rows_count"])
         for r in plain.to_pylist()}
    s = {r["event_type"]: (round(r["value_sum"], 6), r["rows_count"])
         for r in salted.to_pylist()}
    assert p == s


def test_tumbling_window_floor_for_negative_ts():
    from json_schema_ray.engine.window import tumbling_window_counts

    day_us = 86400 * 1_000_000
    t = pa.table({
        # one event 1s before epoch, one 1s after: floor() semantics
        # put them in DIFFERENT windows (-day and 0)
        "ts": pa.array([-1_000_000, 1_000_000], pa.timestamp("us")),
        "value": pa.array([1.0, 2.0], pa.float64()),
    })
    out = tumbling_window_counts(_ray().data.from_arrow(t),
                                 window_seconds=86400)
    rows = {r["window_start_us"]: r for r in out.to_pylist()}
    assert set(rows) == {-day_us, 0}
    assert rows[-day_us]["rows_count"] == 1
    assert rows[0]["rows_count"] == 1


def test_minhash_degenerate_empty_docs_no_blowup():
    """10k zero-shingle docs must NOT form a degenerate all-pairs
    bucket (round-1 scale bug): they are dropped from banding, so the
    only verified pair is the real near-duplicate."""
    from json_schema_ray.engine.dedup import minhash_dedup_pairs

    words = [f"word{i}" for i in range(60)]
    base = " ".join(words)
    nearly = " ".join(words[:-1] + ["changed"])
    n_empty = 10_000
    texts = [""] * n_empty + [base, nearly]
    t = pa.table({
        "doc_id": pa.array(list(range(n_empty + 2)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pairs = minhash_dedup_pairs(_ray().data.from_arrow(t), "doc_id",
                                threshold=0.5)
    got = list(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
    assert got == [(n_empty, n_empty + 1)]


def test_shingle_sets_batch_matches_scalar_and_jaccard():
    """The batched shingle kernel and the tagged-merge intersection
    must agree exactly with the scalar shingle_set / ngram_jaccard
    reference on a randomized corpus (incl. empty/None/short docs)."""
    import random

    from json_schema_ray.engine.dedup import (
        _gather_segments, ngram_jaccard, shingle_set,
        shingle_sets_batch)

    rng = random.Random(23)
    vocab = [f"w{i}" for i in range(30)]
    texts = [None, "", "one", "a b c d e",
             "  lead and\ttab\nnewline   runs  ",   # messy whitespace
             "  unicode spaces　here x y z q",
             " \t\n ",                               # whitespace-only
             " ".join(rng.choices(vocab, k=rng.randrange(0, 120)))
             ] + [rng.choice([" ", "  ", "\t", "\n"]).join(
                      rng.choices(vocab, k=rng.randrange(0, 120)))
                  for _ in range(40)]
    offsets, values = shingle_sets_batch(texts, 5)
    for i, t in enumerate(texts):
        ref = shingle_set(t or "", 5)
        got = values[offsets[i]:offsets[i + 1]]
        assert np.array_equal(np.sort(ref), got), (i, t)
    # vectorized pairwise jaccard vs the scalar reference
    n = len(texts)
    ia = np.array([rng.randrange(n) for _ in range(200)])
    ib = np.array([rng.randrange(n) for _ in range(200)])
    va, ta, ca = _gather_segments(offsets, values, ia)
    vb, tb, cb = _gather_segments(offsets, values, ib)
    allv, allt = np.concatenate([va, vb]), np.concatenate([ta, tb])
    order = np.lexsort((allv, allt))
    sv, st = allv[order], allt[order]
    eq = (st[1:] == st[:-1]) & (sv[1:] == sv[:-1])
    inter = np.bincount(st[1:][eq], minlength=len(ia))
    union = ca + cb - inter
    ja = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    for k in range(len(ia)):
        ref = ngram_jaccard(texts[ia[k]] or "", texts[ib[k]] or "", 5)
        assert abs(ja[k] - ref) < 1e-12, (texts[ia[k]], texts[ib[k]])


def test_ngram_jaccard_exact_matches_bruteforce():
    """The shared-shingle exact pipeline must return precisely the
    all-pairs Jaccard >= threshold set (recall is exact: any
    qualifying pair shares a shingle)."""
    import itertools
    import random

    from json_schema_ray.engine.dedup import (
        ngram_jaccard, ngram_jaccard_dedup_pairs)

    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(12)]  # small vocab -> real dups
    texts = [" ".join(rng.choices(vocab, k=rng.randrange(0, 30)))
             for _ in range(60)]
    texts += [texts[0], texts[1] + " extra tail words here"]
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = ngram_jaccard_dedup_pairs(
        _ray().data.from_arrow(t).repartition(4), "doc_id",
        threshold=0.3)
    got = {(a, b): round(j, 9) for a, b, j in
           zip(out["id_a"].to_pylist(), out["id_b"].to_pylist(),
               out["jaccard"].to_pylist())}
    want = {}
    for a, b in itertools.combinations(range(len(texts)), 2):
        if not texts[a].split() or not texts[b].split():
            continue  # zero-shingle docs never pair (documented)
        j = ngram_jaccard(texts[a], texts[b], 5)
        if j >= 0.3:
            want[(a, b)] = round(j, 9)
    assert got == want


def test_simhash_batch_matches_scalar():
    """signatures_batch must be bit-identical to the per-doc scalar
    signature(), incl. None/empty docs and chunk-straddling docs."""
    import random

    from json_schema_ray.engine import dedup as dd
    from json_schema_ray.engine.dedup import SimHasher

    rng = random.Random(31)
    vocab = [f"tok{i}" for i in range(50)]
    texts = [None, "", "single",
             " ".join(rng.choices(vocab, k=rng.randrange(0, 300)))
             ] + [" ".join(rng.choices(vocab, k=rng.randrange(0, 300)))
                  for _ in range(60)]
    sh = SimHasher("doc_id")
    got = sh.signatures_batch(texts)
    want = [sh.signature(t) if t is not None else 0 for t in texts]
    assert got.tolist() == want
    # force the chunked accumulation path with a tiny chunk size
    old = dd._SHINGLE_CHUNK
    dd._SHINGLE_CHUNK = 17
    try:
        got2 = sh.signatures_batch(texts)
    finally:
        dd._SHINGLE_CHUNK = old
    assert got2.tolist() == want


def test_minhash_signatures_batch_matches_scalar():
    """MinHasher.signatures_batch (vectorized Arrow shingle assembly)
    must be bit-identical to the per-doc scalar signature(), incl.
    None/empty/short docs and messy whitespace."""
    import random

    from json_schema_ray.engine.dedup import MinHasher

    rng = random.Random(37)
    vocab = [f"tok{i}" for i in range(50)]
    texts = [None, "", "one two", "  lead\ttab\nnl  ",
             " \t ", "exactly five words in here"
             ] + [rng.choice([" ", "  ", "\t"]).join(
                      rng.choices(vocab, k=rng.randrange(0, 80)))
                  for _ in range(50)]
    mh = MinHasher(n_perm=16, seed=7, shingle_k=5)
    kept, sigs = mh.signatures_batch(texts)
    want_kept, want_sigs = [], []
    for i, t in enumerate(texts):
        s = mh.signature(t) if t is not None else None
        if s is not None:
            want_kept.append(i)
            want_sigs.append(s)
    assert list(kept) == want_kept
    assert np.array_equal(sigs, np.asarray(want_sigs))


def test_minhash_bucket_cap_guards_hot_buckets():
    from json_schema_ray.engine.dedup import minhash_lsh_candidates

    text = " ".join(f"tok{i}" for i in range(40))
    t = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([text] * 10, pa.string()),
    })
    cands = minhash_lsh_candidates(_ray().data.from_arrow(t), "doc_id",
                                   max_bucket=4)
    got = sorted((r["id_a"], r["id_b"]) for r in cands.take_all())
    # only the 4 smallest ids of the (identical-signature) bucket pair
    assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_minhash_bucket_exact_by_default():
    # no max_bucket -> every pair of the 10-member bucket is emitted
    # (the vectorized upper-triangle expansion matches combinations)
    import itertools

    from json_schema_ray.engine.dedup import minhash_lsh_candidates

    text = " ".join(f"tok{i}" for i in range(40))
    t = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([text] * 10, pa.string()),
    })
    cands = minhash_lsh_candidates(_ray().data.from_arrow(t), "doc_id")
    got = sorted((r["id_a"], r["id_b"]) for r in cands.take_all())
    assert got == sorted(itertools.combinations(range(10), 2))


def test_exact_dedup_string_ids_empty_input():
    # empty input + string id column: the empty keeper set must be
    # id-typed or pc.is_in raises on the type mismatch
    from json_schema_ray.engine.dedup import exact_dedup

    t = pa.table({"doc_id": pa.array([], pa.string()),
                  "content": pa.array([], pa.string())})
    out = exact_dedup(_ray().data.from_arrow(t), ["content"], "doc_id")
    assert out.count() == 0


def test_embedding_near_dup_hot_bucket_matches_bruteforce():
    """One LSH bucket holding 10k vectors: the block-wise in-bucket
    pass must match a brute-force numpy oracle exactly (no driver
    accumulation, bounded slabs)."""
    from json_schema_ray.engine.similarity import (
        HyperplaneLSH, _normalize, embedding_near_dup_pairs)

    dim, n_planes, seed = 16, 10, 42
    lsh = HyperplaneLSH(dim, n_planes, seed)
    P = lsh.planes
    rng = np.random.default_rng(0)
    v_par = np.linalg.lstsq(P, np.ones(n_planes), rcond=None)[0]
    null = np.linalg.svd(P)[2][n_planes:]  # (dim - n_planes, dim)
    n_vec = 10_000
    M = v_par[None, :] + rng.standard_normal(
        (n_vec, null.shape[0])) @ null * 2.0
    # planted near-dups: null-space-only perturbations keep the
    # plane margins (and therefore the bucket) EXACTLY unchanged
    M[-3:] = M[:3] + (rng.standard_normal(
        (3, null.shape[0])) @ null) * 1e-3
    buckets = lsh.buckets(_normalize(M))
    assert len(np.unique(buckets)) == 1  # genuinely one hot bucket

    threshold = 0.98
    t = pa.table({
        "vec_id": pa.array(list(range(n_vec)), pa.int64()),
        "embedding": pa.array([row for row in M.tolist()],
                              pa.list_(pa.float64())),
    })
    out = embedding_near_dup_pairs(
        _ray().data.from_arrow(t), threshold=threshold,
        n_planes=n_planes, seed=seed, block_rows=512)
    got = {(r["id_a"], r["id_b"]): r["cosine"] for r in out.take_all()}

    Mn = _normalize(M)
    expected = {}
    for lo in range(0, n_vec, 1000):
        sims = Mn[lo:lo + 1000] @ Mn.T
        ri, ci = np.nonzero(sims >= threshold)
        for i, j in zip(ri, ci):
            gi = lo + i
            if gi < j:
                expected[(gi, int(j))] = sims[i, j]
    assert set(got) == set(expected)
    assert all((40 + k) in got or True for k in [])  # planted included:
    for k in [(0, n_vec - 3), (1, n_vec - 2), (2, n_vec - 1)]:
        assert k in got
    for k, v in got.items():
        assert abs(v - expected[k]) < 1e-9


def test_rolling_hashes_batch_equals_scalar():
    import random
    import string

    from json_schema_ray.engine.text import (
        _rolling_hashes, _rolling_hashes_batch)

    rng = random.Random(7)
    texts = ["", "short", "exactly-16-bytes", "ünïcødé tëxt — multibyte ✓"]
    for _ in range(40):
        n = rng.randrange(0, 400)
        texts.append("".join(rng.choice(string.printable) for _ in range(n)))
    texts.append("x" * 5000)  # long doc forces its own length bucket
    datas = [np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
             for t in texts]
    got = _rolling_hashes_batch(datas, 16)
    for t, g in zip(texts, got):
        ref = _rolling_hashes(t, 16)
        assert np.array_equal(g, ref), t[:40]


def test_range_join_multi_match():
    from json_schema_ray.engine.relational import range_join

    left = pa.table({
        "k": pa.array([1, 1, 2, 3], pa.int64()),
        "t": pa.array([100, 250, 100, 100], pa.timestamp("us")),
        "row": pa.array([0, 1, 2, 3], pa.int64()),
    })
    right = pa.table({
        "rk": pa.array([1, 1, 1, 2], pa.int64()),
        "rt": pa.array([50, 90, 240, 500], pa.timestamp("us")),
        "val": pa.array(["a", "b", "c", "d"], pa.string()),
    })
    out = range_join(_ray().data.from_arrow(left), right, "k", "rk",
                     "t", "rt", before_us=50, after_us=0,
                     value_columns=["val"])
    got = sorted((r["row"], r["val"]) for r in out.take_all())
    # row0: [50,100] -> a,b; row1: [200,250] -> c; row2: no rt in
    # [50,100] for k=2; row3: k=3 absent
    assert got == [(0, "a"), (0, "b"), (1, "c")]


def test_sort_merge_join_matches_arrow_join():
    """Two-big-sides inner equi-join: randomized multiblock corpus
    with null keys, unmatched keys on both sides, duplicate keys
    (cross products) and one hot key spanning blocks — must equal
    pyarrow's hash join exactly."""
    from json_schema_ray.engine.relational import sort_merge_join

    rng = np.random.default_rng(17)
    nl, nr = 5000, 800
    lk = rng.integers(0, 400, size=nl)
    lk[rng.random(nl) < 0.3] = 7  # hot key
    left = pa.table({
        "k": pa.array([None if rng.random() < 0.02 else f"k{v}"
                       for v in lk], pa.string()),
        "lrow": pa.array(np.arange(nl), pa.int64()),
    })
    rk = rng.integers(0, 500, size=nr)
    right = pa.table({
        "rk": pa.array([None if rng.random() < 0.02 else f"k{v}"
                        for v in rk], pa.string()),
        "val": pa.array(np.arange(nr), pa.int64()),
    })
    out = sort_merge_join(
        _ray().data.from_arrow(left).repartition(8),
        _ray().data.from_arrow(right).repartition(4),
        "k", "rk", value_columns=["val"])
    got = sorted((r["lrow"], r["val"]) for r in out.take_all())
    ref = left.join(right.rename_columns(["k", "val"]), keys=["k"],
                    join_type="inner")
    want = sorted(zip(ref["lrow"].to_pylist(), ref["val"].to_pylist()))
    assert got == want
    assert len(want) > nl  # cross products actually exercised

    # LEFT OUTER on the same corpus: unmatched lefts (null keys
    # included) appear exactly once with a null value column
    outl = sort_merge_join(
        _ray().data.from_arrow(left).repartition(8),
        _ray().data.from_arrow(right).repartition(4),
        "k", "rk", value_columns=["val"], how="left")
    gotl = sorted(((r["lrow"], r["val"]) for r in outl.take_all()),
                  key=lambda t: (t[0], t[1] is None, t[1]))
    refl = left.join(right.rename_columns(["k", "val"]), keys=["k"],
                     join_type="left outer")
    wantl = sorted(zip(refl["lrow"].to_pylist(),
                       refl["val"].to_pylist()),
                   key=lambda t: (t[0], t[1] is None, t[1]))
    assert gotl == wantl
    assert len(wantl) > len(want)  # unmatched lefts exercised

    # RIGHT and FULL OUTER: unmatched rights once with null left
    # columns (carry the right key via value_columns to observe it)
    for how, join_type in (("right", "right outer"),
                           ("full", "full outer")):
        outo = sort_merge_join(
            _ray().data.from_arrow(left).repartition(8),
            _ray().data.from_arrow(right).repartition(4),
            "k", "rk", value_columns=["val"], how=how)
        goto = sorted(((r["lrow"], r["val"]) for r in outo.take_all()),
                      key=lambda t: (t[0] is None, t[0] or 0,
                                     t[1] is None, t[1] or 0))
        refo = left.join(right.rename_columns(["k", "val"]),
                         keys=["k"], join_type=join_type)
        wanto = sorted(zip(refo["lrow"].to_pylist(),
                           refo["val"].to_pylist()),
                       key=lambda t: (t[0] is None, t[0] or 0,
                                      t[1] is None, t[1] or 0))
        assert goto == wanto, how


def test_sort_merge_join_single_key_left_only_blocks():
    """Regression: a sort block made entirely of ONE key's left rows
    has zero usable interior rows (the whole block is edge); the
    expansion kernel must not crash on the empty left-index path
    (np.repeat broadcast error seen ~1-in-3 on block-boundary luck).
    A 4000-row single-key left run forces such blocks every time."""
    from json_schema_ray.engine.relational import sort_merge_join

    n = 4000
    left = pa.table({
        "k": pa.array(["hot"] * n + ["m1", "m2"], pa.string()),
        "lrow": pa.array(np.arange(n + 2), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(["m1", "m2", "other"], pa.string()),
        "val": pa.array([10, 20, 30], pa.int64()),
    })
    for how, expect in (
            ("inner", {(n, 10), (n + 1, 20)}),
            ("left", {(i, None) for i in range(n)} | {(n, 10),
                                                      (n + 1, 20)})):
        out = sort_merge_join(
            _ray().data.from_arrow(left).repartition(8),
            _ray().data.from_arrow(right),
            "k", "rk", value_columns=["val"], how=how)
        got = {(r["lrow"], r["val"]) for r in out.take_all()}
        assert got == expect, how


def test_range_and_asof_join_null_string_keys():
    # SQL semantics: null keys never match — and must not crash the
    # np.argsort over an object array mixing None and str
    from json_schema_ray.engine.relational import (
        asof_join_backward, range_join)

    left = pa.table({
        "k": pa.array(["a", None, "b", None], pa.string()),
        "t": pa.array([100, 100, 100, 200], pa.timestamp("us")),
        "row": pa.array([0, 1, 2, 3], pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(["a", None, "b"], pa.string()),
        "rt": pa.array([50, 60, 500], pa.timestamp("us")),
        "val": pa.array(["x", "y", "z"], pa.string()),
    })
    out = range_join(_ray().data.from_arrow(left), right, "k", "rk",
                     "t", "rt", before_us=100, after_us=0,
                     value_columns=["val"])
    got = sorted((r["row"], r["val"]) for r in out.take_all())
    assert got == [(0, "x")]  # null-key rows on both sides drop

    out2 = asof_join_backward(
        _ray().data.from_arrow(left), right, "k", "rk", "t", "rt",
        value_columns=["val"])
    rows = sorted(out2.take_all(), key=lambda r: r["row"])
    assert [r["val"] for r in rows] == ["x", None, None, None]


def test_knn_ivf_exact_with_full_probe_and_decent_recall():
    from json_schema_ray.engine.similarity import (
        knn_bruteforce, knn_ivf)

    rng = np.random.default_rng(3)
    # clustered corpus: 8 well-separated centers
    centers = rng.standard_normal((8, 32)) * 4
    vecs = np.concatenate([
        centers[i] + rng.standard_normal((60, 32)) * 0.5
        for i in range(8)])
    t = pa.table({
        "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    ds = _ray().data.from_arrow(t)
    q = vecs[5]
    exact = knn_bruteforce(ds, q, k=10, exclude_ids={5})
    # full probe == exact
    full = knn_ivf(ds, q, k=10, n_centroids=8, n_probe=8,
                   exclude_ids={5})
    assert full["vec_id"].to_pylist() == exact["vec_id"].to_pylist()
    # single-probe recall on clustered data should still be high
    one = knn_ivf(ds, q, k=10, n_centroids=8, n_probe=1,
                  exclude_ids={5})
    overlap = len(set(one["vec_id"].to_pylist())
                  & set(exact["vec_id"].to_pylist()))
    assert overlap >= 8


def test_hopping_window_counts():
    from json_schema_ray.engine.window import hopping_window_counts

    hour = 3600 * 1_000_000
    t = pa.table({
        "ts": pa.array([0, hour + 1, -1], pa.timestamp("us")),
        "value": pa.array([1.0, 2.0, 4.0], pa.float64()),
    })
    out = hopping_window_counts(_ray().data.from_arrow(t),
                                window_seconds=7200, hop_seconds=3600)
    rows = {r["window_start_us"]: (r["value_sum"], r["rows_count"])
            for r in out.to_pylist()}
    # event@0 -> windows 0, -1h; event@1h -> 1h, 0; event@-1 -> -1h, -2h
    assert rows[0] == (3.0, 2)
    assert rows[-hour] == (5.0, 2)
    assert rows[hour] == (2.0, 1)
    assert rows[-2 * hour] == (4.0, 1)

    with pytest.raises(ValueError):
        hopping_window_counts(_ray().data.from_arrow(t),
                              window_seconds=7000, hop_seconds=3600)


def test_hopping_distinct_counts_matches_brute_force():
    from json_schema_ray.engine.window import hopping_distinct_counts

    hour = 3600 * 1_000_000
    # user 1 twice in the same hour (collapses), user 2 next hour,
    # null entity never counted, negative ts windows still exact,
    # null ts lands in the NULL window group (own distinct count)
    t = pa.table({
        "ts": pa.array([0, 10, hour + 1, -1, 5, None, None],
                       pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 1, None, 7, 7], pa.int64()),
    })
    out = hopping_distinct_counts(
        _ray().data.from_arrow(t).repartition(2), entity="user_id",
        window_seconds=7200, hop_seconds=3600)
    rows = {r["window_start_us"]: r["n_distinct"]
            for r in out.take_all()}
    # brute force: u1@{0,-1h} twice, u1@{-1h,-2h}, u2@{1h,0};
    # u7's two null-ts events collapse into one NULL-window distinct
    assert rows == {0: 2, -hour: 1, hour: 1, -2 * hour: 1, None: 1}


def test_winsorize_by_group_matches_brute_force():
    import math

    from json_schema_ray.engine.rank import winsorize_by_group

    rng = np.random.default_rng(13)
    n = 400
    keys = [f"u{i % 5}" for i in range(n)]
    vals = rng.normal(0, 10, n)
    vals[7] = np.nan  # null value passes through NULL
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(vals, pa.float64()),
                  "id": pa.array(range(n), pa.int64())})
    out = winsorize_by_group(
        _ray().data.from_arrow(t).repartition(3),
        "k", "v", "id", q_lo=0.1, q_hi=0.9)
    got = {r["id"]: r["winsorized"] for r in out.take_all()}

    def qdisc(xs, q):
        xs = sorted(xs)
        return xs[max(0, math.ceil(q * len(xs)) - 1)]

    import collections
    groups = collections.defaultdict(list)
    for k, v in zip(keys, vals):
        if not np.isnan(v):
            groups[k].append(float(v))
    th = {k: (qdisc(xs, 0.1), qdisc(xs, 0.9))
          for k, xs in groups.items()}
    for i, (k, v) in enumerate(zip(keys, vals)):
        if np.isnan(v):
            assert got[i] is None
        else:
            lo, hi = th[k]
            assert got[i] == min(max(float(v), lo), hi)


def test_minmax_normalize_by_group():
    from json_schema_ray.engine.relational import (
        minmax_normalize_by_group,
    )

    t = pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", None, "c"],
                      pa.string()),
        "v": pa.array([1.0, 2.0, 3.0, 10.0, None, 5.0, 7.0],
                      pa.float64()),
        "id": pa.array(range(7), pa.int64())})
    out = minmax_normalize_by_group(
        _ray().data.from_arrow(t).repartition(2), "k", "v")
    got = {r["id"]: r["norm_fp"] for r in out.take_all()}
    assert got[0] == 0 and got[1] == 500000 and got[2] == 1000000
    assert got[3] is None   # singleton non-null group: degenerate
    assert got[4] is None   # null value
    assert got[5] is None   # null key: no threshold row (SQL join)
    assert got[6] is None   # singleton group


def test_drop_repeated_lines():
    from json_schema_ray.engine.text import drop_repeated_lines

    docs = ["\n".join([f"unique-{i}-a", "SHARED BOILERPLATE",
                       f"unique-{i}-b"]) for i in range(20)]
    docs += [None, "only-once\nSHARED BOILERPLATE", ""]
    t = pa.table({
        "doc_id": pa.array(list(range(20)) + [90, 91, 92], pa.int64()),
        "text": pa.array(docs, pa.string())})
    out = drop_repeated_lines(
        _ray().data.from_arrow(t).repartition(3), max_docs=5)
    rows = {r["doc_id"]: r["text_clean"] for r in out.take_all()}
    assert rows[0] == "unique-0-a\nunique-0-b"  # boilerplate dropped
    assert rows[90] is None                     # null passes NULL
    assert rows[91] == "only-once"
    # "" splits to one empty line in only one doc -> kept
    assert rows[92] == ""
    # a doc left with zero lines would become "": force it
    all_shared = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": pa.array(["BANNER"] * 10, pa.string())})
    out2 = drop_repeated_lines(
        _ray().data.from_arrow(all_shared), max_docs=5)
    assert all(r["text_clean"] == "" for r in out2.take_all())


def test_grouped_weighted_mean_matches_brute_force():
    from json_schema_ray.engine.relational import grouped_weighted_mean

    rng = np.random.default_rng(29)
    n = 300
    keys = [f"g{i % 4}" for i in range(n)]
    # group g3 gets NEGATIVE values so the weighted sum goes negative
    # and the DuckDB-style TRUNCATING division (-7 // 2 = -3 there,
    # not Python's floor -4) is actually exercised
    vals = rng.normal(100, 30, n)
    for i in range(3, n, 4):
        vals[i] = -abs(vals[i]) - 0.3
    wts = rng.integers(1, 9, n).astype(float)
    vals[5] = np.nan  # null pair drops
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(vals, pa.float64()),
                  "w": pa.array(wts, pa.float64())})
    out = grouped_weighted_mean(
        _ray().data.from_arrow(t).repartition(3), "k", "v", "w")
    got = {r["k"]: (r["wmean_fp"], r["w_sum"]) for r in out.take_all()}

    import collections
    acc = collections.defaultdict(lambda: [0, 0])
    for k, v, w in zip(keys, vals, wts):
        if np.isnan(v) or np.isnan(w):
            continue
        qv = int(np.floor(v * 10 ** 6 + 0.5))
        qw = int(np.floor(w + 0.5))
        if qw <= 0:
            continue
        acc[k][0] += qv * qw
        acc[k][1] += qw

    def truncdiv(a, b):  # DuckDB // semantics
        q = abs(a) // b
        return -q if a < 0 else q

    want = {k: (truncdiv(vw, sw), sw) for k, (vw, sw) in acc.items()
            if sw > 0}
    assert any(vw < 0 for vw, _ in
               [(acc[k][0], 0) for k in acc])  # negative sum present
    assert got == want


def test_winsorize_null_keys_pass_through_unclipped():
    # SQL equality-join semantics: a NULL key matches no threshold
    # row, even though the quantile pass computes a NULL-key group
    # (pc.index_in WOULD match a null needle against a null in the
    # value set — the operator must filter the null threshold out)
    from json_schema_ray.engine.rank import winsorize_by_group

    t = pa.table({
        "k": pa.array(["a"] * 10 + [None] * 10, pa.string()),
        "v": pa.array([float(i) for i in range(10)] * 2,
                      pa.float64()),
        "id": pa.array(range(20), pa.int64())})
    out = winsorize_by_group(_ray().data.from_arrow(t), "k", "v",
                             "id", q_lo=0.2, q_hi=0.8)
    got = {r["id"]: r["winsorized"] for r in out.take_all()}
    for i in range(10, 20):  # null-key rows: unclipped originals
        assert got[i] == float(i - 10)
    # "a" rows clip into [quantile_disc(.2), quantile_disc(.8)] =
    # [values[ceil(.2*10)-1], values[ceil(.8*10)-1]] = [1.0, 7.0]
    assert got[0] == 1.0 and got[9] == 7.0


def test_embedding_gram_matches_numpy():
    from json_schema_ray.engine.similarity import embedding_gram

    rng = np.random.default_rng(9)
    m = rng.normal(0, 0.2, (40, 5)).astype(np.float32)
    rows = [list(r) for r in m] + [None]  # null embedding drops
    t = pa.table({"embedding": pa.array(
        rows, pa.list_(pa.float32()))})
    got = embedding_gram(
        _ray().data.from_arrow(t).repartition(3), scale=10 ** 6)
    q = np.floor(m.astype(np.float64) * 10 ** 6 + 0.5) \
        .astype(np.int64)
    want = q.T @ q
    gd = {(r["i"], r["j"]): r["sxy_fp"] for r in got.to_pylist()}
    assert len(gd) == 25
    for i in range(5):
        for j in range(5):
            assert gd[(i + 1, j + 1)] == want[i, j]


def test_embedding_gram_empty():
    from json_schema_ray.engine.similarity import embedding_gram

    t = pa.table({"embedding": pa.array([], pa.list_(pa.float32()))})
    out = embedding_gram(_ray().data.from_arrow(t))
    assert out.num_rows == 0
    assert out.column_names == ["i", "j", "sxy_fp"]


def test_grouped_median_mad_matches_brute_force():
    import collections
    import math

    from json_schema_ray.engine.rank import grouped_median_mad

    rng = np.random.default_rng(5)
    n = 500
    keys = [None if i % 17 == 0 else f"u{i % 9}" for i in range(n)]
    vals = rng.normal(10, 4, n)
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(vals, pa.float64()),
                  "id": pa.array(range(n), pa.int64())})
    got = grouped_median_mad(
        _ray().data.from_arrow(t).repartition(4), "k", "v", "id")
    gd = {r["k"]: (r["median"], r["mad"]) for r in got.to_pylist()}

    def qdisc(xs):  # DuckDB quantile_disc(x, 0.5): 1-based ceil rank
        xs = sorted(xs)
        return xs[max(0, math.ceil(0.5 * len(xs)) - 1)]

    groups = collections.defaultdict(list)
    for k, v in zip(keys, vals):
        groups[k].append(float(v))
    assert len(gd) == len(groups)
    for k, xs in groups.items():  # incl. the NULL-key group
        med = qdisc(xs)
        mad = qdisc([abs(x - med) for x in xs])
        assert gd[k] == (med, mad)


def test_grouped_median_mad_empty():
    from json_schema_ray.engine.rank import grouped_median_mad

    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.float64()),
                  "id": pa.array([], pa.int64())})
    out = grouped_median_mad(_ray().data.from_arrow(t), "k", "v", "id")
    assert out.num_rows == 0


def test_hopping_approx_distinct_within_hll_tolerance():
    from json_schema_ray.engine.window import (
        hopping_approx_distinct_counts,
        hopping_distinct_counts,
    )

    hour = 3600 * 1_000_000
    rng = np.random.default_rng(3)
    n = 6000
    t = pa.table({
        "ts": pa.array((rng.integers(0, 4, n) * 3600 * 1_000_000
                        + rng.integers(0, 3600_000_000, n))
                       .astype("int64"), pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 2500, n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(5)
    exact = {r["window_start_us"]: r["n_distinct"]
             for r in hopping_distinct_counts(
                 ds, window_seconds=7200, hop_seconds=3600).take_all()}
    approx = {r["window_start_us"]: r["n_approx"]
              for r in hopping_approx_distinct_counts(
                  ds, window_seconds=7200, hop_seconds=3600).take_all()}
    assert set(approx) == set(exact)
    for w, e in exact.items():
        assert abs(approx[w] - e) / e < 0.05  # ~3 sigma at p=12


def test_multimodal_resize_and_frame_sampling():
    from json_schema_ray.engine.multimodal import (
        FrameSampler, ImageResizer, deterministic_fake_frames,
        deterministic_fake_resize, resize_images, sample_frames)

    payloads = [b"x" * 100, b"y" * 37, None]
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    })
    ds = _ray().data.from_arrow(t)

    resized = resize_images(ds, 8, 8,
                            resize_fn=deterministic_fake_resize,
                            concurrency=2).take_all()
    by_id = {r["doc_id"]: r for r in resized}
    assert by_id[3]["payload"] is None and by_id[3]["payload_meta"] is None
    assert by_id[1]["payload_meta"]["width"] == 8
    # deterministic across calls
    assert by_id[1]["payload"] == deterministic_fake_resize(b"x" * 100, 8, 8)

    frames = sample_frames(ds, every_n=2,
                           sample_fn=deterministic_fake_frames,
                           concurrency=2).take_all()
    got = sorted((r["doc_id"], r["frame_idx"]) for r in frames)
    # doc1: 100B -> 7 frames -> every 2nd = 4; doc2: 37B -> 3 -> 2
    assert got == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]
    assert all(isinstance(r["frame"], bytes) for r in frames)

    # the stub contract: no decode_fn -> NotImplementedError
    with pytest.raises(Exception):
        ImageResizer(8, 8)(t)
    with pytest.raises(Exception):
        FrameSampler()(t)


def test_simhash_near_dup_pairs_end_to_end():
    from json_schema_ray.engine.dedup import simhash_near_dup_pairs

    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("lazy", "sleepy")
    other = " ".join(f"tok{i}" for i in range(50))
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([base, near, other], pa.string()),
    })
    out = simhash_near_dup_pairs(_ray().data.from_arrow(t), "doc_id",
                                 max_hamming=8)
    pairs = list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
    assert (1, 2) in pairs
    assert (1, 3) not in pairs and (2, 3) not in pairs


def test_hopping_window_keeps_null_timestamps():
    from json_schema_ray.engine.window import hopping_window_counts

    t = pa.table({
        "ts": pa.array([0, None], pa.timestamp("us")),
        "value": pa.array([1.0, 8.0], pa.float64()),
    })
    out = hopping_window_counts(_ray().data.from_arrow(t),
                                window_seconds=7200, hop_seconds=3600)
    rows = {r["window_start_us"]: (r["value_sum"], r["rows_count"])
            for r in out.to_pylist()}
    # the null-ts event keeps its 2 copies in the NULL window,
    # mirroring the SQL cross-join oracle
    assert rows[None] == (16.0, 2)
    assert rows[0] == (1.0, 1)


def test_sessionize_multiblock_matches_bruteforce():
    """Randomized corpus forced across many blocks: boundary-key
    stitching must agree with a pandas brute force, including a hot
    key that spans several blocks."""
    rng = np.random.default_rng(11)
    n = 4000
    users = rng.integers(0, 30, size=n)
    users[rng.random(n) < 0.3] = 7  # hot key spanning many blocks
    base = 1_700_000_000_000_000
    ts = base + rng.integers(0, 3_600_000_000_000, size=n)
    t = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    from json_schema_ray.engine.window import sessionize_counts

    ds = _ray().data.from_arrow(t).repartition(16)
    got = {r["user_id"]: (r["n_events"], r["n_sessions"])
           for r in sessionize_counts(ds, gap_seconds=1800.0).take_all()}

    import pandas as pd

    df = pd.DataFrame({"u": users, "t": ts}).sort_values(["u", "t"])
    expected = {}
    for u, g in df.groupby("u"):
        gaps = np.diff(g["t"].to_numpy()) / 1_000_000.0
        expected[u] = (len(g), 1 + int(np.count_nonzero(gaps > 1800.0)))
    assert got == expected


def test_sessionize_one_hot_key_spans_every_block_5m():
    """VERDICT r2 done-criterion: ONE key owning a >=5M-row corpus
    (so it spans every block after the sort) must complete with
    driver memory independent of the key's event count — the stitch
    holds one fixed-size (n_events, n_sessions, first_ts, last_ts)
    partial per block edge, never the timeline — and count exactly."""
    from json_schema_ray.engine.window import sessionize_counts

    n = 5_000_000
    base = 1_700_000_000_000_000
    i = np.arange(n, dtype=np.int64)
    # 1s cadence with a >gap jump every 1M events -> 5 sessions
    ts = base + i * 1_000_000 + (i // 1_000_000) * 3_600_000_000
    t = pa.table({
        "user_id": pa.array(np.zeros(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    got = sessionize_counts(ds, gap_seconds=1800.0).take_all()
    assert [(r["user_id"], r["n_events"], r["n_sessions"])
            for r in got] == [(0, n, 5)]


def test_asof_sorted_one_hot_key_spans_every_block():
    """Hot-key shape for the sorted as-of: one key's rows span every
    block; pending rows must resolve via the O(n_blocks) carry rows,
    matching the broadcast variant exactly."""
    from json_schema_ray.engine.relational import (
        asof_join_backward, asof_join_backward_sorted)

    n = 200_000
    rng = np.random.default_rng(5)
    lt = np.sort(rng.integers(0, 10_000_000, size=n))
    left = pa.table({
        "k": pa.array(["hot"] * n, pa.string()),
        "t": pa.array(lt, pa.timestamp("us")),
        "row": pa.array(np.arange(n), pa.int64()),
    })
    # sparse right side: long right-free stretches force pending rows
    rt_vals = np.sort(rng.integers(0, 10_000_000, size=12))
    right = pa.table({
        "rk": pa.array(["hot"] * 12, pa.string()),
        "rt": pa.array(rt_vals, pa.timestamp("us")),
        "val": pa.array([f"v{i}" for i in range(12)], pa.string()),
    })
    ref = asof_join_backward(
        _ray().data.from_arrow(left), right, "k", "rk", "t", "rt",
        value_columns=["val"]).take_all()
    got = asof_join_backward_sorted(
        _ray().data.from_arrow(left).repartition(16),
        _ray().data.from_arrow(right), "k", "rk", "t", "rt",
        value_columns=["val"]).take_all()
    ref_m = {r["row"]: r["val"] for r in ref}
    got_m = {r["row"]: r["val"] for r in got}
    assert got_m == ref_m


def test_keyed_text_compare_multiblock_matches_bruteforce():
    rng = np.random.default_rng(13)
    n = 3000
    keys = [f"c{i:05d}" for i in range(n)]
    texts = [f"text-{rng.integers(0, 10)}" for _ in range(n)]
    drop = set(rng.choice(n, size=40, replace=False).tolist())
    edit = set(rng.choice(n, size=60, replace=False).tolist()) - drop
    b_keys, b_texts = [], []
    for i in range(n):
        if i in drop:
            continue
        b_keys.append(keys[i])
        b_texts.append(texts[i] + "!" if i in edit else texts[i])
    ta = pa.table({"conv_id": pa.array(keys), 
                   "turn_idx": pa.array([0] * n, pa.int32()),
                   "text": pa.array(texts)})
    tb = pa.table({"conv_id": pa.array(b_keys),
                   "turn_idx": pa.array([0] * len(b_keys), pa.int32()),
                   "text": pa.array(b_texts)})
    from json_schema_ray.engine.compare import keyed_text_compare

    out = keyed_text_compare(
        _ray().data.from_arrow(ta).repartition(8),
        _ray().data.from_arrow(tb).repartition(8),
        ["conv_id", "turn_idx"])
    got = {r["conv_id"]: r["error_type"] for r in out.take_all()}
    expected = {keys[i]: "missing_in_b" for i in drop}
    expected.update({keys[i]: "text_mismatch" for i in edit})
    assert got == expected


def test_exact_dedup_sorted_matches_broadcast_multiblock():
    from json_schema_ray.engine.dedup import exact_dedup, exact_dedup_sorted

    rng = np.random.default_rng(5)
    n = 5000
    t = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "lang": pa.array(rng.choice(["en", "de", None], size=n).tolist(),
                         pa.string()),
        "n_chars": pa.array(rng.integers(0, 400, size=n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    ref = sorted(r["doc_id"] for r in
                 exact_dedup(ds, ["lang", "n_chars"], "doc_id").take_all())
    got = sorted(r["doc_id"] for r in
                 exact_dedup_sorted(ds, ["lang", "n_chars"],
                                    "doc_id").take_all())
    assert got == ref
    assert len(got) < n  # duplicates actually present


def test_null_keys_in_groupby_operators():
    """Nullable STRING grouping keys crash Ray's sort-based shuffle;
    the engine's groupby operators must route them through null-safe
    derived keys and keep SQL semantics (GROUP BY keeps a null group,
    COUNT(DISTINCT) drops nulls)."""
    from json_schema_ray.engine.keys import duplicate_keys
    from json_schema_ray.engine.relational import (
        exact_distinct_count, grouped_aggregate)

    t = pa.table({
        "k": pa.array(["a", None, "b", None, "a", None], pa.string()),
        "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(3)
    agg = grouped_aggregate(ds, ["k"], [("v", "sum"), (None, "count")])
    rows = {r["k"]: (r["v_sum"], r["rows_count"])
            for r in agg.to_pylist()}
    assert rows == {"a": (6.0, 2), "b": (3.0, 1), None: (12.0, 3)}

    dups = {r["k"]: r["cnt"]
            for r in duplicate_keys(ds, ["k"]).take_all()}
    assert dups == {"a": 2, None: 3}

    # SQL COUNT(DISTINCT) excludes NULLs
    assert exact_distinct_count(ds, "k") == 2


def test_ordering_and_sessionize_with_null_string_keys():
    from json_schema_ray.engine.keys import turn_ordering_violations
    from json_schema_ray.engine.window import sessionize_counts

    t = pa.table({
        "conv_id": pa.array(["c1", "c1", None, None, "c2"], pa.string()),
        "turn_idx": pa.array([0, 2, 0, 1, 0], pa.int32()),
        "ts": pa.array([1, 2, 3, 4, 5], pa.timestamp("us")),
    })
    ds = _ray().data.from_arrow(t).repartition(2)
    out = turn_ordering_violations(ds)
    rows = [(r["conv_id"], r["error_type"]) for r in out.take_all()]
    # c1 has a gap (0 -> 2); the null-conv run is a dense 0..1 pair
    assert ("c1", "turn_gap") in rows
    assert not any(c is None for c, _ in rows)

    t2 = pa.table({
        "user_id": pa.array(["u1", None, "u1", None], pa.string()),
        "ts": pa.array([0, 0, 5_000_000_000, 5_000_000_000],
                       pa.timestamp("us")),
    })
    got = {r["user_id"]: (r["n_events"], r["n_sessions"]) for r in
           sessionize_counts(_ray().data.from_arrow(t2).repartition(2),
                             key="user_id",
                             gap_seconds=1800.0).take_all()}
    assert got == {"u1": (2, 2), None: (2, 2)}


def test_count_min_sketch_overcounts_only_and_merges():
    from json_schema_ray.state.sketches import CountMinSketch, hash_strings

    rng = np.random.default_rng(2)
    vals = [f"v{i}" for i in rng.zipf(1.5, size=20000) if i < 5000]
    h = hash_strings(vals)
    half = len(h) // 2
    a, b = CountMinSketch(), CountMinSketch()
    a.add_many(h[:half])
    b.add_many(h[half:])
    merged = a.merge(b)
    import collections

    truth = collections.Counter(vals)
    uniq = sorted(truth)
    est = merged.estimate_many(hash_strings(uniq))
    for v, e in zip(uniq, est):
        assert e >= truth[v]  # one-sided error
    # heavy values estimated accurately
    top = [v for v, c in truth.most_common(10)]
    est_top = merged.estimate_many(hash_strings(top))
    for v, e in zip(top, est_top):
        assert e <= truth[v] * 1.2 + 50


def test_heavy_hitters_exact_vs_bruteforce():
    from json_schema_ray.engine.relational import heavy_hitters

    rng = np.random.default_rng(9)
    vals = [f"u{int(v)}" for v in rng.zipf(1.3, size=30000) if v < 1000]
    t = pa.table({"user": pa.array(vals, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(16)
    got = heavy_hitters(ds, "user", min_count=300)
    import collections

    truth = {v: c for v, c in collections.Counter(vals).items()
             if c >= 300}
    assert {r["user"]: r["cnt"] for r in got.to_pylist()} == truth
    assert len(truth) >= 3


def test_heavy_hitters_includes_null_group():
    from json_schema_ray.engine.relational import heavy_hitters

    t = pa.table({"user": pa.array([None] * 120 + ["x"] * 100 +
                                   ["y"] * 10, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(4)
    got = {r["user"]: r["cnt"]
           for r in heavy_hitters(ds, "user", min_count=80).to_pylist()}
    assert got == {None: 120, "x": 100}


def test_sessionize_null_ts_and_all_null_edge_keys():
    from json_schema_ray.engine.window import sessionize_counts

    t = pa.table({
        "user_id": pa.array([None, None, "u1"], pa.string()),
        "ts": pa.array([0, None, 100], pa.timestamp("us")),
    })
    out = sessionize_counts(_ray().data.from_arrow(t).repartition(2),
                            key="user_id", gap_seconds=1800.0)
    got = {r["user_id"]: (r["n_events"], r["n_sessions"])
           for r in out.take_all()}
    # null-ts event excluded; null-key group still sessionized
    assert got == {None: (1, 1), "u1": (1, 1)}
    # schema stays string-typed even when edge keys are all null
    assert out.schema().base_schema.field("user_id").type == "string"


def test_ann_index_build_and_pruned_query(tmp_path):
    import glob as _glob

    from json_schema_ray.engine.similarity import (
        build_ann_index, knn_bruteforce, query_ann_index)

    rng = np.random.default_rng(21)
    centers = rng.standard_normal((8, 24)) * 4
    vecs = np.concatenate([
        centers[i] + rng.standard_normal((50, 24)) * 0.4
        for i in range(8)])
    t = pa.table({
        "vec_id": pa.array(list(range(len(vecs))), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    ds = _ray().data.from_arrow(t)
    idx_dir = str(tmp_path / "ann")
    build_ann_index(ds, idx_dir, n_centroids=8)
    # one hive partition directory per inverted list
    parts = _glob.glob(f"{idx_dir}/cells/ivf_cell=*")
    assert len(parts) >= 6

    q = vecs[10]
    exact = knn_bruteforce(ds, q, k=5, exclude_ids={10})
    full = query_ann_index(idx_dir, q, k=5, n_probe=8,
                           exclude_ids={10})
    assert full["vec_id"].to_pylist() == exact["vec_id"].to_pylist()
    one = query_ann_index(idx_dir, q, k=5, n_probe=1, exclude_ids={10})
    overlap = len(set(one["vec_id"].to_pylist())
                  & set(exact["vec_id"].to_pylist()))
    assert overlap >= 4  # clustered data: single probe stays accurate


def test_asof_sorted_two_big_sides_matches_broadcast():
    from json_schema_ray.engine.relational import (
        asof_join_backward, asof_join_backward_sorted)

    rng = np.random.default_rng(31)
    nl, nr = 4000, 1500
    left = pa.table({
        "event_id": pa.array(list(range(nl)), pa.int64()),
        "user_id": pa.array(rng.integers(0, 40, nl), pa.int64()),
        "ts": pa.array(rng.integers(0, 10**9, nl), pa.timestamp("us")),
    })
    right = pa.table({
        "o_custkey": pa.array(rng.integers(0, 50, nr), pa.int64()),
        "o_orderdate": pa.array(rng.integers(0, 10**9, nr),
                                pa.timestamp("us")),
        "o_total": pa.array(rng.random(nr), pa.float64()),
    })
    ref = asof_join_backward(
        _ray().data.from_arrow(left), right,
        left_by="user_id", right_by="o_custkey",
        left_time="ts", right_time="o_orderdate",
        value_columns=["o_orderdate", "o_total"]).take_all()
    got = asof_join_backward_sorted(
        _ray().data.from_arrow(left).repartition(8),
        _ray().data.from_arrow(right).repartition(8),
        left_by="user_id", right_by="o_custkey",
        left_time="ts", right_time="o_orderdate",
        value_columns=["o_orderdate", "o_total"]).take_all()
    norm = lambda rows: sorted(
        (r["event_id"], r["o_orderdate"], r["o_total"]) for r in rows)
    assert norm(got) == norm(ref)
    assert len(got) == nl


def test_ann_index_rebuild_guard_and_missing_index(tmp_path):
    from json_schema_ray.engine.similarity import (
        build_ann_index, query_ann_index)

    rng = np.random.default_rng(4)
    t = pa.table({
        "vec_id": pa.array(list(range(40)), pa.int64()),
        "embedding": pa.array(rng.standard_normal((40, 8)).tolist(),
                              pa.list_(pa.float64())),
    })
    ds = _ray().data.from_arrow(t)
    idx = str(tmp_path / "ann2")
    build_ann_index(ds, idx, n_centroids=4)
    with pytest.raises(FileExistsError):
        build_ann_index(ds, idx, n_centroids=4)
    with pytest.raises(FileNotFoundError):
        query_ann_index(str(tmp_path / "nope"), np.zeros(8), k=3)


def test_asof_sorted_null_keys_never_match():
    from json_schema_ray.engine.relational import asof_join_backward_sorted

    left = pa.table({
        "eid": pa.array([1, 2], pa.int64()),
        "k": pa.array([None, "a"], pa.string()),
        "t": pa.array([100, 100], pa.timestamp("us")),
    })
    right = pa.table({
        "rk": pa.array([None, "a"], pa.string()),
        "rt": pa.array([10, 10], pa.timestamp("us")),
        "val": pa.array([7.0, 9.0], pa.float64()),
    })
    out = asof_join_backward_sorted(
        _ray().data.from_arrow(left), _ray().data.from_arrow(right),
        left_by="k", right_by="rk", left_time="t", right_time="rt",
        value_columns=["val"])
    got = {r["eid"]: r["val"] for r in out.take_all()}
    assert got == {1: None, 2: 9.0}  # NULL keys never match (SQL ASOF)

    with pytest.raises(ValueError):
        asof_join_backward_sorted(
            _ray().data.from_arrow(left), _ray().data.from_arrow(right),
            left_by="k", right_by="rk", left_time="t", right_time="rt",
            value_columns=["t"])  # collides with a left column


def test_engine_package_exports_resolve():
    import json_schema_ray.engine as eng

    missing = [n for n in eng.__all__ if not hasattr(eng, n)]
    assert missing == []


def test_heavy_hitters_randomized_with_nulls():
    import collections

    from json_schema_ray.engine.relational import heavy_hitters

    rng = np.random.default_rng(41)
    for trial, (n, thresh) in enumerate([(5000, 200), (3000, 50),
                                         (2000, 2001)]):
        raw = rng.zipf(1.4, size=n)
        vals = [None if v % 17 == 0 else f"u{int(v) % 200}"
                for v in raw]
        t = pa.table({"k": pa.array(vals, pa.string())})
        ds = _ray().data.from_arrow(t).repartition(7)
        got = {r["k"]: r["cnt"] for r in
               heavy_hitters(ds, "k", min_count=thresh).to_pylist()}
        truth = {v: c for v, c in collections.Counter(vals).items()
                 if c >= thresh}
        assert got == truth, trial


def test_exact_dedup_sorted_randomized_block_counts():
    from json_schema_ray.engine.dedup import exact_dedup_sorted

    rng = np.random.default_rng(43)
    for blocks in (1, 3, 9, 25):
        n = 2000
        t = pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "key": pa.array(
                [None if v % 13 == 0 else f"k{v}"
                 for v in rng.integers(0, 150, n)], pa.string()),
        })
        got = sorted(r["doc_id"] for r in exact_dedup_sorted(
            _ray().data.from_arrow(t).repartition(blocks),
            ["key"], "doc_id").take_all())
        keys = t["key"].to_pylist()
        first = {}
        for i, k in enumerate(keys):
            if k not in first:
                first[k] = i
        assert got == sorted(first.values()), blocks


def test_exact_quantiles_matches_duckdb_disc():
    import duckdb

    from json_schema_ray.engine.stats import exact_quantiles

    rng = np.random.default_rng(7)
    vals = rng.normal(100.0, 25.0, 5000)
    nulls = rng.random(5000) < 0.05
    col = [None if m else float(v) for v, m in zip(vals, nulls)]
    t = pa.table({"x": pa.array(col, pa.float64())})
    for blocks in (1, 8):
        got = exact_quantiles(
            _ray().data.from_arrow(t).repartition(blocks), "x",
            qs=(0.25, 0.5, 0.95, 0.99)).to_pylist()
        want = duckdb.sql(
            "SELECT quantile_disc(x, 0.25) q25, quantile_disc(x, 0.5) q50,"
            " quantile_disc(x, 0.95) q95, quantile_disc(x, 0.99) q99"
            " FROM t").fetchone()
        assert [r["value"] for r in got] == list(want), blocks
    # empty input -> null values, stable schema
    empty = exact_quantiles(
        _ray().data.from_arrow(t.slice(0, 0)), "x", qs=(0.5,))
    assert empty.to_pylist() == [{"q": 0.5, "value": None}]


def test_column_stats_num_std_matches_numpy():
    from json_schema_ray.engine.stats import column_stats

    rng = np.random.default_rng(11)
    vals = rng.normal(50.0, 9.0, 3000)
    t = pa.table({"x": pa.array(vals, pa.float64()),
                  "s": pa.array(["a"] * 3000, pa.string())})
    out = {r["column"]: r for r in column_stats(
        _ray().data.from_arrow(t).repartition(6)).to_pylist()}
    assert out["x"]["num_std"] == pytest.approx(
        float(np.std(vals)), rel=1e-9)
    assert out["s"]["num_std"] is None


def test_hash_sample_deterministic_and_sql_exact():
    import duckdb

    from json_schema_ray.engine.relational import (
        hash_sample, splitmix64_sql)

    n = 20000
    t = pa.table({
        "k": pa.array(
            [None if i % 997 == 0 else i * 3 + 1 for i in range(n)],
            pa.int64()),
        "v": pa.array(np.arange(n, dtype=np.float64)),
    })
    for frac, seed in ((0.1, 0), (0.03, 7)):
        ds = _ray().data.from_arrow(t).repartition(9)
        got = sorted(r["k"] for r in
                     hash_sample(ds, "k", frac, seed=seed).take_all())
        thr = int(frac * float(1 << 64))
        want = sorted(r[0] for r in duckdb.sql(
            f"SELECT k FROM t WHERE {splitmix64_sql('k', seed)}"
            f" < {thr}").fetchall())
        assert got == want, (frac, seed)
        # roughly the requested fraction
        assert len(got) == pytest.approx(n * frac, rel=0.15)
        # deterministic across a rerun
        ds2 = _ray().data.from_arrow(t).repartition(3)
        again = sorted(r["k"] for r in
                       hash_sample(ds2, "k", frac, seed=seed).take_all())
        assert again == got


def test_hash_sample_string_keys_consistent():
    from json_schema_ray.engine.relational import hash_sample

    t = pa.table({"k": pa.array(
        [f"user-{i}" for i in range(5000)], pa.string())})
    got = sorted(r["k"] for r in hash_sample(
        _ray().data.from_arrow(t).repartition(4), "k", 0.2).take_all())
    assert 0 < len(got) < 5000
    again = sorted(r["k"] for r in hash_sample(
        _ray().data.from_arrow(t).repartition(7), "k", 0.2).take_all())
    assert again == got
    # sample at a larger fraction is a superset (same hash, bigger cut)
    sup = set(r["k"] for r in hash_sample(
        _ray().data.from_arrow(t), "k", 0.5).take_all())
    assert set(got) <= sup


def test_grouped_top_k_matches_duckdb_row_number():
    import duckdb

    from json_schema_ray.engine.rank import grouped_top_k

    rng = np.random.default_rng(5)
    n = 4000
    t = pa.table({
        "g": pa.array([f"g{v}" if v else None
                       for v in rng.integers(0, 40, n)], pa.string()),
        "score": pa.array(rng.normal(0, 10, n), pa.float64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    for blocks, k in ((1, 3), (7, 3), (13, 1)):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        key = lambda x: (x[0] is None, x)
        got = sorted(
            ((r["g"], r["rid"], r["rn"]) for r in
             grouped_top_k(ds, ["g"], "score", k,
                           tiebreak="rid").take_all()), key=key)
        want = sorted(((r[0], r[1], r[2]) for r in duckdb.sql(f"""
            SELECT g, rid, rn FROM (
              SELECT g, rid, row_number() OVER
                (PARTITION BY g ORDER BY score DESC, rid) AS rn
              FROM t) WHERE rn <= {k}""").fetchall()), key=key)
        assert got == want, (blocks, k)


def test_grouped_top_k_hot_key_and_ascending():
    import duckdb

    from json_schema_ray.engine.rank import grouped_top_k

    # one key holds 90% of the rows and spans every block
    rng = np.random.default_rng(9)
    n = 30000
    hot = rng.random(n) < 0.9
    t = pa.table({
        "g": pa.array(np.where(hot, 0, rng.integers(1, 50, n)),
                      pa.int64()),
        "score": pa.array(rng.normal(0, 1, n), pa.float64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    got = sorted(
        (r["g"], r["rid"], r["rn"]) for r in
        grouped_top_k(ds, ["g"], "score", 5, descending=False,
                      tiebreak="rid").take_all())
    want = sorted((r[0], r[1], r[2]) for r in duckdb.sql("""
        SELECT g, rid, rn FROM (
          SELECT g, rid, row_number() OVER
            (PARTITION BY g ORDER BY score ASC, rid) AS rn
          FROM t) WHERE rn <= 5""").fetchall())
    assert got == want


def test_cumulative_sum_matches_duckdb_window():
    import duckdb

    from json_schema_ray.engine.rank import cumulative_sum

    rng = np.random.default_rng(3)
    n = 6000
    t = pa.table({
        "k": pa.array(rng.integers(0, 25, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.05 else float(x)
                       for x in rng.normal(5, 2, n)], pa.float64()),
    })
    for blocks in (1, 9):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: r["running_sum"] for r in
               cumulative_sum(ds, "k", "ts", "v", "rid").take_all()}
        want = {r[0]: r[1] for r in duckdb.sql("""
            SELECT rid, sum(v) OVER (PARTITION BY k ORDER BY ts, rid
              ROWS UNBOUNDED PRECEDING) FROM t""").fetchall()}
        assert set(got) == set(want)
        for rid in want:
            if want[rid] is None:
                assert got[rid] is None, (blocks, rid)
            else:
                assert got[rid] == pytest.approx(want[rid],
                                                 abs=1e-9), (blocks, rid)


def test_cumulative_max_matches_duckdb_window():
    """Per-key running max (the watermark primitive) vs the SQL
    window, with nulls, ties, negative values, and multi-block
    layouts; exact float equality (max SELECTS an input)."""
    import duckdb

    from json_schema_ray.engine.rank import cumulative_max

    rng = np.random.default_rng(7)
    n = 6000
    t = pa.table({
        "k": pa.array(rng.integers(0, 25, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.05 else float(x)
                       for x in rng.normal(0, 2, n)], pa.float64()),
    })
    want = {r[0]: r[1] for r in duckdb.sql("""
        SELECT rid, max(v) OVER (PARTITION BY k ORDER BY ts, rid
          ROWS UNBOUNDED PRECEDING) FROM t""").fetchall()}
    for blocks in (1, 9):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: r["running_max"] for r in
               cumulative_max(ds, "k", "ts", "v", "rid").take_all()}
        assert got == want, blocks


def test_cumulative_max_one_hot_key_spans_every_block():
    """One key owning every block: the constant-key watermark shape.
    Values DECREASE over ts, so every row's running max is the first
    value — the cross-block carry must win over every local max."""
    from json_schema_ray.engine.rank import cumulative_max

    n = 50_000
    t = pa.table({
        "k": pa.array(np.zeros(n, np.int64)),
        "ts": pa.array(np.arange(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array((n - np.arange(n)).astype(np.float64)),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    out = cumulative_max(ds, "k", "ts", "v", "rid")
    mx = [r["running_max"] for r in out.take_all()]
    assert len(mx) == n and all(m == float(n) for m in mx)


def test_cumulative_sum_one_hot_key_spans_every_block():
    from json_schema_ray.engine.rank import cumulative_sum

    n = 200_000
    t = pa.table({
        "k": pa.array(np.zeros(n, np.int64)),
        "ts": pa.array(np.arange(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(np.ones(n), pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(20)
    out = cumulative_sum(ds, "k", "ts", "v", "rid")
    # running_sum over all-ones ordered by ts is ts+1; spot-check and
    # count without collecting values to the driver dict-of-all-rows
    assert out.count() == n

    def count_bad(b):
        import pyarrow.compute as pac

        bad = pac.sum(pac.cast(pac.not_equal(
            pac.cast(b["running_sum"], pa.int64()),
            pac.add(pac.cast(b["ts"], pa.int64()), 1)),
            pa.int64())).as_py() or 0
        return pa.table({"bad": pa.array([int(bad)], pa.int64())})

    mx = out.map_batches(count_bad, batch_format="pyarrow",
                         zero_copy_batch=True)
    assert sum(r["bad"] for r in mx.take_all()) == 0


def test_pivot_counts_matches_duckdb_case():
    import duckdb

    from json_schema_ray.engine.relational import pivot_counts

    rng = np.random.default_rng(17)
    n = 5000
    cats = ["click", "view", "buy"]
    t = pa.table({
        "u": pa.array([f"u{v}" if v % 11 else None
                       for v in rng.integers(0, 30, n)], pa.string()),
        "ev": pa.array([None if v == 3 else cats[v % 3]
                        for v in rng.integers(0, 5, n)], pa.string()),
        "amt": pa.array(rng.random(n), pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(6)
    key = lambda x: (x[0] is None, x)
    got = sorted(
        ((r["u"], r["cnt_click"], r["cnt_view"], r["cnt_buy"])
         for r in _collect_tbl(pivot_counts(ds, "u", "ev", cats))
         .to_pylist()), key=key)
    want = sorted((tuple(r) for r in duckdb.sql("""
        SELECT u,
          coalesce(sum(CASE WHEN ev = 'click' THEN 1 END), 0),
          coalesce(sum(CASE WHEN ev = 'view' THEN 1 END), 0),
          coalesce(sum(CASE WHEN ev = 'buy' THEN 1 END), 0)
        FROM t GROUP BY u""").fetchall()), key=key)
    assert got == want
    # sum-valued pivot
    got_sum = {r["u"]: r["sum_buy"] for r in _collect_tbl(
        pivot_counts(ds, "u", "ev", cats, value="amt")).to_pylist()}
    want_sum = {r[0]: r[1] for r in duckdb.sql("""
        SELECT u, coalesce(sum(CASE WHEN ev = 'buy' THEN amt END), 0)
        FROM t GROUP BY u""").fetchall()}
    assert set(got_sum) == set(want_sum)
    for u in want_sum:
        assert got_sum[u] == pytest.approx(want_sum[u], abs=1e-9)


def _collect_tbl(ds):
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b for b in ds.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="default")


def test_grouped_exact_quantiles_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_exact_quantiles

    rng = np.random.default_rng(21)
    n = 8000
    t = pa.table({
        "g": pa.array([f"g{v}" if v % 7 else None
                       for v in rng.integers(0, 30, n)], pa.string()),
        "x": pa.array([None if rng.random() < 0.04 else float(v)
                       for v in rng.normal(100, 20, n)], pa.float64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    key = lambda r: (r[0] is None, r)
    for blocks in (1, 11):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["g"], r["q"], r["value"]) for r in
                      grouped_exact_quantiles(
                          ds, "g", "x", (0.25, 0.5, 0.9),
                          tiebreak="rid").take_all()), key=key)
        want = sorted((tuple(r) for r in duckdb.sql("""
            SELECT g, 0.25::DOUBLE AS q, quantile_disc(x, 0.25) AS v
              FROM t WHERE x IS NOT NULL GROUP BY g
            UNION ALL SELECT g, 0.5, quantile_disc(x, 0.5)
              FROM t WHERE x IS NOT NULL GROUP BY g
            UNION ALL SELECT g, 0.9, quantile_disc(x, 0.9)
              FROM t WHERE x IS NOT NULL GROUP BY g
            """).fetchall()), key=key)
        assert got == want, blocks


def test_grouped_exact_quantiles_hot_key_spans_blocks():
    from json_schema_ray.engine.rank import grouped_exact_quantiles

    # one key = 100k rows across 16 blocks; exact median/p99 known
    n = 100_000
    t = pa.table({
        "g": pa.array(np.zeros(n, np.int64)),
        "x": pa.array(np.arange(1, n + 1, dtype=np.float64)),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    got = {r["q"]: r["value"] for r in grouped_exact_quantiles(
        ds, "g", "x", (0.5, 0.99), tiebreak="rid").take_all()}
    assert got == {0.5: 50000.0, 0.99: 99000.0}


def test_set_ops_match_duckdb():
    import duckdb

    from json_schema_ray.engine.relational import (
        except_distinct, intersect_distinct)

    rng = np.random.default_rng(31)
    a = pa.table({"k": pa.array(
        [None if v == 7 else int(v) for v in rng.integers(0, 60, 3000)],
        pa.int64())})
    b = pa.table({"j": pa.array(
        [None if v == 9 else int(v) for v in rng.integers(30, 90, 3000)],
        pa.int64())})
    dsa = _ray().data.from_arrow(a).repartition(5)
    dsb = _ray().data.from_arrow(b).repartition(3)
    key = lambda x: (x is None, x)
    got_i = sorted((r["k"] for r in intersect_distinct(
        dsa, dsb, ["k"], ["j"]).take_all()), key=key)
    want_i = sorted((r[0] for r in duckdb.sql(
        "SELECT k FROM a INTERSECT SELECT j FROM b").fetchall()),
        key=key)
    assert got_i == want_i
    got_e = sorted((r["k"] for r in except_distinct(
        dsa, dsb, ["k"], ["j"]).take_all()), key=key)
    want_e = sorted((r[0] for r in duckdb.sql(
        "SELECT k FROM a EXCEPT SELECT j FROM b").fetchall()),
        key=key)
    assert got_e == want_e


def test_grouped_mode_matches_duckdb_deterministic():
    import duckdb

    from json_schema_ray.engine.rank import grouped_mode

    rng = np.random.default_rng(41)
    n = 6000
    t = pa.table({
        "u": pa.array(rng.integers(0, 40, n), pa.int64()),
        "ev": pa.array([None if v == 5 else "abcdef"[v % 5]
                        for v in rng.integers(0, 6, n)], pa.string()),
    })
    ds = _ray().data.from_arrow(t).repartition(7)
    got = sorted((r["u"], r["mode"], r["cnt"])
                 for r in grouped_mode(ds, "u", "ev").take_all())
    want = sorted(tuple(r) for r in duckdb.sql("""
        SELECT u, ev, cnt FROM (
          SELECT u, ev, count(*) AS cnt, row_number() OVER
            (PARTITION BY u ORDER BY count(*) DESC, ev) AS rn
          FROM t WHERE ev IS NOT NULL GROUP BY u, ev)
        WHERE rn = 1""").fetchall())
    assert got == want


def test_normalize_text_matches_duckdb_and_dedups():
    import duckdb

    from json_schema_ray.engine.text import normalize_text

    texts = ["  Héllo\tWorld ", "héllo world", "HÉLLO  WORLD",
             "autre\n\ntexte", " autre texte  ", "unique one", None]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(3)
    got = {r["doc_id"]: r["norm_text"]
           for r in normalize_text(ds).take_all()}
    want = {r[0]: r[1] for r in duckdb.sql("""
        SELECT doc_id, nfc_normalize(lower(trim(
          regexp_replace(text, '\\s+', ' ', 'g')))) FROM t""").fetchall()}
    assert got == want
    # the three Héllo variants collapse to one normalized key
    assert len({v for v in got.values() if v and "héllo" in v}) == 1


def test_corr_stats_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.stats import corr_stats

    rng = np.random.default_rng(51)
    n = 5000
    x = rng.normal(10, 3, n)
    y = 2.5 * x + rng.normal(0, 4, n)
    xs = [None if rng.random() < 0.03 else float(v) for v in x]
    ys = [None if rng.random() < 0.03 else float(v) for v in y]
    t = pa.table({"x": pa.array(xs, pa.float64()),
                  "y": pa.array(ys, pa.float64())})
    ds = _ray().data.from_arrow(t).repartition(8)
    got = corr_stats(ds, "x", "y").to_pylist()[0]
    want = duckdb.sql(
        "SELECT count(*) FILTER (x IS NOT NULL AND y IS NOT NULL),"
        " corr(x, y), covar_samp(x, y) FROM t").fetchone()
    assert got["n"] == want[0]
    assert got["corr"] == pytest.approx(want[1], abs=1e-9)
    assert got["covar_samp"] == pytest.approx(want[2], abs=1e-9)


def test_histogram_matches_duckdb_buckets():
    import duckdb

    from json_schema_ray.engine.stats import histogram

    rng = np.random.default_rng(53)
    vals = [None if rng.random() < 0.05 else float(v)
            for v in rng.normal(50, 30, 4000)]
    t = pa.table({"x": pa.array(vals, pa.float64())})
    ds = _ray().data.from_arrow(t).repartition(5)
    got = {r["bin"]: r["cnt"]
           for r in histogram(ds, "x", 10, 0.0, 100.0).to_pylist()}
    want = {r[0]: r[1] for r in duckdb.sql("""
        SELECT least(greatest(CAST(floor(x / 10.0) AS BIGINT), 0), 9)
                 AS bin, count(*) AS cnt
        FROM t WHERE x IS NOT NULL GROUP BY 1""").fetchall()}
    for b in range(10):
        assert got[b] == want.get(b, 0), b
    assert sum(got.values()) == sum(1 for v in vals if v is not None)


def test_grouped_distinct_count_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.relational import grouped_distinct_count

    rng = np.random.default_rng(57)
    n = 7000
    t = pa.table({
        "u": pa.array([None if v == 19 else int(v)
                       for v in rng.integers(0, 20, n)], pa.int64()),
        "e": pa.array([None if v == 9 else f"e{v}"
                       for v in rng.integers(0, 10, n)], pa.string()),
    })
    ds = _ray().data.from_arrow(t).repartition(9)
    key = lambda x: (x[0] is None, x)
    got = sorted(((r["u"], r["n_distinct"]) for r in
                  grouped_distinct_count(ds, "u", "e").take_all()),
                 key=key)
    want = sorted((tuple(r) for r in duckdb.sql(
        "SELECT u, count(DISTINCT e) FROM t GROUP BY u"
        " HAVING count(DISTINCT e) > 0").fetchall()), key=key)
    assert got == want


def test_semi_anti_join_match_duckdb_exists():
    import duckdb

    from json_schema_ray.engine.relational import anti_join, semi_join

    rng = np.random.default_rng(61)
    n = 4000
    lt = pa.table({
        "fk": pa.array([None if v == 50 else int(v)
                        for v in rng.integers(0, 60, n)], pa.int64()),
        "payload": pa.array(np.arange(n), pa.int64()),
    })
    rt = pa.table({"pk": pa.array(
        [None if v == 5 else int(v) for v in rng.integers(0, 40, 500)],
        pa.int64())})
    dl = _ray().data.from_arrow(lt).repartition(6)
    dr = _ray().data.from_arrow(rt).repartition(2)
    got_s = sorted(r["payload"] for r in
                   semi_join(dl, dr, "fk", "pk").take_all())
    want_s = sorted(r[0] for r in duckdb.sql(
        "SELECT payload FROM lt WHERE EXISTS "
        "(SELECT 1 FROM rt WHERE pk = fk)").fetchall())
    assert got_s == want_s
    got_a = sorted(r["payload"] for r in
                   anti_join(dl, dr, "fk", "pk").take_all())
    want_a = sorted(r[0] for r in duckdb.sql(
        "SELECT payload FROM lt WHERE NOT EXISTS "
        "(SELECT 1 FROM rt WHERE pk = fk)").fetchall())
    assert got_a == want_a
    assert len(got_s) + len(got_a) == n


def test_review_fixes_rank_edge_cases():
    import duckdb
    import pytest as _pt

    from json_schema_ray.engine.rank import (
        cumulative_sum, grouped_exact_quantiles, grouped_top_k)

    # separator/escape bytes inside multi-key strings stay distinct
    t = pa.table({
        "a": pa.array(["x\x1fvy", "x", "x\x1ex"], pa.string()),
        "b": pa.array(["z", "y\x1fvz", "x"], pa.string()),
        "v": pa.array([1.0, 2.0, 3.0], pa.float64()),
        "rid": pa.array([0, 1, 2], pa.int64()),
    })
    out = grouped_top_k(_ray().data.from_arrow(t).repartition(2),
                        ["a", "b"], "v", 1, tiebreak="rid").take_all()
    assert len(out) == 3  # three distinct groups, not merged
    # -0.0 and 0.0 group together (SQL GROUP BY equality)
    t2 = pa.table({"g": pa.array([0.0, -0.0, 1.0], pa.float64()),
                   "v": pa.array([5.0, 7.0, 1.0], pa.float64()),
                   "rid": pa.array([0, 1, 2], pa.int64())})
    out2 = grouped_top_k(_ray().data.from_arrow(t2), ["g"], "v", 1,
                         tiebreak="rid").take_all()
    assert len(out2) == 2
    assert {r["v"] for r in out2} == {7.0, 1.0}
    # string order/tiebreak columns are rejected in carry-based ops
    t3 = pa.table({"g": pa.array([1, 1], pa.int64()),
                   "ts": pa.array([1, 2], pa.int64()),
                   "s": pa.array(["a", "b"], pa.string()),
                   "v": pa.array([1.0, 2.0], pa.float64())})
    with _pt.raises(Exception, match="string"):
        cumulative_sum(_ray().data.from_arrow(t3), "g", "ts", "v",
                       "s").take_all()
    with _pt.raises(ValueError, match="\\[0, 1\\]"):
        grouped_exact_quantiles(_ray().data.from_arrow(t3), "g", "v",
                                (1.5,), tiebreak="ts")
    # float ts with fractional values works (no int64 cast crash)
    t4 = pa.table({"g": pa.array([1] * 6, pa.int64()),
                   "ts": pa.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5],
                                  pa.float64()),
                   "rid": pa.array(range(6), pa.int64()),
                   "v": pa.array([1.0] * 6, pa.float64())})
    got = sorted(r["running_sum"] for r in cumulative_sum(
        _ray().data.from_arrow(t4).repartition(3), "g", "ts", "v",
        "rid").take_all())
    assert got == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_histogram_nan_inf_edges():
    from json_schema_ray.engine.stats import histogram

    t = pa.table({"x": pa.array(
        [float("nan"), float("inf"), float("-inf"), 5.0, 95.0, None],
        pa.float64())})
    got = {r["bin"]: r["cnt"]
           for r in histogram(_ray().data.from_arrow(t), "x", 10,
                              0.0, 100.0).to_pylist()}
    # NaN and NULL drop; +inf clamps to top bin, -inf to bottom
    assert got[0] == 2 and got[9] == 2
    assert sum(got.values()) == 4


def test_pivot_sum_all_null_values_is_zero():
    from json_schema_ray.engine.relational import pivot_counts

    t = pa.table({"u": pa.array(["g1", "g1"], pa.string()),
                  "ev": pa.array(["buy", "buy"], pa.string()),
                  "amt": pa.array([None, None], pa.float64())})
    out = pivot_counts(_ray().data.from_arrow(t), "u", "ev",
                       ["buy"], value="amt").take_all()
    assert out == [{"u": "g1", "sum_buy": 0.0}]


def test_normalize_text_keeps_non_re2_whitespace():
    import duckdb

    from json_schema_ray.engine.text import normalize_text

    texts = ["text\x0b", "\x0bA  B\x0b", "ok  then "]
    t = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = {r["doc_id"]: r["norm_text"]
           for r in normalize_text(_ray().data.from_arrow(t)).take_all()}
    want = {r[0]: r[1] for r in duckdb.sql("""
        SELECT doc_id, nfc_normalize(lower(trim(
          regexp_replace(text, '\\s+', ' ', 'g')))) FROM t""").fetchall()}
    assert got == want


def test_lag_column_matches_duckdb_window():
    import duckdb

    from json_schema_ray.engine.rank import lag_column

    rng = np.random.default_rng(71)
    n = 6000
    t = pa.table({
        "k": pa.array(rng.integers(0, 20, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 5000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.05 else float(x)
                       for x in rng.normal(0, 1, n)], pa.float64()),
    })
    for blocks in (1, 12):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: r["lag_value"] for r in
               lag_column(ds, "k", "ts", "v", "rid").take_all()}
        want = {r[0]: r[1] for r in duckdb.sql("""
            SELECT rid, lag(v) OVER (PARTITION BY k ORDER BY ts, rid)
            FROM t""").fetchall()}
        assert got == want, blocks


def test_lag_column_hot_key_spans_blocks():
    from json_schema_ray.engine.rank import lag_column

    n = 120_000
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "ts": pa.array(np.arange(n), pa.int64()),
                  "rid": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.arange(n, dtype=np.float64))})
    ds = _ray().data.from_arrow(t).repartition(16)
    out = lag_column(ds, "k", "ts", "v", "rid")
    assert out.count() == n

    def count_bad(b):
        import pyarrow.compute as pac

        lv = b["lag_value"]
        tsv = b["ts"]
        expect = pac.subtract(pac.cast(tsv, pa.float64()), 1.0)
        ok_null = pac.and_(pac.is_null(lv), pac.equal(tsv, 0))
        ok_val = pac.equal(lv, expect)
        bad = pac.sum(pac.cast(pac.invert(pac.fill_null(
            pac.or_kleene(ok_null, ok_val), False)),
            pa.int64())).as_py() or 0
        return pa.table({"bad": pa.array([int(bad)], pa.int64())})

    bad = sum(r["bad"] for r in out.map_batches(
        count_bad, batch_format="pyarrow",
        zero_copy_batch=True).take_all())
    assert bad == 0


def test_grouped_distinct_count_sorted_matches_combiner():
    import duckdb

    from json_schema_ray.engine.relational import (
        grouped_distinct_count, grouped_distinct_count_sorted)

    rng = np.random.default_rng(81)
    n = 9000
    t = pa.table({
        "u": pa.array([None if v == 11 else int(v)
                       for v in rng.integers(0, 12, n)], pa.int64()),
        "e": pa.array([None if v == 99 else f"val{v:03d}"
                       for v in rng.integers(0, 100, n)], pa.string()),
    })
    key = lambda x: (x[0] is None, x)
    want = sorted((tuple(r) for r in duckdb.sql(
        "SELECT u, count(DISTINCT e) FROM t GROUP BY u"
        " HAVING count(DISTINCT e) > 0").fetchall()), key=key)
    for blocks in (1, 13):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["u"], r["n_distinct"]) for r in
                      grouped_distinct_count_sorted(ds, "u", "e")
                      .take_all()), key=key)
        assert got == want, blocks
    # hot key: one group holds one value repeated over every block
    # plus a unique tail -> exact count via the boundary stitch
    n2 = 50_000
    t2 = pa.table({
        "u": pa.array(np.zeros(n2, np.int64)),
        "e": pa.array(["dup"] * (n2 - 5) + [f"u{i}" for i in range(5)],
                      pa.string()),
    })
    got2 = grouped_distinct_count_sorted(
        _ray().data.from_arrow(t2).repartition(16), "u", "e").take_all()
    assert got2 == [{"u": 0, "n_distinct": 6}]


def test_lead_column_matches_duckdb_window():
    import duckdb

    from json_schema_ray.engine.rank import lead_column

    rng = np.random.default_rng(72)
    n = 6000
    t = pa.table({
        "k": pa.array(rng.integers(0, 20, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 5000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.05 else float(x)
                       for x in rng.normal(0, 1, n)], pa.float64()),
    })
    for blocks in (1, 12):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: r["lead_value"] for r in
               lead_column(ds, "k", "ts", "v", "rid").take_all()}
        want = {r[0]: r[1] for r in duckdb.sql("""
            SELECT rid, lead(v) OVER (PARTITION BY k ORDER BY ts, rid)
            FROM t""").fetchall()}
        assert got == want, blocks


def test_lead_column_hot_key_spans_blocks():
    from json_schema_ray.engine.rank import lead_column

    n = 120_000
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "ts": pa.array(np.arange(n), pa.int64()),
                  "rid": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.arange(n, dtype=np.float64))})
    ds = _ray().data.from_arrow(t).repartition(16)
    out = lead_column(ds, "k", "ts", "v", "rid")
    assert out.count() == n

    def count_bad(b):
        import pyarrow.compute as pac

        lv = b["lead_value"]
        tsv = b["ts"]
        expect = pac.add(pac.cast(tsv, pa.float64()), 1.0)
        ok_null = pac.and_(pac.is_null(lv), pac.equal(tsv, n - 1))
        ok_val = pac.equal(lv, expect)
        bad = pac.sum(pac.cast(pac.invert(pac.fill_null(
            pac.or_kleene(ok_null, ok_val), False)),
            pa.int64())).as_py() or 0
        return pa.table({"bad": pa.array([int(bad)], pa.int64())})

    bad = sum(r["bad"] for r in out.map_batches(
        count_bad, batch_format="pyarrow",
        zero_copy_batch=True).take_all())
    assert bad == 0


def _random_repeaty_texts(rng, n):
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "ética", "实验", "x"]
    texts = []
    for i in range(n):
        if i % 17 == 3:
            texts.append(None)
            continue
        k = int(rng.integers(0, 12))
        words = list(rng.choice(vocab, size=k))
        if k >= 4 and rng.random() < 0.5:
            words = words + words[:3]  # guaranteed repeated 2-grams
        texts.append("  ".join(words) if rng.random() < 0.2
                     else " ".join(words))
    return texts


def test_repetition_scores_match_duckdb():
    import duckdb

    from json_schema_ray.engine.text import repetition_scores

    rng = np.random.default_rng(31)
    n = 400
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "text": pa.array(_random_repeaty_texts(rng, n),
                                   pa.string())})
    ds = _ray().data.from_arrow(t).repartition(5)
    got = sorted(
        (r["doc_id"], r["n_grams"],
         int(np.floor(r["dup_gram_frac"] * 1e6 + 0.5)),
         int(np.floor(r["dup_char_frac"] * 1e6 + 0.5)))
        for r in repetition_scores(ds).take_all()
        if r["n_grams"] is not None)
    want = sorted(tuple(r) for r in duckdb.sql("""
        WITH arrs AS (
          SELECT doc_id, list_filter(regexp_split_to_array(text,
                 '\\s+'), x -> x <> '') AS w
          FROM t WHERE text IS NOT NULL
        ), grams AS (
          SELECT doc_id, unnest(list_transform(
                   generate_series(1, len(w) - 1),
                   i -> w[i] || ' ' || w[i+1])) AS g
          FROM arrs WHERE len(w) >= 2
        ), pg AS (
          SELECT doc_id, g, count(*) AS cnt, length(g) AS chars
          FROM grams GROUP BY doc_id, g
        )
        SELECT doc_id, CAST(sum(cnt) AS BIGINT),
               CAST(floor(CAST(sum(cnt) - count(*) AS DOUBLE)
                    / sum(cnt) * 1000000 + 0.5) AS BIGINT),
               CAST(floor(CAST(sum(CASE WHEN cnt > 1
                         THEN cnt * chars ELSE 0 END) AS DOUBLE)
                    / sum(cnt * chars) * 1000000 + 0.5) AS BIGINT)
        FROM pg GROUP BY doc_id""").fetchall())
    assert got == want
    # docs with < 2 tokens (or NULL text) carry NULL metrics
    null_ids = {r["doc_id"] for r in repetition_scores(ds).take_all()
                if r["n_grams"] is None}
    texts = t["text"].to_pylist()
    expect_null = {i for i, x in enumerate(texts)
                   if x is None or len(x.split()) < 2}
    assert null_ids == expect_null


def test_scrub_pii_matches_duckdb_regexp_replace():
    import duckdb

    from json_schema_ray.engine.text import scrub_pii

    texts = [
        "write to bob.smith+x@corp.example.org today",
        "see https://ex.com/a?u=a@b.co and http://x.io/p for more",
        "no pii here at all",
        "two mails a@b.io c-d@e-f.org and a bare http://u.v/w",
        None,
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(2)
    got = sorted((r["doc_id"], r["n_urls"], r["n_emails"],
                  r["scrubbed"])
                 for r in scrub_pii(ds).take_all())
    want = sorted(tuple(r) for r in duckdb.sql(r"""
        WITH s AS (
          SELECT doc_id,
                 len(regexp_extract_all(text,
                     'https?://[^\s]+')) AS n_urls,
                 regexp_replace(text, 'https?://[^\s]+',
                                '<URL>', 'g') AS t1
          FROM t)
        SELECT doc_id,
               CASE WHEN t1 IS NULL THEN NULL ELSE n_urls END,
               len(regexp_extract_all(t1,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}')),
               regexp_replace(t1,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                 '<EMAIL>', 'g')
        FROM s""").fetchall())
    assert got == want


def test_grouped_value_ranks_match_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_value_ranks

    rng = np.random.default_rng(41)
    n = 8000
    t = pa.table({
        "k": pa.array([None if v == 0 else int(v)
                       for v in rng.integers(0, 25, n)], pa.int64()),
        # small value domain -> real rank/dense_rank gaps
        "v": pa.array([None if rng.random() < 0.04
                       else float(x)
                       for x in rng.integers(0, 40, n)], pa.float64()),
    })
    for blocks in (1, 9):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(
            ((r["k"] is None, r["k"]), r["v"], r["cnt"], r["rank"],
             r["dense_rank"])
            for r in grouped_value_ranks(ds, "k", "v").take_all())
        want = sorted(((r[0] is None, r[0]),) + tuple(r[1:])
                      for r in duckdb.sql("""
            SELECT DISTINCT k, v,
                   count(*) OVER (PARTITION BY k, v) AS cnt,
                   rank() OVER (PARTITION BY k ORDER BY v) AS rnk,
                   dense_rank() OVER (PARTITION BY k ORDER BY v)
                     AS drnk
            FROM t WHERE v IS NOT NULL""").fetchall())
        assert got == want, blocks


def test_grouped_value_ranks_hot_key_many_distinct():
    from json_schema_ray.engine.rank import grouped_value_ranks

    # ONE key holding 200k distinct values spanning every block:
    # the distinct-value table itself must stream through the prefix
    # scan, never collect per-key anywhere
    n = 200_000
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "v": pa.array(np.arange(n, dtype=np.float64))})
    ds = _ray().data.from_arrow(t).repartition(16)
    out = grouped_value_ranks(ds, "k", "v")
    assert out.count() == n

    def count_bad(b):
        import pyarrow.compute as pac

        v = pac.cast(b["v"], pa.int64())
        ok = pac.and_(pac.equal(b["rank"], pac.add(v, 1)),
                      pac.equal(b["dense_rank"], pac.add(v, 1)))
        ok = pac.and_(ok, pac.equal(b["cnt"], 1))
        bad = pac.sum(pac.cast(pac.invert(pac.fill_null(ok, False)),
                               pa.int64())).as_py() or 0
        return pa.table({"bad": pa.array([int(bad)], pa.int64())})

    assert sum(r["bad"] for r in out.map_batches(
        count_bad, batch_format="pyarrow",
        zero_copy_batch=True).take_all()) == 0


def test_windowed_sum_matches_duckdb_rows_frame():
    import duckdb

    from json_schema_ray.engine.rank import windowed_sum

    rng = np.random.default_rng(57)
    n = 5000
    t = pa.table({
        "k": pa.array(rng.integers(0, 15, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 4000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.07 else int(x)
                       for x in rng.integers(-50, 50, n)], pa.int64()),
    })
    for blocks, w in ((1, 3), (11, 3), (11, 1), (7, 8)):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: (r["win_sum"], r["win_cnt"]) for r in
               windowed_sum(ds, "k", "ts", "v", "rid", w).take_all()}
        want = {r[0]: (r[1], r[2]) for r in duckdb.sql(f"""
            SELECT rid,
                   CAST(sum(v) OVER w AS DOUBLE),
                   count(v) OVER w
            FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid
              ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
            """).fetchall()}
        assert got == want, (blocks, w)


def test_windowed_sum_hot_key_tiny_blocks_carry_chain():
    from json_schema_ray.engine.rank import windowed_sum

    # one key, 64 blocks of ~47 rows, window 5: cross-block frames
    # must chain through several blocks' carries
    n = 3000
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "ts": pa.array(np.arange(n), pa.int64()),
                  "rid": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.ones(n, np.int64))})
    ds = _ray().data.from_arrow(t).repartition(64)
    out = {r["rid"]: (r["win_sum"], r["win_cnt"]) for r in
           windowed_sum(ds, "k", "ts", "v", "rid", 5).take_all()}
    assert len(out) == n
    for rid, (s, c) in out.items():
        expect = min(rid + 1, 5)
        assert (s, c) == (float(expect), expect), rid


def test_windowed_median_matches_duckdb_rows_frame():
    import duckdb

    from json_schema_ray.engine.rank import windowed_median

    rng = np.random.default_rng(58)
    n = 5000
    t = pa.table({
        "k": pa.array(rng.integers(0, 15, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 4000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.07 else int(x)
                       for x in rng.integers(-50, 50, n)], pa.int64()),
    })
    for blocks, w in ((1, 3), (11, 5), (11, 1), (7, 8)):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: (r["med2"], r["win_cnt"]) for r in
               windowed_median(ds, "k", "ts", "v", "rid", w).take_all()}
        want = {r[0]: (r[1], r[2]) for r in duckdb.sql(f"""
            SELECT rid,
                   CAST(2 * median(v) OVER w AS BIGINT),
                   count(v) OVER w
            FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid
              ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
            """).fetchall()}
        assert got == want, (blocks, w)


def test_windowed_median_hot_key_tiny_blocks_carry_chain():
    from json_schema_ray.engine.rank import windowed_median

    # one key, 64 blocks of ~47 rows, window 7 > some block tails:
    # pending frames must chain through earlier blocks' carries;
    # v = rid makes every frame's median analytic
    n = 3000
    w = 7
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "ts": pa.array(np.arange(n), pa.int64()),
                  "rid": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(np.arange(n), pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(64)
    out = {r["rid"]: (r["med2"], r["win_cnt"]) for r in
           windowed_median(ds, "k", "ts", "v", "rid", w).take_all()}
    assert len(out) == n
    for rid, (m2, c) in out.items():
        frame = list(range(max(0, rid - w + 1), rid + 1))
        expect = frame[(len(frame) - 1) // 2] + frame[len(frame) // 2]
        assert (m2, c) == (expect, len(frame)), rid


def test_windowed_median_all_null_frames_and_seed_sweep():
    import duckdb

    from json_schema_ray.engine.rank import windowed_median

    for seed in (3, 17, 91):
        rng = np.random.default_rng(seed)
        n = 1200
        t = pa.table({
            "k": pa.array(rng.integers(0, 4, n), pa.int64()),
            "ts": pa.array(rng.permutation(n), pa.int64()),
            "rid": pa.array(np.arange(n), pa.int64()),
            # heavy null rate: whole frames go empty -> NULL median
            "v": pa.array([None if rng.random() < 0.6 else int(x)
                           for x in rng.integers(-9, 9, n)],
                          pa.int64()),
        })
        ds = _ray().data.from_arrow(t).repartition(9)
        got = {r["rid"]: (r["med2"], r["win_cnt"]) for r in
               windowed_median(ds, "k", "ts", "v", "rid", 4).take_all()}
        want = {r[0]: (r[1], r[2]) for r in duckdb.sql("""
            SELECT rid,
                   CAST(2 * median(v) OVER w AS BIGINT),
                   count(v) OVER w
            FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid
              ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
            """).fetchall()}
        assert got == want, seed


def test_rollup_aggregate_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.relational import rollup_aggregate

    rng = np.random.default_rng(63)
    n = 4000
    t = pa.table({
        "seg": pa.array([None if v == 0 else f"s{v}"
                         for v in rng.integers(0, 6, n)], pa.string()),
        "nat": pa.array(rng.integers(0, 8, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
    })
    for blocks in (1, 9):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(
            ((r["seg"] is None, r["seg"]), (r["nat"] is None, r["nat"]),
             r["lvl"], r["agg_value"])
            for r in rollup_aggregate(ds, ["seg", "nat"], "v",
                                      "sum").take_all())
        want = sorted(
            ((r[0] is None, r[0]), (r[1] is None, r[1]), r[2], r[3])
            for r in duckdb.sql("""
            SELECT seg, nat,
                   CASE grouping(seg, nat) WHEN 0 THEN 0
                        WHEN 1 THEN 1 ELSE 2 END AS lvl,
                   sum(v) AS s
            FROM t GROUP BY ROLLUP (seg, nat)""").fetchall())
        assert got == want, blocks
    # count rollup: coarser levels re-aggregate as sums of counts
    ds = _ray().data.from_arrow(t).repartition(5)
    got = sorted(
        ((r["seg"] is None, r["seg"]), (r["nat"] is None, r["nat"]),
         r["lvl"], r["agg_value"])
        for r in rollup_aggregate(ds, ["seg", "nat"], None,
                                  "count").take_all())
    want = sorted(
        ((r[0] is None, r[0]), (r[1] is None, r[1]), r[2], r[3])
        for r in duckdb.sql("""
        SELECT seg, nat,
               CASE grouping(seg, nat) WHEN 0 THEN 0
                    WHEN 1 THEN 1 ELSE 2 END AS lvl,
               count(*) AS s
        FROM t GROUP BY ROLLUP (seg, nat)""").fetchall())
    assert got == want


def test_ngram_containment_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.dedup import (
        build_ngram_blocklist, ngram_containment)

    rng = np.random.default_rng(77)
    vocab = ["tok%d" % i for i in range(30)]
    texts = []
    for i in range(300):
        if i % 23 == 7:
            texts.append(None)
            continue
        k = int(rng.integers(0, 20))
        texts.append(" ".join(rng.choice(vocab, size=k)))
    t = pa.table({"doc_id": pa.array(np.arange(300), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ref = t.filter(pa.array(np.arange(300) % 8 == 0))
    bl = build_ngram_blocklist(
        _ray().data.from_arrow(ref).repartition(2))
    ds = _ray().data.from_arrow(t).repartition(4)
    got = sorted(
        (r["doc_id"], r["n_shingles"],
         int(np.floor(r["containment"] * 1e6 + 0.5)))
        for r in ngram_containment(ds, bl).take_all()
        if r["n_shingles"] is not None)
    want = sorted(tuple(r) for r in duckdb.sql("""
        WITH words AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(text, '\\s+'),
                               w -> w <> '') AS arr
            FROM t
        ), sh AS (
            SELECT DISTINCT doc_id,
                   CASE WHEN len(arr) < 5
                        THEN array_to_string(arr, ' ')
                        ELSE array_to_string(
                            list_slice(arr, i, i + 4), ' ')
                   END AS shingle
            FROM words,
                 LATERAL (SELECT unnest(generate_series(
                     1, greatest(len(arr) - 4, 1))) AS i) g
            WHERE len(arr) > 0
        ), bl AS (
            SELECT DISTINCT shingle FROM sh WHERE doc_id % 8 = 0
        )
        SELECT s.doc_id, count(*) AS n_shingles,
               CAST(floor(CAST(count(b.shingle) AS DOUBLE)
                    / count(*) * 1e6 + 0.5) AS BIGINT)
        FROM sh s LEFT JOIN bl b ON s.shingle = b.shingle
        GROUP BY s.doc_id""").fetchall())
    assert got == want


def _uf_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_connected_components_known_graph():
    from json_schema_ray.engine.dedup import connected_components

    pairs = pa.table({
        "id_a": pa.array([1, 2, 10, 20, 21, 22], pa.int64()),
        "id_b": pa.array([2, 3, 11, 21, 22, 23], pa.int64()),
    })
    comp = connected_components(pairs)
    got = dict(zip(comp["id"].to_pylist(),
                   comp["component"].to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10,
                   20: 20, 21: 20, 22: 20, 23: 20}


def test_connected_components_empty_and_chain():
    from json_schema_ray.engine.dedup import connected_components

    empty = connected_components(pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64())}))
    assert empty.num_rows == 0

    # one 400-node path spanning many blocks: worst case for plain
    # hash-min (diameter 400); pointer jumping must collapse it
    n = 400
    chain = pa.table({"id_a": pa.array(range(n - 1), pa.int64()),
                      "id_b": pa.array(range(1, n), pa.int64())})
    ds = _ray().data.from_arrow(chain).repartition(8)
    comp = connected_components(ds)
    assert comp.num_rows == n
    assert set(comp["component"].to_pylist()) == {0}


def test_connected_components_random_differential():
    from json_schema_ray.engine.dedup import connected_components

    rng = np.random.default_rng(7)
    a = rng.integers(0, 300, size=500).astype(np.int64)
    b = rng.integers(0, 300, size=500).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    pairs = pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    ds = _ray().data.from_arrow(pairs).repartition(5)
    comp = connected_components(ds)
    got = dict(zip(comp["id"].to_pylist(),
                   comp["component"].to_pylist()))
    assert got == _uf_components(zip(a.tolist(), b.tolist()))


def test_tfidf_top_terms_matches_naive():
    """Distributed two-pass TF-IDF == a single-process naive recompute,
    across a multi-block dataset (DF partials must merge exactly)."""
    import math
    from collections import Counter

    from json_schema_ray.engine.text import tfidf_top_terms

    texts = ["apple banana apple", "banana cherry", "apple cherry date",
             "  ", "date date date banana", "egg"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = tfidf_top_terms(_ray().data.from_arrow(t).repartition(4),
                          id_column="doc_id", column="text", top_n=2)
    got = pa.concat_tables(
        [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
         for b in out.iter_batches(batch_format="pyarrow")]).sort_by(
        [("doc_id", "ascending"), ("score_e6", "descending"),
         ("term", "ascending")]).to_pylist()

    # naive reference
    toks = [[w for w in s.split() if w] for s in texts]
    docs = [(i, tk) for i, tk in enumerate(toks) if tk]
    n = len(docs)
    df = Counter()
    for _, tk in docs:
        df.update(set(tk))
    want = []
    for i, tk in docs:
        tf = Counter(tk)
        scored = sorted(
            ((term, c, math.floor(c * math.log(n / df[term]) * 1e6 + 0.5))
             for term, c in tf.items()),
            key=lambda r: (-r[2], r[0]))[:2]
        for term, c, s in scored:
            want.append({"doc_id": i, "term": term, "tf": c, "score_e6": s})
    assert got == want
    assert not any(r["doc_id"] == 3 for r in got)  # all-whitespace doc


def test_tfidf_min_df_prunes_vocabulary():
    from json_schema_ray.engine.text import tfidf_top_terms

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["rare shared", "shared"], pa.string())})
    out = tfidf_top_terms(_ray().data.from_arrow(t), id_column="doc_id",
                          column="text", top_n=5, min_df=2)
    terms = set()
    for b in out.iter_batches(batch_format="pyarrow"):
        tt = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        terms.update(tt["term"].to_pylist())
    assert terms == {"shared"}  # 'rare' (df=1) pruned


def test_grouped_entropy_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.stats import grouped_entropy

    rng = np.random.default_rng(31)
    n = 6000
    t = pa.table({
        "u": pa.array([f"u{v}" if v % 5 else None
                       for v in rng.integers(0, 40, n)], pa.string()),
        "ev": pa.array([None if rng.random() < 0.03 else f"e{v}"
                        for v in rng.integers(0, 6, n)], pa.string()),
    })
    key = lambda r: (r[0] is None, r)
    for blocks in (1, 9):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["u"], r["n"], r["entropy_e6"])
                      for r in grouped_entropy(ds, "u", "ev")
                      .take_all()), key=key)
        # fixed-point mirror: hash-EXACT, no rounding slop — the
        # engine quantizes each c*ln(c) term before the order-free
        # integer sum, and DuckDB reproduces the same expression
        want = sorted(((u, nn, e) for u, nn, e in duckdb.sql(
            """WITH c AS (SELECT u, ev, count(*) AS cnt FROM t
                          WHERE ev IS NOT NULL GROUP BY 1, 2),
                    s AS (SELECT u, CAST(sum(cnt) AS BIGINT) AS n,
                            CAST(sum(CAST(floor(cnt *
                                ln(CAST(cnt AS DOUBLE)) * 1e6 + 0.5)
                                AS BIGINT)) AS BIGINT) AS s
                          FROM c GROUP BY u)
               SELECT u, n,
                      CAST(floor((ln(CAST(n AS DOUBLE))
                           - CAST(s AS DOUBLE) / 1000000.0 / n)
                           * 1e6 + 0.5) AS BIGINT)
               FROM s""").fetchall()), key=key)
        assert got == want, blocks


def test_grouped_zscore_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.stats import grouped_zscore

    rng = np.random.default_rng(32)
    n = 5000
    g = rng.integers(0, 25, n)
    x = np.where(rng.random(n) < 0.05, np.nan, rng.normal(50, 9, n))
    t = pa.table({
        "g": pa.array(g, pa.int64()),
        "x": pa.array(x, pa.float64(), mask=np.isnan(x)),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    # degenerate groups: singleton (100) and zero-variance (101)
    extra = pa.table({
        "g": pa.array([100, 101, 101], pa.int64()),
        "x": pa.array([7.0, 3.0, 3.0], pa.float64()),
        "rid": pa.array([n, n + 1, n + 2], pa.int64()),
    })
    t = pa.concat_tables([t, extra])
    ds = _ray().data.from_arrow(t).repartition(7)
    got = {r["rid"]: (None if r["z"] is None else round(r["z"], 9))
           for r in grouped_zscore(ds, "g", "x").take_all()}
    want = {rid: (None if z is None else round(z, 9))
            for rid, z in duckdb.sql(
        """SELECT rid, CASE WHEN stddev_samp(x) OVER w = 0 THEN NULL
                  ELSE (x - avg(x) OVER w) / stddev_samp(x) OVER w
                  END
           FROM t WINDOW w AS (PARTITION BY g)""").fetchall()}
    assert got == want
    assert got[n] is None and got[n + 1] is None  # degenerate -> NULL


def test_grouped_quantiles_cont_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_quantiles_cont

    rng = np.random.default_rng(33)
    n = 8000
    t = pa.table({
        "g": pa.array([f"g{v}" if v % 7 else None
                       for v in rng.integers(0, 30, n)], pa.string()),
        "x": pa.array([None if rng.random() < 0.04 else float(v)
                       for v in rng.normal(100, 20, n)], pa.float64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    key = lambda r: (r[0] is None, r)
    for blocks in (1, 11):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["g"], r["q"], round(r["value"], 8)) for r in
                      grouped_quantiles_cont(
                          ds, "g", "x", (0.25, 0.5, 0.9),
                          tiebreak="rid").take_all()), key=key)
        want = sorted(((gv, q, round(v, 8)) for gv, q, v in duckdb.sql("""
            SELECT g, 0.25::DOUBLE AS q, quantile_cont(x, 0.25) AS v
              FROM t WHERE x IS NOT NULL GROUP BY g
            UNION ALL SELECT g, 0.5, quantile_cont(x, 0.5)
              FROM t WHERE x IS NOT NULL GROUP BY g
            UNION ALL SELECT g, 0.9, quantile_cont(x, 0.9)
              FROM t WHERE x IS NOT NULL GROUP BY g
            """).fetchall()), key=key)
        assert got == want, blocks


def test_grouped_quantiles_cont_hot_key_spans_blocks():
    from json_schema_ray.engine.rank import grouped_quantiles_cont

    # one key spanning 16 blocks; values 1..n make quantile_cont
    # analytically exact: value = 1 + (n - 1) * q
    n = 100_000
    t = pa.table({
        "g": pa.array(np.zeros(n, np.int64)),
        "x": pa.array(np.arange(1, n + 1, dtype=np.float64)),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    got = {r["q"]: r["value"] for r in grouped_quantiles_cont(
        ds, "g", "x", (0.5, 0.99), tiebreak="rid").take_all()}
    assert got == {0.5: 1 + (n - 1) * 0.5, 0.99: 1 + (n - 1) * 0.99}


def test_grouped_quantiles_cont_single_rank_over_blocks():
    """q = 0.5 over odd-sized groups selects ONE rank per group, so
    after the multi-block merge whole output blocks hold no upper
    value (their __vhi arrives typed null) — it must still
    interpolate like DuckDB's quantile_cont."""
    import duckdb

    from json_schema_ray.engine.rank import grouped_quantiles_cont

    rng = np.random.default_rng(36)
    g = rng.permutation(np.repeat([0, 1, 2], [101, 99, 97]))
    n = len(g)
    t = pa.table({
        "g": pa.array(g, pa.int64()),
        "x": pa.array(rng.normal(100, 20, n).round(3), pa.float64()),
        "rid": pa.array(np.arange(n), pa.int64()),
    })
    want = sorted((g, q, round(v, 8)) for g, q, v in duckdb.sql("""
        SELECT g, 0.5::DOUBLE, quantile_cont(x, 0.5) FROM t GROUP BY g
        UNION ALL SELECT g, 0.3, quantile_cont(x, 0.3) FROM t GROUP BY g
        """).fetchall())
    for blocks in (1, 6):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted((r["g"], r["q"], round(r["value"], 8)) for r in
                     grouped_quantiles_cont(ds, "g", "x", (0.5, 0.3),
                                            tiebreak="rid").take_all())
        assert got == want, blocks
        got = sorted((r["g"], r["q"], round(r["value"], 8)) for r in
                     grouped_quantiles_cont(ds, "g", "x", (0.5,),
                                            tiebreak="rid").take_all())
        assert got == [w for w in want if w[1] == 0.5], blocks


def test_stratified_sample_matches_sql_splitmix():
    import duckdb

    from json_schema_ray.engine.rank import stratified_sample
    from json_schema_ray.engine.relational import splitmix64_sql

    rng = np.random.default_rng(34)
    n = 4000
    t = pa.table({
        "g": pa.array(rng.integers(0, 11, n), pa.int64()),
        "id": pa.array(np.arange(n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(9)
    got = sorted((r["g"], r["id"], r["rn"]) for r in
                 stratified_sample(ds, "g", "id", 6, seed=2).take_all())
    want = sorted(duckdb.sql(f"""
        SELECT g, id, rn FROM (
          SELECT g, id, row_number() OVER (PARTITION BY g
            ORDER BY {splitmix64_sql('id', 2)}, id) AS rn FROM t)
        WHERE rn <= 6""").fetchall())
    assert got == want
    # deterministic across runs: same subset again
    again = sorted((r["g"], r["id"], r["rn"]) for r in
                   stratified_sample(ds, "g", "id", 6, seed=2)
                   .take_all())
    assert again == got


def test_grouped_string_agg_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_string_agg

    rng = np.random.default_rng(35)
    n = 5000
    t = pa.table({
        "u": pa.array([f"u{v}" if v % 6 else None
                       for v in rng.integers(0, 20, n)], pa.string()),
        "ord": pa.array(rng.permutation(n), pa.int64()),
        "ev": pa.array([None if rng.random() < 0.05 else f"e{v}"
                        for v in rng.integers(0, 7, n)], pa.string()),
    })
    key = lambda r: (r[0] is None, r)
    for blocks in (1, 10):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["u"], r["agg"]) for r in
                      grouped_string_agg(ds, "u", "ord", "ev")
                      .take_all()), key=key)
        want = sorted((tuple(r) for r in duckdb.sql(
            """SELECT u, string_agg(ev, ',' ORDER BY "ord") FROM t
               WHERE ev IS NOT NULL GROUP BY u""").fetchall()),
            key=key)
        assert got == want, blocks


def test_grouped_string_agg_hot_key_spans_blocks():
    from json_schema_ray.engine.rank import grouped_string_agg

    n = 20_000
    t = pa.table({
        "g": pa.array(np.zeros(n, np.int64)),
        "ord": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([str(i) for i in range(n)], pa.string()),
    })
    ds = _ray().data.from_arrow(t).repartition(16)
    rows = grouped_string_agg(ds, "g", "ord", "v").take_all()
    assert len(rows) == 1
    assert rows[0]["agg"] == ",".join(str(i) for i in range(n))


def test_chunk_documents_matches_naive():
    import random

    from json_schema_ray.engine.text import chunk_documents

    rng = random.Random(3)
    docs = [{"doc_id": i,
             "text": " ".join(f"w{rng.randrange(40)}"
                              for _ in range(rng.randrange(0, 90)))}
            for i in range(80)]
    ds = _ray().data.from_items(docs).repartition(5)
    got = {(r["doc_id"], r["chunk_idx"]): (r["n_tokens"], r["chunk_text"])
           for r in chunk_documents(ds, window=16, stride=10).take_all()}
    exp = {}
    for d in docs:
        toks = d["text"].split()
        n = len(toks)
        if n == 0:
            continue
        for j in range(1 + max(0, -(-(n - 16) // 10))):
            seg = toks[j * 10:j * 10 + 16]
            exp[(d["doc_id"], j)] = (len(seg), " ".join(seg))
    assert got == exp


def test_chunk_documents_edge_rules():
    from json_schema_ray.engine.text import chunk_documents

    ds = _ray().data.from_items([
        {"doc_id": 0, "text": ""},            # no chunks
        {"doc_id": 1, "text": "  a  b "},     # whitespace runs
        {"doc_id": 2, "text": None},          # null text -> no chunks
        {"doc_id": 3, "text": "x " * 16},     # exactly one window
    ])
    rows = chunk_documents(ds, window=16, stride=10).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert set(by_doc) == {1, 3}
    assert by_doc[1][0]["chunk_text"] == "a b"
    assert len(by_doc[3]) == 1 and by_doc[3][0]["n_tokens"] == 16


def test_vocabulary_matches_naive():
    from collections import Counter

    from json_schema_ray.engine.text import vocabulary

    docs = [{"doc_id": i, "text": " ".join(
        ["common"] * 5 + [f"t{i % 7}"] * (i % 4) + [f"rare{i}"])}
        for i in range(60)]
    ds = _ray().data.from_items(docs).repartition(4)
    v = vocabulary(ds, min_count=4, top_k=5)
    tf, df = Counter(), Counter()
    for d in docs:
        toks = d["text"].split()
        tf.update(toks)
        df.update(set(toks))
    exp = sorted(((t, c) for t, c in tf.items() if c >= 4),
                 key=lambda x: (-x[1], x[0]))[:5]
    assert list(zip(v["term"].to_pylist(), v["tf"].to_pylist())) == exp
    assert v["df"].to_pylist() == [df[t] for t, _ in exp]
    assert v["rank"].to_pylist() == list(range(1, len(exp) + 1))


def test_mixture_sample_matches_thresholds():
    import random

    from json_schema_ray.engine.relational import (mixture_sample,
                                                   mixture_thresholds)
    from json_schema_ray.state.sketches import hash_ints

    rng = random.Random(9)
    rows = [{"k": i, "g": rng.choice(["a", "b", None])}
            for i in range(400)]
    ds = _ray().data.from_items(rows).repartition(6)
    rates = {"a": 0.9, "b": 0.2}
    got = {r["k"] for r in
           mixture_sample(ds, "g", "k", rates, default_rate=0.05,
                          seed=3).take_all()}
    thr = mixture_thresholds(rates, 0.05)
    exp = set()
    for r in rows:
        h = hash_ints(np.array([r["k"] + 3], dtype=np.uint64)
                      .view(np.int64))[0]
        if h < thr.get(r["g"], thr[None]):
            exp.add(r["k"])
    assert got == exp
    # rate 0 keeps nothing; rate 1 keeps (almost surely) everything
    assert mixture_sample(ds, "g", "k", {"a": 0.0, "b": 0.0},
                          default_rate=0.0).count() == 0


def test_greedy_bins_rule():
    from json_schema_ray.engine.window import _greedy_bins

    sizes = np.array([40, 50, 20, 100, 120, 1, 99, 2])
    # budget 100: [40,50] | [20] | [100] | [120 oversize] | [1,99] | [2]
    bins = _greedy_bins(sizes, 100)
    assert bins.tolist() == [0, 0, 1, 2, 3, 4, 4, 5]
    # oversized first item occupies its own bin
    assert _greedy_bins(np.array([500, 1]), 100).tolist() == [0, 1]
    assert _greedy_bins(np.array([], dtype=np.int64), 100).tolist() == []


def test_pack_items_matches_naive():
    import random
    from collections import defaultdict

    from json_schema_ray.engine.window import _greedy_bins, pack_items

    rng = random.Random(5)
    rows = [{"k": rng.choice(["a", "b", "c", "d"]), "o": i,
             "sz": rng.randrange(1, 50)} for i in range(600)]
    ds = _ray().data.from_items(rows).repartition(8)
    got = {(r["k"], r["o"]): r["bin"]
           for r in pack_items(ds, "k", "o", "sz",
                               budget=120).take_all()}
    groups = defaultdict(list)
    for r in rows:
        groups[r["k"]].append(r)
    exp = {}
    for k, items in groups.items():
        items.sort(key=lambda r: r["o"])
        for r, b in zip(items, _greedy_bins(
                np.array([r["sz"] for r in items]), 120)):
            exp[(k, r["o"])] = int(b)
    assert got == exp


def test_pack_items_hot_group_spans_all_blocks():
    from json_schema_ray.engine.window import _greedy_bins, pack_items

    n = 50_000
    t = pa.table({"k": pa.array(["hot"] * n),
                  "o": pa.array(np.arange(n)),
                  "sz": pa.array((np.arange(n) % 37 + 1)
                                 .astype(np.int64))})
    ds = _ray().data.from_arrow(t).repartition(16)
    out = pack_items(ds, "k", "o", "sz", budget=100).take_all()
    assert len(out) == n
    exp = _greedy_bins((np.arange(n) % 37 + 1).astype(np.int64), 100)
    got = {r["o"]: r["bin"] for r in out}
    assert all(got[i] == exp[i] for i in range(n))


def test_grouped_rank_profiles_matches_duckdb():
    import duckdb
    import random

    from json_schema_ray.engine.rank import grouped_rank_profiles

    rng = random.Random(21)
    rows = [{"k": rng.randrange(6), "v":
             rng.choice([None, 1.0, 2.5, 2.5, 7.0, 9.0,
                         float(rng.randrange(20))])}
            for _ in range(500)]
    t = pa.table({"k": pa.array([r["k"] for r in rows], pa.int64()),
                  "v": pa.array([r["v"] for r in rows], pa.float64())})
    ds = _ray().data.from_arrow(t).repartition(7)
    out = grouped_rank_profiles(ds, "k", "v").take_all()
    got = sorted((r["k"], r["v"], r["cnt"], r["rank"], r["dense_rank"],
                  round(r["pct_rank"], 9), round(r["cume_dist"], 9))
                 for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT DISTINCT k, v,
               CAST(count(*) OVER (PARTITION BY k, v) AS BIGINT),
               rank() OVER w, dense_rank() OVER w,
               round(percent_rank() OVER w, 9),
               round(cume_dist() OVER w, 9)
        FROM t WHERE v IS NOT NULL
        WINDOW w AS (PARTITION BY k ORDER BY v)
    """).fetchall())
    assert got == want


def test_grouped_row_numbers_and_ntile_match_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_ntile

    rng = np.random.default_rng(33)
    n = 800
    keys = rng.integers(0, 7, size=n).astype(np.float64)
    keys[rng.random(n) < 0.05] = np.nan  # NULL partition
    tsv = rng.integers(0, 1000, size=n)
    t = pa.table({
        "k": pa.array([None if np.isnan(v) else int(v) for v in keys],
                      pa.int64()),
        "ts": pa.array(tsv, pa.int64()),
        "eid": pa.array(np.arange(n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(9)
    out = grouped_ntile(ds, "k", "ts", "eid", 4).take_all()
    keyf = lambda t: (t[0] is None, t[0] or 0, t[1])
    got = sorted(((r["k"], r["eid"], r["row_number"], r["ntile"])
                  for r in out), key=keyf)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted((tuple(r) for r in con.execute("""
        SELECT k, eid, row_number() OVER w, ntile(4) OVER w
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, eid)
    """).fetchall()), key=keyf)
    assert got == want

    # k > group size: every row its own tile, trailing tiles unused
    out1 = grouped_ntile(
        _ray().data.from_arrow(t.slice(0, 10)), "k", "ts", "eid",
        100).take_all()
    got1 = sorted(((r["k"], r["eid"], r["ntile"]) for r in out1),
                  key=keyf)
    want1 = sorted((tuple(r) for r in con.execute("""
        SELECT k, eid, ntile(100) OVER w FROM (SELECT * FROM t LIMIT 10)
        WINDOW w AS (PARTITION BY k ORDER BY ts, eid)
    """).fetchall()), key=keyf)
    assert got1 == want1


def test_grouped_first_last_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.relational import grouped_first_last

    rng = np.random.default_rng(41)
    n = 700
    t = pa.table({
        "k": pa.array([None if rng.random() < 0.04 else int(v)
                       for v in rng.integers(0, 9, size=n)], pa.int64()),
        "ts": pa.array([None if rng.random() < 0.05 else int(v)
                        for v in rng.integers(0, 50, size=n)], pa.int64()),
        "eid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.1 else float(x)
                       for x in rng.normal(size=n)], pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(8)
    out = grouped_first_last(ds, "k", "ts", "eid", "v").take_all()
    keyf = lambda r: (r[0] is None, r[0] or 0)
    got = sorted(((r["k"], r["first_val"], r["last_val"])
                  for r in out), key=keyf)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted((tuple(r) for r in con.execute("""
        SELECT DISTINCT k,
               first_value(v) OVER w AS first_val,
               last_value(v) OVER w AS last_val
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, eid
            ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
    """).fetchall()), key=keyf)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0]
        for a, b in zip(g[1:], w[1:]):
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b  # exact bit round-trip


def test_range_windowed_sum_matches_duckdb():
    import datetime

    import duckdb

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(55)
    n = 900
    base = np.int64(1_700_000_000_000_000)
    tsv = base + rng.integers(0, 3_600_000_000, size=n)  # 1h span, us
    t = pa.table({
        "k": pa.array(rng.integers(0, 6, size=n), pa.int64()),
        "ts": pa.array(tsv, pa.timestamp("us")),
        "v": pa.array([None if rng.random() < 0.1 else float(x)
                       for x in rng.integers(0, 100, size=n)],
                      pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(7)
    out = range_windowed_sum(ds, "k", "ts", "v",
                             datetime.timedelta(minutes=5)).take_all()
    got = sorted((r["k"], r["ts"],
                  None if r["range_sum"] is None
                  else round(r["range_sum"], 6), r["range_cnt"])
                 for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT DISTINCT k, ts,
               round(sum(v) OVER w, 6) AS range_sum,
               CAST(count(v) OVER w AS BIGINT) AS range_cnt
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
            RANGE BETWEEN INTERVAL 5 MINUTE PRECEDING AND CURRENT ROW)
    """).fetchall())
    assert got == want


def test_range_windowed_sum_ms_unit_matches_duckdb():
    """A timestamp("ms") column must get the same 5-minute frame as
    a "us" one — the probe offset converts to the column's own ticks
    (regression: it used to subtract raw microseconds, i.e. a
    1000x-too-small window on ms columns)."""
    import datetime

    import duckdb

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(56)
    n = 400
    base = np.int64(1_700_000_000_000)
    tsv = base + rng.integers(0, 3_600_000, size=n)  # 1h span, ms
    t = pa.table({
        "k": pa.array(rng.integers(0, 4, size=n), pa.int64()),
        "ts": pa.array(tsv, pa.timestamp("ms")),
        "v": pa.array(rng.integers(0, 100, size=n).astype(float)),
    })
    ds = _ray().data.from_arrow(t).repartition(5)
    out = range_windowed_sum(ds, "k", "ts", "v",
                             datetime.timedelta(minutes=5)).take_all()
    got = sorted((r["k"], r["ts"],
                  None if r["range_sum"] is None
                  else round(r["range_sum"], 6), r["range_cnt"])
                 for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT DISTINCT k, CAST(ts AS TIMESTAMP) AS ts,
               round(sum(v) OVER w, 6) AS range_sum,
               CAST(count(v) OVER w AS BIGINT) AS range_cnt
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
            RANGE BETWEEN INTERVAL 5 MINUTE PRECEDING AND CURRENT ROW)
    """).fetchall())
    assert got == want

    import pytest

    # the ValueError raises inside the map task, so Ray delivers it
    # wrapped in RayTaskError — match on the message
    with pytest.raises(Exception, match="whole number"):
        range_windowed_sum(
            ds, "k", "ts", "v",
            datetime.timedelta(microseconds=1500)).take_all()


def test_asof_and_range_join_mixed_time_units():
    """Time comparisons normalize to microseconds on BOTH sides, so
    an as-of join between a us left and an ms right (and a range join
    over date32 with a day-scale microsecond window) resolves the
    same instants correctly (regression: raw int64 ticks compared
    us-vs-ms across sides / added raw microsecond constants to
    date32 day counts)."""
    import datetime

    from json_schema_ray.engine.relational import (asof_join_backward,
                                                   range_join)

    base_us = 1_700_000_000_000_000
    left = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "lt": pa.array([base_us + 5_000_000, base_us + 1_000_000,
                        base_us + 5_000_000], pa.timestamp("us")),
    })
    right = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "rt": pa.array([(base_us + 2_000_000) // 1000,
                        (base_us + 4_000_000) // 1000,
                        (base_us + 9_000_000) // 1000],
                       pa.timestamp("ms")),
        "val": pa.array([10.0, 20.0, 30.0]),
    })
    ds = _ray().data.from_arrow(left)
    out = sorted(
        (r["k"], r["lt"].second % 10, r["val"])
        for r in asof_join_backward(ds, right, "k", "k", "lt", "rt",
                                    ["val"]).take_all())
    # k=1 @+5s -> latest right <= +5s is +4s (20.0); k=1 @+1s -> none;
    # k=2 @+5s -> right is at +9s, in the future -> none
    assert out == [(1, 1, None), (1, 5, 20.0), (2, 5, None)]

    day_us = 86_400_000_000
    epoch = datetime.date(1970, 1, 1)
    dleft = pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "lt": pa.array([epoch + datetime.timedelta(days=100),
                        epoch + datetime.timedelta(days=200)],
                       pa.date32()),
    })
    dright = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "rt": pa.array([epoch + datetime.timedelta(days=95),
                        epoch + datetime.timedelta(days=98),
                        epoch + datetime.timedelta(days=150)],
                       pa.date32()),
        "val": pa.array([1.0, 2.0, 3.0]),
    })
    got = sorted(
        (r["k"], r["lt"].day, r["val"])
        for r in range_join(_ray().data.from_arrow(dleft), dright,
                            "k", "k", "lt", "rt",
                            before_us=3 * day_us, after_us=0,
                            value_columns=["val"]).take_all())
    # day 100 window [97, 100] -> day 98 only; day 200 -> nothing
    assert got == [(1, 11, 2.0)]


def test_bloom_semi_join_exact_and_superset():
    import pyarrow.compute as pc

    from json_schema_ray.engine.relational import (
        bloom_semi_join, build_bloom_filter)

    rng = np.random.default_rng(61)
    n = 4000
    left = pa.table({
        "fk": pa.array([None if rng.random() < 0.03 else int(v)
                        for v in rng.integers(0, 5000, size=n)],
                       pa.int64()),
        "row": pa.array(np.arange(n), pa.int64()),
    })
    ref = pa.table({"pk": pa.array(
        rng.choice(5000, size=300, replace=False), pa.int64())})
    lds = _ray().data.from_arrow(left).repartition(6)
    rds = _ray().data.from_arrow(ref).repartition(3)

    want = set(left.filter(
        pc.fill_null(pc.is_in(left["fk"], value_set=ref["pk"]),
                     False))["row"].to_pylist())

    got = {r["row"] for r in
           bloom_semi_join(lds, rds, "fk", "pk").take_all()}
    assert got == want

    # no false negatives even with a deliberately tiny filter
    approx = {r["row"] for r in bloom_semi_join(
        lds, rds, "fk", "pk", n_bits=1 << 10, n_hashes=2,
        exact=False).take_all()}
    assert want <= approx
    assert len(approx) < n  # it actually filters something

    # string keys route through the string hash kernel
    sleft = pa.table({"fk": pa.array(
        [f"k{v}" for v in rng.integers(0, 500, size=1000)]
        + [None], pa.string()),
        "row": pa.array(np.arange(1001), pa.int64())})
    sref = pa.table({"pk": pa.array(
        [f"k{v}" for v in range(0, 500, 7)], pa.string())})
    got_s = {r["row"] for r in bloom_semi_join(
        _ray().data.from_arrow(sleft),
        _ray().data.from_arrow(sref), "fk", "pk").take_all()}
    want_s = set(sleft.filter(
        pc.fill_null(pc.is_in(sleft["fk"], value_set=sref["pk"]),
                     False))["row"].to_pylist())
    assert got_s == want_s

    # empty reference: bitmap all zeros, nothing survives
    empty = build_bloom_filter(
        _ray().data.from_arrow(ref.slice(0, 0)), "pk")
    assert not empty.any()


def test_asof_forward_sorted_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.relational import asof_join_forward_sorted

    rng = np.random.default_rng(77)
    nl, nr = 3000, 500
    left = pa.table({
        "k": pa.array([None if rng.random() < 0.02 else int(v)
                       for v in rng.integers(0, 40, size=nl)], pa.int64()),
        "t": pa.array(rng.integers(0, 10_000, size=nl), pa.int64()),
        "lrow": pa.array(np.arange(nl), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(rng.integers(0, 50, size=nr), pa.int64()),
        "rt": pa.array(rng.integers(0, 10_000, size=nr), pa.int64()),
    })
    out = asof_join_forward_sorted(
        _ray().data.from_arrow(left).repartition(7),
        _ray().data.from_arrow(right).repartition(3),
        "k", "rk", "t", "rt", value_columns=["rt"])
    got = sorted((r["lrow"], r["rt"]) for r in out.take_all()
                 if True)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    # value column is the matched TIME itself, so right ties at the
    # minimal rt are not observable and the compare is deterministic
    want = sorted(tuple(x) for x in con.execute("""
        SELECT l.lrow, r.rt FROM l
        ASOF LEFT JOIN r ON l.k = r.rk AND l.t <= r.rt
    """).fetchall())
    got = sorted(got, key=lambda p: (p[0], p[1] is None, p[1] or 0))
    want = sorted(want, key=lambda p: (p[0], p[1] is None, p[1] or 0))
    assert got == want


def test_cube_and_grouping_sets_match_duckdb():
    import duckdb
    import pyarrow.compute as pc  # noqa: F401

    from json_schema_ray.engine.relational import (
        cube_aggregate, grouping_sets_aggregate)

    rng = np.random.default_rng(91)
    n = 2000
    t = pa.table({
        "a": pa.array([None if rng.random() < 0.05 else f"a{v}"
                       for v in rng.integers(0, 4, size=n)], pa.string()),
        "b": pa.array(rng.integers(0, 3, size=n), pa.int64()),
        "v": pa.array(rng.integers(0, 100, size=n), pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(6)
    keyf = lambda r: tuple((x is None, x if x is not None else 0)
                           for x in r)
    got = sorted(((r["a"], r["b"], r["agg_value"], r["gid"])
                  for r in cube_aggregate(ds, ["a", "b"], "v",
                                          "sum").take_all()), key=keyf)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted((tuple(r) for r in con.execute("""
        SELECT a, b, sum(v) AS s,
               CAST(grouping_id(a, b) AS BIGINT) AS gid
        FROM t GROUP BY CUBE (a, b)
    """).fetchall()), key=keyf)
    assert got == want

    got2 = sorted(((r["a"], r["b"], r["agg_value"], r["gid"])
                   for r in grouping_sets_aggregate(
                       ds, ["a", "b"], [("a",), ("b",)], None,
                       "count").take_all()), key=keyf)
    want2 = sorted((tuple(r) for r in con.execute("""
        SELECT a, b, count(*) AS c,
               CAST(grouping_id(a, b) AS BIGINT) AS gid
        FROM t GROUP BY GROUPING SETS ((a), (b))
    """).fetchall()), key=keyf)
    assert got2 == want2


def test_grouped_regression_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.stats import grouped_regression

    rng = np.random.default_rng(13)
    n = 1500
    t = pa.table({
        "k": pa.array(rng.integers(0, 8, size=n), pa.int64()),
        "x": pa.array([None if rng.random() < 0.05 else float(v)
                       for v in rng.integers(1, 50, size=n)],
                      pa.float64()),
        "y": pa.array([None if rng.random() < 0.05 else float(v)
                       for v in rng.normal(100, 20, size=n)],
                      pa.float64()),
    })
    # a zero-variance-x group and a single-pair group
    extra = pa.table({"k": pa.array([100] * 5 + [101], pa.int64()),
                      "x": pa.array([7.0] * 5 + [3.0], pa.float64()),
                      "y": pa.array([1.0, 2, 3, 4, 5, 9], pa.float64())})
    t = pa.concat_tables([t, extra])
    ds = _ray().data.from_arrow(t).repartition(6)
    out = grouped_regression(ds, "k", "y", "x").take_all()
    got = sorted((r["k"], r["n"],
                  None if r["slope"] is None else round(r["slope"], 6),
                  None if r["intercept"] is None
                  else round(r["intercept"], 6)) for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT k, CAST(regr_count(y, x) AS BIGINT) AS n,
               round(regr_slope(y, x), 6) AS slope,
               round(regr_intercept(y, x), 6) AS intercept
        FROM t GROUP BY k
    """).fetchall())
    assert got == want


def test_bigram_lm_scores_match_naive():
    """Distributed two-pass bigram LM == single-process recompute
    across a multi-block corpus (model partials must merge exactly;
    per-bigram fixed-point makes the doc sums order-free)."""
    import math
    from collections import Counter

    from json_schema_ray.engine.text import bigram_lm_scores

    texts = ["the cat sat on the mat", "the cat ran",
             "a dog sat on a log", None, "  ", "one",
             "the the the", "cat sat", "ran the cat ran the cat"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = bigram_lm_scores(_ray().data.from_arrow(t).repartition(4))
    got = sorted(out.take_all(), key=lambda r: r["doc_id"])

    toks = [([w for w in s.split() if w] if s else []) for s in texts]
    bc, cw = Counter(), Counter()
    for tk in toks:
        for p in zip(tk, tk[1:]):
            bc[p] += 1
            cw[p[0]] += 1
    v = len({a for a, _ in bc} | {b for _, b in bc})
    want = []
    for i, tk in enumerate(toks):
        bigs = list(zip(tk, tk[1:]))
        if not bigs:
            continue
        s = sum(math.floor(
            math.log((bc[p] + 1.0) / (cw[p[0]] + 1.0 * v)) * 1e6 + 0.5)
            for p in bigs)
        want.append({"doc_id": i, "n_bigrams": len(bigs),
                     "logprob_e6": s})
    assert got == want
    # docs with <2 tokens emit nothing
    assert {r["doc_id"] for r in got} == {0, 1, 2, 6, 7, 8}


def test_bigram_lm_min_count_prunes_to_fallback():
    """Pruned pairs score with the alpha-smoothed unseen-pair mass of
    their context; context counts and V stay unpruned."""
    import math

    from json_schema_ray.engine.text import bigram_lm_scores

    # "a b" appears twice, "c d" once -> min_count=2 prunes (c,d)
    texts = ["a b", "a b", "c d"]
    t = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = bigram_lm_scores(_ray().data.from_arrow(t), min_count=2)
    got = {r["doc_id"]: r["logprob_e6"] for r in out.take_all()}
    v = 4  # a, b, c, d all appear in some bigram
    ab = math.floor(math.log((2 + 1.0) / (2 + v)) * 1e6 + 0.5)
    cd = math.floor(math.log(1.0 / (1 + v)) * 1e6 + 0.5)  # unseen pair, seen ctx
    assert got == {0: ab, 1: ab, 2: cd}


def test_top_terms_per_group_matches_duckdb():
    """Grouped term top-k == SQL row_number() over (PARTITION BY
    group ORDER BY cnt DESC, term) across a multi-block corpus with a
    NULL group."""
    import duckdb

    texts = ["b a a", "a c b b", "x y", "y y x", "a a", None, "z"]
    langs = ["en", "en", "fr", "fr", None, "en", None]
    t = pa.table({"lang": pa.array(langs, pa.string()),
                  "text": pa.array(texts, pa.string())})
    from json_schema_ray.engine.text import top_terms_per_group
    out = top_terms_per_group(
        _ray().data.from_arrow(t).repartition(3), "lang", "text", k=2)
    got = sorted(out.take_all(),
                 key=lambda r: (r["lang"] or "", r["rn"]))

    con = duckdb.connect()
    con.register("documents", t)
    want = [dict(zip(["lang", "term", "cnt", "rn"], r))
            for r in con.sql(r"""
        WITH toks AS (
            SELECT lang, unnest(regexp_split_to_array(text, '\s+')) AS term
            FROM documents
        ), tc AS (
            SELECT lang, term, count(*) AS cnt FROM toks
            WHERE term <> '' GROUP BY 1, 2
        )
        SELECT lang, term, cnt,
               row_number() OVER (PARTITION BY lang
                                  ORDER BY cnt DESC, term) AS rn
        FROM tc QUALIFY rn <= 2
        ORDER BY coalesce(lang, ''), rn
    """).fetchall()]
    assert got == want


def test_throttle_by_gap_matches_duckdb():
    """LAG-based event throttle == SQL lag window + filter, across a
    multi-block stream with a composite partition key and ties
    broken by event_id."""
    import duckdb

    rng = np.random.default_rng(11)
    n = 400
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(rng.integers(0, 8, n), pa.int64()),
        "event_type": pa.array(
            rng.choice(["a", "b"], n).tolist(), pa.string()),
        "ts": pa.array(
            rng.integers(0, 3_600_000_000, n), pa.int64()).cast(
            pa.timestamp("us")),
    })
    from json_schema_ray.engine.window import throttle_by_gap
    out = throttle_by_gap(
        _ray().data.from_arrow(t).repartition(5),
        ["user_id", "event_type"], "ts", gap=300_000_000,
        tiebreak="event_id")
    got = sorted(r["event_id"] for r in out.take_all())

    con = duckdb.connect()
    con.register("events", t)
    want = [r[0] for r in con.sql("""
        SELECT event_id FROM (
            SELECT event_id, ts,
                   lag(ts) OVER (PARTITION BY user_id, event_type
                                 ORDER BY ts, event_id) AS pts
            FROM events)
        WHERE pts IS NULL OR ts - pts > INTERVAL 5 MINUTE
        ORDER BY event_id
    """).fetchall()]
    assert got == want
    assert 0 < len(got) < n


def test_throttle_by_gap_ms_unit_column():
    """An integer gap is MICROSECONDS regardless of the ts column's
    unit: a ms-unit column must produce the same keep-set as the
    same instants in us (the silent 1e3x-too-large-gap bug class),
    and a gap that isn't a whole number of ticks must raise."""
    from json_schema_ray.engine.window import throttle_by_gap

    rng = np.random.default_rng(12)
    n = 300
    ms = rng.integers(0, 3_600_000, n) * 1000  # whole ms, in us
    base = {
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(rng.integers(0, 6, n), pa.int64()),
    }
    t_us = pa.table({**base, "ts": pa.array(ms, pa.int64()).cast(
        pa.timestamp("us"))})
    t_ms = pa.table({**base, "ts": pa.array(ms // 1000, pa.int64())
                     .cast(pa.timestamp("ms"))})
    kw = dict(keys=["user_id"], ts="ts", gap=300_000_000,
              tiebreak="event_id")
    got_us = sorted(r["event_id"] for r in throttle_by_gap(
        _ray().data.from_arrow(t_us).repartition(4), **kw).take_all())
    got_ms = sorted(r["event_id"] for r in throttle_by_gap(
        _ray().data.from_arrow(t_ms).repartition(4), **kw).take_all())
    assert got_us == got_ms
    assert 0 < len(got_us) < n

    import pytest
    with pytest.raises(Exception, match="whole number"):
        throttle_by_gap(_ray().data.from_arrow(t_ms), ["user_id"],
                        "ts", gap=1_500, tiebreak="event_id").take_all()


def test_melt_unpivots_with_nulls():
    from json_schema_ray.engine.relational import melt

    t = pa.table({"id": pa.array([1, 2], pa.int64()),
                  "a": pa.array([1.5, None], pa.float64()),
                  "b": pa.array([7, 8], pa.int64())})
    out = melt(_ray().data.from_arrow(t).repartition(2), ["id"],
               ["a", "b"])
    got = sorted(out.take_all(),
                 key=lambda r: (r["id"], r["variable"]))
    assert got == [
        {"id": 1, "variable": "a", "value": 1.5},
        {"id": 1, "variable": "b", "value": 7.0},
        {"id": 2, "variable": "a", "value": None},
        {"id": 2, "variable": "b", "value": 8.0},
    ]


def test_weighted_sample_deterministic_and_weighted():
    """A-Res weighted sample: exact DuckDB parity (same splitmix
    uniform, same score), determinism across runs, and heavy weights
    dominating the draw."""
    import duckdb

    from json_schema_ray.engine.relational import (splitmix64_sql,
                                                   weighted_sample)

    n = 1000
    w = np.where(np.arange(n) < 100, 100.0, 1.0)
    t = pa.table({"id": pa.array(np.arange(n), pa.int64()),
                  "w": pa.array(w, pa.float64())})
    ds = _ray().data.from_arrow(t).repartition(4)
    a = weighted_sample(ds, "id", "w", k=200)
    b = weighted_sample(ds, "id", "w", k=200)
    ids_a = sorted(a["id"].to_pylist())
    assert ids_a == sorted(b["id"].to_pylist())  # deterministic
    heavy = sum(1 for i in ids_a if i < 100)
    assert heavy >= 90  # 100x weight -> nearly all heavy rows win

    con = duckdb.connect()
    con.register("t", t)
    want = sorted(r[0] for r in con.sql(f"""
        WITH s AS (
            SELECT id, ln((2.0 * ({splitmix64_sql('id')} >> 11) + 1)
                       / 18014398509481984.0) / w AS score
            FROM t WHERE w > 0)
        SELECT id FROM s ORDER BY score DESC, id LIMIT 200
    """).fetchall())
    assert ids_a == want


def test_cap_per_group_matches_duckdb():
    """Hash-draw domain cap == SQL row_number over the CAST-to-DOUBLE
    splitmix order, with a null group and a group under the cap."""
    import duckdb

    from json_schema_ray.engine.rank import cap_per_group
    from json_schema_ray.engine.relational import splitmix64_sql

    n = 300
    t = pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "g": pa.array((["a"] * 150 + ["b"] * 140 + [None] * 8
                       + ["tiny"] * 2), pa.string()),
    })
    out = cap_per_group(_ray().data.from_arrow(t).repartition(4),
                        ["g"], "id", k=5, seed=7)
    got = sorted(((r["g"] or "", r["id"]) for r in out.take_all()))

    con = duckdb.connect()
    con.register("t", t)
    want = sorted((g or "", i) for i, g in con.sql(f"""
        SELECT id, g FROM (
            SELECT id, g, row_number() OVER (PARTITION BY g
                ORDER BY CAST({splitmix64_sql('id', 7)} AS DOUBLE),
                         id) AS rn
            FROM t) WHERE rn <= 5
    """).fetchall())
    assert got == want
    assert sum(1 for g, _ in got if g == "tiny") == 2  # under-cap kept


def test_cohort_retention_matches_duckdb():
    """Distributed cohort matrix == SQL distinct-pairs + min-week
    cohort + join + count, across a multi-block event stream with
    null users and timestamps."""
    import datetime as dt

    import duckdb

    from json_schema_ray.engine.window import cohort_retention

    rng = np.random.default_rng(5)
    n = 2000
    base = dt.datetime(2024, 1, 1)
    ts = [base + dt.timedelta(minutes=int(m))
          for m in rng.integers(0, 60 * 24 * 40, n)]
    users = rng.integers(0, 40, n).astype(object)
    users[:20] = None
    ts[5] = None
    t = pa.table({"user_id": pa.array(users.tolist(), pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us"))})
    got = cohort_retention(
        _ray().data.from_arrow(t).repartition(5)).to_pylist()

    con = duckdb.connect()
    con.register("events", t)
    want = [dict(zip(["cohort_week", "week", "n_users"], r))
            for r in con.sql("""
        WITH pw AS (
            SELECT DISTINCT user_id,
                   date_trunc('week', ts)::TIMESTAMP AS week
            FROM events
            WHERE user_id IS NOT NULL AND ts IS NOT NULL
        ), c AS (SELECT user_id, min(week) AS cohort_week
                 FROM pw GROUP BY 1)
        SELECT c.cohort_week, pw.week, count(*)::BIGINT
        FROM pw JOIN c USING (user_id) GROUP BY 1, 2 ORDER BY 1, 2
    """).fetchall()]
    assert got == want


def test_nearest_neighbor_join_matches_bruteforce():
    """Slab-wise broadcast NN self-join == numpy brute force with the
    same fixed-point (score desc, id asc) total order, across blocks
    and a slab size that forces multi-slab merges."""
    from json_schema_ray.engine.similarity import nearest_neighbor_join

    rng = np.random.default_rng(9)
    n, d = 120, 8
    m = rng.normal(size=(n, d))
    m[7] = m[3] * 2.0  # exact-direction duplicate pair
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([row.tolist() for row in m],
                              pa.list_(pa.float32())),
    })
    out = nearest_neighbor_join(
        _ray().data.from_arrow(t).repartition(4), col_block=17)
    got = {r["vec_id"]: (r["nn_id"], r["cosine_e6"])
           for r in out.take_all()}

    mm = m.astype(np.float32).astype(np.float64)
    mm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
    e6 = np.floor(mm @ mm.T * 1e6 + 0.5).astype(np.int64)
    np.fill_diagonal(e6, np.iinfo(np.int64).min)
    want = {}
    for i in range(n):
        best = e6[i].max()
        nn = int(min(j for j in range(n) if e6[i, j] == best))
        want[int(ids[i])] = (nn, int(best))
    assert got == want
    assert got[3][0] == 7 and got[3][1] == 1000000


def test_grouped_approx_distinct_bounds_and_determinism():
    """Grouped HLL sketch aggregate: per-group estimates equal a
    single-process HyperLogLog over the same values (merge order
    can't change elementwise max), and sit within the p=12 error
    bound of the exact distinct counts; NULL keys form a group,
    NULL values don't count."""
    from collections import defaultdict

    from json_schema_ray.engine.stats import (_hash_column,
                                              grouped_approx_distinct)
    from json_schema_ray.state.sketches import HyperLogLog

    rng = np.random.default_rng(21)
    n = 20000
    vals = rng.integers(0, 3000, n).astype(object)
    vals[:50] = None
    t = pa.table({
        "g": pa.array(rng.choice(["x", "y", None], n).tolist(),
                      pa.string()),
        "v": pa.array(vals.tolist(), pa.int64()),
    })
    out = {r["g"]: r["n_approx"]
           for r in grouped_approx_distinct(
               _ray().data.from_arrow(t).repartition(5),
               "g", "v", p=12).take_all()}

    groups = defaultdict(list)
    exact = defaultdict(set)
    for g, v in zip(t["g"].to_pylist(), t["v"].to_pylist()):
        if v is not None:
            groups[g].append(v)
            exact[g].add(v)
    assert set(out) == set(groups)
    for g, vv in groups.items():
        hll = HyperLogLog(12)
        hll.add_hashed(_hash_column(pa.array(vv, pa.int64())))
        assert out[g] == hll.estimate()  # merge-order independent
        assert abs(out[g] - len(exact[g])) / len(exact[g]) < 0.05


def test_funnel_user_counts_matches_duckdb():
    """Greedy ordered funnel == the SQL chained min-after-threshold
    form, across blocks, with nulls, a step no one completes, and
    same-timestamp ties that must NOT advance."""
    import datetime as dt

    import duckdb

    from json_schema_ray.engine.window import funnel_user_counts

    base = dt.datetime(2024, 1, 1)

    def at(s):
        return base + dt.timedelta(seconds=s)

    rows = [
        # user 1: clean A -> B -> C
        (1, at(0), "A"), (1, at(10), "B"), (1, at(20), "C"),
        # user 2: B before A only -> stops at A
        (2, at(5), "B"), (2, at(6), "A"),
        # user 3: A and B at the SAME ts -> tie must not advance
        (3, at(0), "A"), (3, at(0), "B"), (3, at(9), "C"),
        # user 4: A -> B, no C
        (4, at(1), "A"), (4, at(2), "B"),
        # nulls never advance
        (None, at(0), "A"), (5, None, "A"),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    got = funnel_user_counts(
        _ray().data.from_arrow(t).repartition(4),
        ["A", "B", "C"]).to_pylist()

    con = duckdb.connect()
    con.register("events", t)
    want = [dict(zip(["step", "event_type", "n_keys"], r))
            for r in con.sql("""
        WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
                    WHERE event_type='A' AND user_id IS NOT NULL
                      AND ts IS NOT NULL GROUP BY 1),
        s2 AS (SELECT e.user_id, min(e.ts) AS t
               FROM events e JOIN s1 USING (user_id)
               WHERE e.event_type='B' AND e.ts > s1.t GROUP BY 1),
        s3 AS (SELECT e.user_id, min(e.ts) AS t
               FROM events e JOIN s2 USING (user_id)
               WHERE e.event_type='C' AND e.ts > s2.t GROUP BY 1)
        SELECT 1::BIGINT AS step, 'A' AS event_type,
               count(*)::BIGINT AS n_keys FROM s1
        UNION ALL SELECT 2, 'B', count(*) FROM s2
        UNION ALL SELECT 3, 'C', count(*) FROM s3 ORDER BY step
    """).fetchall()]
    assert got == want
    assert [r["n_keys"] for r in got] == [4, 2, 1]


def test_grouped_approx_distinct_float32_and_null_ids_capped():
    """Regressions from review: float32 value columns hash without
    crashing (widened to float64, -0.0 folded), and cap_per_group
    ranks NULL ids last like SQL's NULL splitmix order."""
    from json_schema_ray.engine.rank import cap_per_group
    from json_schema_ray.engine.stats import grouped_approx_distinct

    t = pa.table({"g": pa.array(["a"] * 5, pa.string()),
                  "v": pa.array([1.5, -0.0, 0.0, None, 2.5],
                                pa.float32())})
    out = grouped_approx_distinct(_ray().data.from_arrow(t),
                                  "g", "v", p=10).take_all()
    # distinct non-null values: {1.5, 0.0, 2.5} (signed zeros equal)
    assert len(out) == 1 and abs(out[0]["n_approx"] - 3) < 0.5

    t2 = pa.table({"g": pa.array(["x"] * 4, pa.string()),
                   "id": pa.array([1, 2, 3, None], pa.int64())})
    kept = cap_per_group(_ray().data.from_arrow(t2), ["g"], "id",
                         k=3).take_all()
    ids = {r["id"] for r in kept}
    assert None not in ids and len(ids) == 3  # NULL id ranked last


def test_split_assign_fractions_and_consistency():
    """Deterministic splits: proportions near the requested
    fractions, identical across runs and block layouts, NULL keys
    get NULL split."""
    from collections import Counter

    from json_schema_ray.engine.relational import split_assign

    n = 20000
    ids = np.arange(n).astype(object)
    ids[0] = None
    t = pa.table({"id": pa.array(ids.tolist(), pa.int64())})
    a = split_assign(_ray().data.from_arrow(t).repartition(3),
                     "id", [0.8, 0.1]).take_all()
    b = split_assign(_ray().data.from_arrow(t).repartition(7),
                     "id", [0.8, 0.1]).take_all()
    ga = {r["id"]: r["split"] for r in a}
    gb = {r["id"]: r["split"] for r in b}
    assert ga == gb  # layout-independent
    assert ga[None] is None
    c = Counter(v for k, v in ga.items() if k is not None)
    assert abs(c["train"] / (n - 1) - 0.8) < 0.02
    assert abs(c["val"] / (n - 1) - 0.1) < 0.02
    assert abs(c["test"] / (n - 1) - 0.1) < 0.02


def test_grouped_approx_quantiles_rank_error():
    """Grouped t-digest quantiles: each estimate's true rank within
    its group is close to the requested q across a multi-block input
    with a null group and null values."""
    from json_schema_ray.engine.stats import grouped_approx_quantiles

    rng = np.random.default_rng(13)
    n = 30000
    g = rng.choice(["a", "b", None], n, p=[0.6, 0.3, 0.1]).astype(object)
    v = rng.lognormal(0, 1, n).astype(object)
    v[:100] = None
    t = pa.table({"g": pa.array(g.tolist(), pa.string()),
                  "v": pa.array(v.tolist(), pa.float64())})
    out = grouped_approx_quantiles(
        _ray().data.from_arrow(t).repartition(6), "g", "v",
        qs=(0.1, 0.5, 0.9)).take_all()
    assert len(out) == 9

    vals = {}
    for gg, vv in zip(g.tolist(), v.tolist()):
        if vv is not None:
            vals.setdefault(gg, []).append(vv)
    for r in out:
        sv = np.sort(vals[r["g"]])
        rank = np.searchsorted(sv, r["value"]) / len(sv)
        assert abs(rank - r["q"]) < 0.03, (r, rank)


def test_share_of_group_matches_duckdb():
    """Ratio-to-report == SQL value/sum() OVER (PARTITION BY key),
    with null keys, null values, and a zero-total group."""
    import duckdb

    from json_schema_ray.engine.relational import share_of_group

    t = pa.table({
        "g": pa.array(["a", "a", "b", None, None, "z"], pa.string()),
        "v": pa.array([3, 7, 5, 2, None, 0], pa.int64()),
    })
    out = share_of_group(_ray().data.from_arrow(t).repartition(3),
                         "g", "v").take_all()
    got = sorted(((r["g"] or "", r["v"] if r["v"] is not None else -1,
                   r["share_e6"]) for r in out))

    con = duckdb.connect()
    con.register("t", t)
    want = sorted(((g or "", v if v is not None else -1, s)
                   for g, v, s in con.sql("""
        SELECT g, v,
               CAST(floor(CAST(v AS DOUBLE)
                    / CAST(sum(v) OVER (PARTITION BY g) AS DOUBLE)
                    * 1e6 + 0.5) AS BIGINT) AS share_e6
        FROM t
    """).fetchall()))
    assert got == want
    # zero-total group 'z' yields NULL share on both sides
    assert any(g == "z" and s is None for g, _, s in got)


def test_url_domain_counts_matches_duckdb():
    """Token-level first-match URL extraction == DuckDB
    regexp_extract_all over the whole text, including mid-token
    URLs, uppercase hosts, malformed authorities and null text."""
    import duckdb

    from json_schema_ray.engine.text import url_domain_counts

    texts = [
        "plain text no urls at all",
        "see http://A.Example.com/x and http://a.example.com?q=1",
        "dup http://a.example.com/y here",
        "mid-token wraphttp://B.org/z trailing",
        "https://secure.net/p http://a.example.com",
        "malformed http:/// authority http://:8080/x",
        None,
        "punct (http://paren.io/a), tail http://paren.io",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = url_domain_counts(
        _ray().data.from_arrow(t).repartition(3)).take_all()
    got = sorted((r["domain"], r["n_urls"], r["n_docs"]) for r in out)

    con = duckdb.connect()
    con.register("t", t)
    want = sorted(con.sql(r"""
        WITH u AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(text,
                          'https?://[^\s]+')) AS url
            FROM t
        ), d AS (
            SELECT doc_id,
                   lower(regexp_extract(url,
                         '^https?://([^/:?#\s]+)', 1)) AS domain
            FROM u
        )
        SELECT domain, count(*)::BIGINT AS n_urls,
               count(DISTINCT doc_id)::BIGINT AS n_docs
        FROM d GROUP BY 1
    """).fetchall())
    assert got == want
    assert any(d == "" for d, _, _ in got)          # malformed host
    assert any(d == "a.example.com" for d, _, _ in got)


def test_lm_quality_buckets_ansi_distribution():
    """Bucket assignment == numpy recomputation from the operator's
    own scores (order by avg logprob asc, doc_id tiebreak; first
    n % k buckets one row larger), across blocks and with n % k != 0."""
    from json_schema_ray.engine.text import (bigram_lm_scores,
                                             lm_quality_buckets)

    rng = np.random.default_rng(11)
    words = ["aa", "bb", "cc", "dd", "ee"]
    texts = [" ".join(rng.choice(words, size=int(n)))
             for n in rng.integers(2, 12, 11)]
    t = pa.table({"doc_id": pa.array(range(11), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(3)
    got = lm_quality_buckets(ds, k=4).to_pylist()

    s = pa.concat_tables(
        [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
         else b for b in
         bigram_lm_scores(_ray().data.from_arrow(t).repartition(3))
         .iter_batches(batch_format="pyarrow")]).to_pydict()
    avg = np.array(s["logprob_e6"], np.float64) / \
        np.array(s["n_bigrams"], np.float64)
    order = np.lexsort((np.array(s["doc_id"]), avg))
    n, k = len(order), 4
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    nb = np.array(s["n_bigrams"])[order]
    exp, pos = [], 0
    for i, sz in enumerate(sizes):
        exp.append({"bucket": i + 1, "n_docs": sz,
                    "n_bigrams_total": int(nb[pos:pos + sz].sum())})
        pos += sz
    assert got == exp
    assert sizes[0] > sizes[-1]  # n % k != 0 actually exercised


def test_range_windowed_sum_negative_values():
    """Sign-robustness: the prefix-sum scan must not assume a
    monotone prefix sum (negative contributions), including many
    exact (key, ts) peer duplicates."""
    import datetime

    import duckdb

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(77)
    n = 600
    base = np.int64(1_700_000_000_000_000)
    # coarse grid => many exact (k, ts) peers spanning blocks
    tsv = base + rng.integers(0, 40, size=n) * 60_000_000
    t = pa.table({
        "k": pa.array(rng.integers(0, 4, size=n), pa.int64()),
        "ts": pa.array(tsv, pa.timestamp("us")),
        "v": pa.array([None if rng.random() < 0.1
                       else float(x) for x in
                       rng.integers(-50, 50, size=n)], pa.float64()),
    })
    ds = _ray().data.from_arrow(t).repartition(9)
    out = range_windowed_sum(ds, "k", "ts", "v",
                             datetime.timedelta(minutes=5)).take_all()
    got = sorted((r["k"], r["ts"],
                  None if r["range_sum"] is None
                  else round(r["range_sum"], 6), r["range_cnt"])
                 for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT DISTINCT k, ts,
               round(sum(v) OVER w, 6) AS range_sum,
               CAST(count(v) OVER w AS BIGINT) AS range_cnt
        FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
            RANGE BETWEEN INTERVAL 5 MINUTE PRECEDING AND CURRENT ROW)
    """).fetchall())
    assert got == want


def _nulls_first_key(row):
    return tuple((x is not None, 0 if x is None else x) for x in row)


def _range_oracle(t, win_ticks, key="k"):
    """DuckDB's RANGE frame over the int64 tick column ``tk``: one
    ``(key, tk, sum, count)`` row per distinct ``(key, tk)``."""
    import duckdb

    con = duckdb.connect()
    con.register("t", t)
    return sorted((tuple(r) for r in con.execute(f"""
        SELECT DISTINCT {key}, tk, sum(v) OVER w,
               CAST(count(v) OVER w AS BIGINT)
        FROM t WINDOW w AS (PARTITION BY {key} ORDER BY tk
            RANGE BETWEEN {win_ticks} PRECEDING AND CURRENT ROW)
    """).fetchall()), key=_nulls_first_key)


def _range_rows(out, key="k"):
    """``(key, ts ticks, range_sum, range_cnt)`` rows of a
    range_windowed_sum result, ticks read exactly from Arrow."""
    import pyarrow.compute as pc

    rows = []
    for b in out.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            rows += zip(b[key].to_pylist(),
                        pc.cast(b["ts"], pa.int64()).to_pylist(),
                        b["range_sum"].to_pylist(),
                        b["range_cnt"].to_pylist())
    return sorted(rows, key=_nulls_first_key)


def _range_table(k, tk, v, unit="us"):
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "ts": pa.array(tk, pa.int64()).cast(pa.timestamp(unit)),
        "tk": pa.array(tk, pa.int64()),
        "v": pa.array(v, pa.float64())})


def _range_frames_over_blocks(t, cuts, win_us):
    """The range scan over ``t`` sorted (NULLS LAST) and cut into
    blocks at ``cuts`` — a duplicated cut makes an empty block — so
    runs split across blocks deterministically, which a range
    partitioned sort never does (equal sort keys share a partition)."""
    from json_schema_ray.engine.window import _range_frames

    st = t.sort_by([("k", "ascending"), ("ts", "ascending")],
                   null_placement="at_end")
    edges = [0] + list(cuts) + [st.num_rows]
    blocks = [st.slice(a, b - a) for a, b in zip(edges, edges[1:])]
    return _range_frames(_ray().data.from_arrow(blocks), "k", "ts",
                         "v", win_us, "range_sum", "range_cnt")


def test_range_windowed_sum_null_ts_frames_its_peers():
    """A NULL ts orders last within its key and its RANGE frame is
    its NULL peers, as in DuckDB: values 1.0 and 2.0 at NULL ts give
    (3.0, 2), not a NULL sum over an empty frame. Checked on a fixed
    case and on a random multi-block one."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    base = 1_700_000_000_000_000
    t = _range_table([7, 7, 7, 7, 8], [base, None, base + 60_000_000,
                                       None, None],
                     [4.0, 1.0, 0.5, 2.0, None])
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(3), "k", "ts", "v",
        datetime.timedelta(minutes=5))
    assert _range_rows(out) == [
        (7, None, 3.0, 2), (7, base, 4.0, 1),
        (7, base + 60_000_000, 4.5, 2), (8, None, None, 0)]

    rng = np.random.default_rng(91)
    n = 500
    tk = (base + rng.integers(0, 30, n) * 60_000_000).astype(object)
    tk[rng.random(n) < 0.2] = None
    t = _range_table(rng.integers(0, 5, n).tolist(), tk.tolist(),
                     rng.integers(-20, 80, n).astype(float).tolist())
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(7), "k", "ts", "v",
        datetime.timedelta(minutes=5))
    assert _range_rows(out) == _range_oracle(t, 300_000_000)


def test_range_windowed_sum_hot_key_window_spans_blocks():
    """One key holds most rows and its 10-minute window covers its
    whole 5-minute history, so every frame reaches back over many
    blocks: through the public path, and through the scan over
    explicit blocks of 37 rows (the hot key spans 8 of them)."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(92)
    n = 360
    base = 1_700_000_000_000_000
    k = np.where(rng.random(n) < 0.85, 3, rng.integers(0, 6, n))
    tk = base + rng.integers(0, 300, n) * 1_000_000
    t = _range_table(k.tolist(), tk.tolist(),
                     rng.integers(-9, 30, n).astype(float).tolist())
    want = _range_oracle(t, 600_000_000)
    assert sum(1 for r in want if r[0] == 3) > 150
    cuts = list(range(37, n, 37))
    got = _range_rows(_range_frames_over_blocks(t, cuts, 600_000_000))
    assert got == want
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(9), "k", "ts", "v",
        datetime.timedelta(minutes=10))
    assert _range_rows(out) == want


def test_range_windowed_sum_peer_group_split_over_blocks():
    """A (key, ts) peer group, and a NULL-ts peer group, each split
    over at least 3 blocks (one block holds nothing else, one block
    is empty) is output once with all of its peers counted."""
    base = 1_700_000_000_000_000
    k, tk, v = [], [], []
    for i in range(8):                  # key 1: a lead-in
        k.append(1), tk.append(base + i * 1_000_000), v.append(1.0)
    for i in range(30):                 # key 1: 30 peers
        k.append(1), tk.append(base + 9_000_000), v.append(float(i))
    for i in range(6):                  # key 1: after the peers
        k.append(1), tk.append(base + 10_000_000 + i), v.append(-2.0)
    for i in range(25):                 # key 1: NULL-ts peers
        k.append(1), tk.append(None), v.append(None if i % 5 else 3.0)
    for i in range(5):                  # key 2 follows
        k.append(2), tk.append(base + i), v.append(1.0)
    t = _range_table(k, tk, v)
    # peers at rows 8..37, NULL ts at rows 44..68
    cuts = [5, 12, 20, 20, 30, 40, 50, 60, 66, 70]
    for win in (0, 3_000_000, 60_000_000):
        got = _range_rows(_range_frames_over_blocks(t, cuts, win))
        assert got == _range_oracle(t, win)
        assert len(got) == len({(r[0], r[1]) for r in got})


def test_range_windowed_sum_null_keys_over_blocks():
    """NULL keys form one partition (SQL PARTITION BY), across
    blocks."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(93)
    n = 400
    base = 1_700_000_000_000_000
    k = rng.integers(0, 3, n).astype(object)
    k[rng.random(n) < 0.4] = None
    tk = base + rng.integers(0, 40, n) * 30_000_000
    t = _range_table(k.tolist(), tk.tolist(),
                     rng.integers(0, 50, n).astype(float).tolist())
    want = _range_oracle(t, 120_000_000)
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(8), "k", "ts", "v",
        datetime.timedelta(minutes=2))
    assert _range_rows(out) == want
    cuts = list(range(45, n, 45))
    assert _range_rows(
        _range_frames_over_blocks(t, cuts, 120_000_000)) == want


def test_range_windowed_sum_more_blocks_than_rows():
    """More blocks than rows: the sort leaves empty blocks (some
    with no columns at all), which the scan and the resolve pass
    through."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    base = 1_700_000_000_000_000
    t = _range_table([1, 1, 2, 1, 2, 1, None, 1, 2, 1, 1, 2],
                     [None if i is None else base + i * 20_000_000
                      for i in (0, 1, 1, 2, 5, 6, 6, 6, 9, 14, None,
                                None)],
                     [1.0, 2.0, 3.0, None, 5.0, 6.0, 7.0, 8.0, 9.0,
                      10.0, 11.0, 12.0])
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(40), "k", "ts", "v",
        datetime.timedelta(minutes=1))
    assert _range_rows(out) == _range_oracle(t, 60_000_000)


@pytest.mark.parametrize("unit,per_s", [("s", 1), ("ms", 1_000),
                                        ("ns", 1_000_000_000)])
def test_range_windowed_sum_time_units(unit, per_s):
    """The frame is computed in the column's own int64 ticks: second,
    millisecond and nanosecond columns get the same 2-second window,
    and nanosecond epochs (above 2^53) stay exact to the tick at the
    frame edge."""
    import datetime

    from json_schema_ray.engine.window import range_windowed_sum

    rng = np.random.default_rng(94)
    n = 300
    win = 2 * per_s
    base = 1_700_000_000 * per_s
    tk = base + rng.integers(0, 20, n) * per_s
    if unit == "ns":
        # rows exactly at the frame edge and one tick past it
        tk = tk + rng.choice([0, 1, 2], n)
    t = _range_table(rng.integers(0, 4, n).tolist(), tk.tolist(),
                     rng.integers(0, 99, n).astype(float).tolist(),
                     unit=unit)
    out = range_windowed_sum(
        _ray().data.from_arrow(t).repartition(6), "k", "ts", "v",
        datetime.timedelta(seconds=2))
    assert _range_rows(out) == _range_oracle(t, win)


def _ns_order_table(seed, n=400, nulls=False):
    """timestamp[ns] order column at a 2023 epoch, with ties broken
    by an int64 tiebreak above 2^53 whose neighbours share a float64
    value. ``tu`` is a unique timestamp[ns] column 1 ns apart and
    ``s`` a string column. With ``nulls``, 30% of ``v`` and ``s`` and
    5% of ``ts`` are NULL."""
    rng = np.random.default_rng(seed)
    base = 1_700_000_000_000_000_000
    tsv = base + rng.integers(0, 40, n) * 1_000 + rng.integers(0, 3, n)
    k = rng.integers(0, 3, n)
    tb = (1 << 60) + rng.permutation(n)
    v = rng.integers(-50, 50, n).astype(float)
    miss = rng.random(n) < (0.3 if nulls else 0.0)
    ts_miss = rng.random(n) < (0.05 if nulls else 0.0)
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "ts": pa.array(tsv, pa.int64(), mask=ts_miss)
        .cast(pa.timestamp("ns")),
        "tb": pa.array(tb, pa.int64()),
        "v": pa.array(v, mask=miss),
        "tu": pa.array(base + rng.permutation(n), pa.int64())
        .cast(pa.timestamp("ns")),
        "s": pa.array([f"s{int(x)}" for x in v], pa.string(), mask=miss),
    })


def _by_tiebreak(ds, col):
    got = {}
    for b in ds.iter_batches(batch_format="pyarrow"):
        got.update(zip(b["tb"].to_pylist(), b[col].to_pylist()))
    return got


def _duckdb_by_tiebreak(t, expr):
    import duckdb

    con = duckdb.connect()
    con.register("t", t)
    return dict(con.execute(f"""
        SELECT tb, {expr} OVER (PARTITION BY k ORDER BY ts, tb)
        FROM t""").fetchall())


@pytest.mark.parametrize("fn,expr", [
    ("lag_column", "lag(v)"), ("lead_column", "lead(v)")])
def test_shift_column_ns_order_above_2_53(fn, expr):
    """lag/lead carries compare exact int64 positions: a
    timestamp[ns] order column and an int64 tiebreak above 2^53 no
    longer go through float64 (which raised ArrowInvalid, and would
    merge neighbouring tiebreaks)."""
    import json_schema_ray.engine.rank as rank

    t = _ns_order_table(95)
    out = getattr(rank, fn)(_ray().data.from_arrow(t).repartition(6),
                            "k", "ts", "v", "tb", out="o")
    assert _by_tiebreak(out, "o") == _duckdb_by_tiebreak(t, expr)


def test_cumulative_sum_ns_order_above_2_53():
    """cumulative_sum's carries compare exact int64 positions over a
    timestamp[ns] order column and an int64 tiebreak above 2^53."""
    from json_schema_ray.engine.rank import cumulative_sum

    t = _ns_order_table(96)
    out = cumulative_sum(_ray().data.from_arrow(t).repartition(6),
                         "k", "ts", "v", "tb")
    # (ts, tb) is unique, so the default frame is the running total
    want = _duckdb_by_tiebreak(t, "sum(v)")
    assert _by_tiebreak(out, "running_sum") == want


def _rows_of(*cols):
    def rows(ds):
        return [tuple(r[c] for c in cols) for r in ds.take_all()]
    return rows


_W3 = ("(PARTITION BY k ORDER BY ts, tb"
       " ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
_RUN = "(PARTITION BY k ORDER BY ts, tb ROWS UNBOUNDED PRECEDING)"
_QS = (0.25, 0.5, 0.9)

# name -> (operator call, its output as tuples, the DuckDB twin)
_NS_CASES = {
    "windowed_sum": (
        lambda r, ds: r.windowed_sum(ds, "k", "ts", "v", "tb", 3),
        _rows_of("tb", "win_sum", "win_cnt"),
        f"SELECT tb, sum(v) OVER {_W3}, count(v) OVER {_W3} FROM t"),
    "windowed_median": (
        lambda r, ds: r.windowed_median(ds, "k", "ts", "v", "tb", 3),
        _rows_of("tb", "med2", "win_cnt"),
        f"SELECT tb, CAST(2 * median(v) OVER {_W3} AS BIGINT),"
        f" count(v) OVER {_W3} FROM t"),
    "windowed_extrema": (
        lambda r, ds: r.windowed_extrema(ds, "k", "ts", "v", "tb", 3),
        _rows_of("tb", "win_min", "win_max"),
        f"SELECT tb, CAST(min(v) OVER {_W3} AS BIGINT),"
        f" CAST(max(v) OVER {_W3} AS BIGINT) FROM t"),
    "windowed_distinct_count": (
        lambda r, ds: r.windowed_distinct_count(ds, "k", "ts", "v", "tb",
                                                3),
        _rows_of("tb", "win_distinct"),
        # the operator emits NULL, not 0, on an empty frame
        f"SELECT tb, CASE WHEN count(v) OVER {_W3} > 0"
        f" THEN count(DISTINCT v) OVER {_W3} END FROM t"),
    "grouped_forward_fill": (
        lambda r, ds: r.grouped_forward_fill(ds, "k", "ts", "v", "tb"),
        _rows_of("tb", "filled"),
        f"SELECT tb, last_value(v IGNORE NULLS) OVER {_RUN} FROM t"),
    "cumulative_max": (
        lambda r, ds: r.cumulative_max(ds, "k", "ts", "v", "tb"),
        _rows_of("tb", "running_max"),
        f"SELECT tb, max(v) OVER {_RUN} FROM t"),
    "lead_column": (
        lambda r, ds: r.lead_column(ds, "k", "ts", "v", "tb"),
        _rows_of("tb", "lead_value"),
        "SELECT tb, lead(v) OVER (PARTITION BY k ORDER BY ts, tb)"
        " FROM t"),
    "trailing_concat": (
        lambda r, ds: r.trailing_concat(ds, "k", "ts", "s", "tb", 3,
                                        sep="|"),
        _rows_of("tb", "ctx", "n_ctx"),
        "SELECT tb, string_agg(coalesce(s, ''), '|') OVER w,"
        " count(*) OVER w FROM t WINDOW w AS (PARTITION BY k"
        " ORDER BY ts, tb ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING)"),
    "grouped_top_k_asc": (
        lambda r, ds: r.grouped_top_k(ds, ["k"], "ts", 5,
                                      descending=False, tiebreak="tb"),
        _rows_of("tb", "rn"),
        "SELECT * FROM (SELECT tb, row_number() OVER (PARTITION BY k"
        " ORDER BY ts ASC NULLS LAST, tb) AS rn FROM t) WHERE rn <= 5"),
    "grouped_top_k_desc": (
        lambda r, ds: r.grouped_top_k(ds, ["k"], "ts", 5,
                                      descending=True, tiebreak="tb"),
        _rows_of("tb", "rn"),
        "SELECT * FROM (SELECT tb, row_number() OVER (PARTITION BY k"
        " ORDER BY ts DESC NULLS LAST, tb) AS rn FROM t) WHERE rn <= 5"),
    "grouped_exact_quantiles": (
        lambda r, ds: r.grouped_exact_quantiles(ds, "k", "v", _QS, "tb"),
        _rows_of("k", "q", "value"),
        " UNION ALL ".join(
            f"SELECT k, {q}::DOUBLE, quantile_disc(v, {q}) FROM t"
            " WHERE v IS NOT NULL GROUP BY k" for q in _QS)),
    "grouped_quantiles_cont": (
        lambda r, ds: r.grouped_quantiles_cont(ds, "k", "v", _QS, "tb"),
        _rows_of("k", "q", "value"),
        " UNION ALL ".join(
            f"SELECT k, {q}::DOUBLE, quantile_cont(v, {q}) FROM t"
            " WHERE v IS NOT NULL GROUP BY k" for q in _QS)),
    "grouped_string_agg": (
        lambda r, ds: r.grouped_string_agg(ds, "k", "tu", "s"),
        _rows_of("k", "agg"),
        "SELECT k, string_agg(s, ',' ORDER BY tu) FROM t"
        " WHERE s IS NOT NULL GROUP BY k"),
}


@pytest.mark.parametrize("n,blocks", [(400, 1), (400, 6), (400, 40),
                                      (12, 40)],
                         ids=["400x1", "400x6", "400x40", "12x40"])
@pytest.mark.parametrize("case", sorted(_NS_CASES))
def test_sorted_ops_ns_order_above_2_53(case, n, blocks):
    """Every sorted-scan operator over a timestamp[ns] order column
    at a 1.7e18 epoch, an int64 tiebreak at 2^60 (neighbours share a
    float64), NULL values and NULL order values, against its DuckDB
    twin. Positions stay exact int64 (float64 raised ArrowInvalid or
    merged neighbours). 12 rows in 40 blocks leaves empty blocks,
    some without columns."""
    import duckdb

    import json_schema_ray.engine.rank as rank

    run, rows, sql = _NS_CASES[case]
    t = _ns_order_table(97, n=n, nulls=True)
    con = duckdb.connect()
    con.register("t", t)
    out = run(rank, _ray().data.from_arrow(t).repartition(blocks))

    def norm(tuples):
        return sorted((tuple(round(x, 8) if isinstance(x, float) else x
                             for x in r) for r in tuples), key=repr)

    assert norm(rows(out)) == norm(con.execute(sql).fetchall())


def _scan_table(seed, n):
    """Rows for the sorted-scan operators: a nullable int64 key ``k``
    (20% NULL), a minute-grid timestamp ``ts`` (5% NULL), a unique
    order ``o``, a period ``p`` unique per key, a size ``sz`` and a
    nullable value ``v``."""
    rng = np.random.default_rng(seed)
    base = 1_700_000_000_000_000
    k = rng.integers(0, 4, n).astype(object)
    k[rng.random(n) < 0.2] = None
    tsv = (base + rng.integers(0, 120, n) * 60_000_000).astype(object)
    tsv[rng.random(n) < 0.05] = None
    v = rng.integers(-20, 50, n).astype(float).astype(object)
    v[rng.random(n) < 0.2] = None
    return pa.table({
        "k": pa.array(k.tolist(), pa.int64()),
        "ts": pa.array(tsv.tolist(), pa.int64()).cast(pa.timestamp("us")),
        "o": pa.array(rng.permutation(n), pa.int64()),
        "p": pa.array(rng.permutation(3 * n)[:n], pa.int64()),
        "sz": pa.array(rng.integers(1, 8, n), pa.int64()),
        "v": pa.array(v.tolist(), pa.float64()),
    })


_SESSIONS_SQL = """
    WITH e AS (SELECT k, epoch_us(ts) AS t FROM t WHERE ts IS NOT NULL),
    b AS (SELECT k, t, CASE WHEN t - lag(t) OVER (PARTITION BY k
              ORDER BY t) <= 120000000 THEN 0 ELSE 1 END AS brk FROM e),
    s AS (SELECT k, t, sum(brk) OVER (PARTITION BY k ORDER BY t
              ROWS UNBOUNDED PRECEDING) AS sid FROM b)"""

# name -> (operator call on (window, keys, ds), its output as
# tuples, the DuckDB twin over the same table ``t``)
_SCAN_CASES = {
    "session_table": (
        lambda w, kz, ds: w.session_table(ds, "k", "ts", 120.0),
        _rows_of("k", "session_start_us", "session_end_us", "n_events",
                 "duration_us"),
        _SESSIONS_SQL + " SELECT k, min(t), max(t), count(*),"
        " max(t) - min(t) FROM s GROUP BY k, sid"),
    "sessionize_counts": (
        lambda w, kz, ds: w.sessionize_counts(ds, "k", "ts", 120.0),
        _rows_of("k", "n_events", "n_sessions"),
        _SESSIONS_SQL + " SELECT k, count(*), max(sid) FROM s GROUP BY k"),
    "densify_gaps": (
        lambda w, kz, ds: w.densify_gaps(ds, "k", "p", ["sz"]),
        _rows_of("k", "p", "sz"),
        "WITH b AS (SELECT k, unnest(generate_series(min(p), max(p)))"
        " AS p FROM t GROUP BY k) SELECT b.k, b.p, coalesce(t.sz, 0)"
        " FROM b LEFT JOIN t ON b.k IS NOT DISTINCT FROM t.k"
        " AND b.p = t.p"),
    "first_in_group": (
        lambda w, kz, ds: kz.first_in_group(ds, ["k"], "o"),
        _rows_of("o", "is_first"),
        "SELECT o, row_number() OVER (PARTITION BY k ORDER BY o) = 1"
        " FROM t"),
    "key_run_counts": (
        lambda w, kz, ds: kz.key_run_counts(ds, ["k", "sz"], 2),
        _rows_of("k", "sz", "cnt"),
        "SELECT k, sz, count(*) FROM t GROUP BY k, sz"
        " HAVING count(*) >= 2"),
    "range_windowed_sum": (
        lambda w, kz, ds: w.range_windowed_sum(
            ds, "k", "ts", "v", datetime.timedelta(minutes=5)),
        _rows_of("k", "ts", "range_sum", "range_cnt"),
        "SELECT DISTINCT k, ts, sum(v) OVER w, count(v) OVER w FROM t"
        " WINDOW w AS (PARTITION BY k ORDER BY ts RANGE BETWEEN"
        " INTERVAL 5 MINUTE PRECEDING AND CURRENT ROW)"),
    "pack_items": (
        lambda w, kz, ds: w.pack_items(ds, "k", "o", "sz", 10),
        _rows_of("k", "o", "sz", "bin"),
        # the greedy rule, row by row: an item joins its key's open
        # bin iff it fits, else it opens the next one
        """WITH RECURSIVE r AS (SELECT k, o, sz, row_number() OVER
               (PARTITION BY k ORDER BY o) AS rn FROM t),
           g(k, rn, o, sz, bin, fill) AS (
               SELECT k, rn, o, sz, 0, sz FROM r WHERE rn = 1
               UNION ALL
               SELECT r.k, r.rn, r.o, r.sz,
                      g.bin + CAST(g.fill + r.sz > 10 AS INT),
                      CASE WHEN g.fill + r.sz > 10 THEN r.sz
                           ELSE g.fill + r.sz END
               FROM g JOIN r ON r.k IS NOT DISTINCT FROM g.k
                            AND r.rn = g.rn + 1)
           SELECT k, o, sz, bin FROM g"""),
}


@pytest.mark.parametrize("n,blocks", [(400, 1), (400, 6), (400, 40),
                                      (12, 40)],
                         ids=["400x1", "400x6", "400x40", "12x40"])
@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_sorted_scan_ops_nullable_keys_match_duckdb(case, n, blocks):
    """Every operator on the sorted-scan module over a nullable int64
    key (one NULL group, as in SQL), NULL timestamps and NULL values,
    against its DuckDB twin, at 1, 6 and 40 blocks and with 12 rows
    in 40 blocks (empty blocks, some without columns, that no
    operator guards for)."""
    import duckdb

    import json_schema_ray.engine.keys as keys
    import json_schema_ray.engine.window as window

    run, rows, sql = _SCAN_CASES[case]
    t = _scan_table(131, n)
    con = duckdb.connect()
    con.register("t", t)
    out = run(window, keys, _ray().data.from_arrow(t).repartition(blocks))
    want = con.execute(sql).fetchall()
    assert sorted(rows(out), key=repr) == sorted(map(tuple, want),
                                                  key=repr)


@pytest.mark.parametrize("blocks", [1, 3])
def test_nullable_numeric_key_is_one_group(blocks):
    """A NULL int64 key is ONE group for the run counts and the
    arg-min, as SQL GROUP BY has it: numpy's NaN != NaN used to split
    it, losing ``(NULL, 4)`` from ``key_run_counts`` and flagging
    every NULL row as first."""
    import duckdb

    from json_schema_ray.engine.keys import (
        duplicate_keys, first_in_group, key_run_counts,
        uniqueness_violations)

    t = pa.table({
        "k": pa.array([1, None, None, None, 2, 2, 3, None, 5, 6, 7, 8],
                      pa.int64()),
        "o": pa.array(range(12), pa.int64())})
    con = duckdb.connect()
    con.register("t", t)
    ds = _ray().data.from_arrow(t).repartition(blocks)
    want = sorted(map(tuple, con.execute(
        "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) >= 2"
    ).fetchall()), key=repr)
    assert want == [(2, 2), (None, 4)]
    runs = key_run_counts(ds, ["k"], min_count=2).take_all()
    assert sorted(((r["k"], r["cnt"]) for r in runs), key=repr) == want
    assert sorted(((r["k"], r["cnt"]) for r in
                   duplicate_keys(ds, ["k"]).take_all()), key=repr) == want
    assert uniqueness_violations(ds, ["k"]).count() == 2
    first = first_in_group(ds, ["k"], "o").take_all()
    got = sorted(r["o"] for r in first if r["is_first"])
    assert got == sorted(o for (o,) in con.execute(
        "SELECT o FROM (SELECT o, row_number() OVER (PARTITION BY k"
        " ORDER BY o) AS rn FROM t) WHERE rn = 1").fetchall())
    assert sum(1 for r in first if r["is_first"] and r["k"] is None) == 1


def test_lm_quality_buckets_approx_close_to_exact():
    """Sort-free t-digest bucket path: same totals, bucket sizes
    within a few percent of the exact NTILE split."""
    from json_schema_ray.engine.text import lm_quality_buckets

    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=int(n)))
             for n in rng.integers(2, 30, 3000)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    exact = lm_quality_buckets(
        _ray().data.from_arrow(t).repartition(6), k=4).to_pylist()
    approx = lm_quality_buckets(
        _ray().data.from_arrow(t).repartition(6), k=4,
        approx=True).to_pylist()

    assert sum(r["n_docs"] for r in approx) == \
        sum(r["n_docs"] for r in exact) == len(texts)
    assert sum(r["n_bigrams_total"] for r in approx) == \
        sum(r["n_bigrams_total"] for r in exact)
    ex = {r["bucket"]: r["n_docs"] for r in exact}
    ap = {r["bucket"]: r["n_docs"] for r in approx}
    for b in ex:
        assert abs(ap.get(b, 0) - ex[b]) <= 0.1 * len(texts)


def _diff_bruteforce(old_rows, new_rows, compare):
    got = {}
    for k in set(old_rows) | set(new_rows):
        if k not in new_rows:
            got[k] = "removed"
        elif k not in old_rows:
            got[k] = "added"
        elif any(old_rows[k][c] != new_rows[k][c] for c in compare):
            got[k] = "changed"
    return got


def test_snapshot_diff_matches_bruteforce():
    """added/removed/changed vs a dict-based reference, across
    multiblock inputs with NULL keys, NULL compare values (SQL
    IS DISTINCT FROM: NULL==NULL), int + string key types."""
    from json_schema_ray.engine.relational import snapshot_diff

    rng = np.random.default_rng(91)
    n = 3000
    ids = np.arange(n)
    old_keep = rng.random(n) > 0.1
    new_keep = rng.random(n) > 0.1
    v_old = rng.integers(0, 5, n).astype(object)
    v_old[rng.random(n) < 0.05] = None
    v_new = v_old.copy()
    flip = rng.random(n) < 0.2
    v_new[flip] = rng.integers(5, 9, int(flip.sum())).astype(object)
    null_flip = rng.random(n) < 0.03
    v_new[null_flip] = None
    s_old = np.array([f"s{i % 4}" for i in range(n)], dtype=object)
    s_new = s_old.copy()
    s_new[rng.random(n) < 0.1] = "zz"

    def tab(keep, v, s):
        m = np.nonzero(keep)[0]
        return pa.table({
            "k": pa.array(ids[m], pa.int64()),
            "v": pa.array(v[m].tolist(), pa.int64()),
            "s": pa.array(s[m].tolist(), pa.string())})

    t_old, t_new = tab(old_keep, v_old, s_old), tab(new_keep, v_new, s_new)
    out = snapshot_diff(_ray().data.from_arrow(t_old).repartition(7),
                        _ray().data.from_arrow(t_new).repartition(5),
                        ["k"], ["v", "s"])
    got = {r["k"]: r["change"] for r in out.take_all()}

    old_rows = {r["k"]: r for r in t_old.to_pylist()}
    new_rows = {r["k"]: r for r in t_new.to_pylist()}
    want = _diff_bruteforce(old_rows, new_rows, ["v", "s"])
    assert got == want
    assert {"added", "removed", "changed"} <= set(got.values())


def test_snapshot_diff_string_and_null_keys():
    from json_schema_ray.engine.relational import snapshot_diff

    t_old = pa.table({"k": pa.array(["a", "b", None], pa.string()),
                      "v": pa.array([1, 2, 3], pa.int64())})
    t_new = pa.table({"k": pa.array(["b", "c", None], pa.string()),
                      "v": pa.array([2, 9, 4], pa.int64())})
    out = snapshot_diff(_ray().data.from_arrow(t_old),
                        _ray().data.from_arrow(t_new), ["k"], ["v"])
    got = {r["k"]: r["change"] for r in out.take_all()}
    # b unchanged -> absent; NULL key groups with itself (changed)
    assert got == {"a": "removed", "c": "added", None: "changed"}


def test_snapshot_diff_duplicate_key_raises():
    import pytest

    from json_schema_ray.engine.relational import snapshot_diff

    t_old = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "v": pa.array([1, 2], pa.int64())})
    t_new = pa.table({"k": pa.array([2], pa.int64()),
                      "v": pa.array([3], pa.int64())})
    with pytest.raises(Exception, match="snapshot_diff"):
        snapshot_diff(_ray().data.from_arrow(t_old),
                      _ray().data.from_arrow(t_new),
                      ["k"], ["v"]).take_all()


def test_pack_contiguous_matches_bruteforce():
    """GPT-style stream packing vs a python cumsum reference: docs
    spanning several packs, NULL/zero sizes dropped, multiblock."""
    from json_schema_ray.engine.window import pack_contiguous

    rng = np.random.default_rng(17)
    n = 2000
    sizes = rng.integers(1, 900, n).astype(object)
    sizes[rng.random(n) < 0.04] = None
    sizes[rng.random(n) < 0.03] = 0
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "n_tok": pa.array(sizes.tolist(), pa.int64())})
    budget = 512
    out = pack_contiguous(
        _ray().data.from_arrow(t).repartition(6),
        "doc_id", "n_tok", budget)
    got = {r["doc_id"]: (r["pack_first"], r["pack_last"],
                         r["pack_offset"])
           for r in out.take_all()}

    run = 0
    want = {}
    for i in range(n):
        s = sizes[i]
        if s is None or s <= 0:
            continue
        want[i] = (run // budget, (run + s - 1) // budget,
                   run % budget)
        run += s
    assert got == want
    assert any(a != b for a, b, _ in got.values())  # spanning docs


def test_pack_contiguous_rejects_bad_budget():
    import pytest

    from json_schema_ray.engine.window import pack_contiguous

    t = pa.table({"i": pa.array([1], pa.int64()),
                  "s": pa.array([1], pa.int64())})
    with pytest.raises(ValueError, match="budget"):
        pack_contiguous(_ray().data.from_arrow(t), "i", "s", 0)


def test_dedup_keep_best_matches_union_find():
    """Keep-best-per-cluster vs a python union-find reference:
    max quality wins, ties to smallest id, NULL quality loses,
    singletons keep themselves."""
    from json_schema_ray.engine.dedup import dedup_keep_best

    rng = np.random.default_rng(41)
    n = 500
    q = rng.integers(0, 100, n).astype(object)
    q[rng.random(n) < 0.1] = None
    docs = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "n_chars": pa.array(q.tolist(), pa.int64())})
    m = 160
    pairs = pa.table({
        "id_a": pa.array(rng.integers(0, n, m), pa.int64()),
        "id_b": pa.array(rng.integers(0, n, m), pa.int64())})
    import pyarrow.compute as _pc
    pairs = pairs.filter(_pc.not_equal(pairs["id_a"], pairs["id_b"]))

    out = dedup_keep_best(
        _ray().data.from_arrow(docs).repartition(5), pairs)
    got = {r["doc_id"]: (r["component"], r["kept"])
           for r in out.take_all()}

    # union-find reference
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].to_pylist(),
                    pairs["id_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    clustered = set(pairs["id_a"].to_pylist()) \
        | set(pairs["id_b"].to_pylist())
    comp_of = {i: find(i) for i in clustered}
    best: dict = {}
    for i in sorted(clustered):
        c = comp_of[i]
        qual = -float("inf") if q[i] is None else q[i]
        if c not in best or qual > best[c][0]:
            best[c] = (qual, i)
    want = {}
    for i in range(n):
        if i in clustered:
            want[i] = (comp_of[i], best[comp_of[i]][1] == i)
        else:
            want[i] = (i, True)
    assert got == want
    assert sum(1 for _, k in got.values() if not k) > 0


def test_grouped_corr_matches_reference():
    """Fixed-point grouped Pearson vs (a) an exact python-int
    replica of the engine arithmetic and (b) np.corrcoef on the
    quantized values (1e-6-scale agreement), with NULLs dropping
    pairwise and a zero-variance group yielding NULL."""
    import math

    from json_schema_ray.engine.stats import grouped_corr

    rng = np.random.default_rng(3)
    n = 4000
    k = rng.integers(0, 5, n)
    xv = rng.normal(50, 10, n)
    yv = 3.0 * xv + rng.normal(0, 5, n)
    xo = xv.astype(object); yo = yv.astype(object)
    xo[rng.random(n) < 0.05] = None
    yo[rng.random(n) < 0.05] = None
    ko = np.array([f"g{i}" for i in k], dtype=object)
    ko[k == 4] = "flat"
    xo[k == 4] = 7.0   # zero variance group
    t = pa.table({"k": pa.array(ko.tolist(), pa.string()),
                  "x": pa.array(xo.tolist(), pa.float64()),
                  "y": pa.array(yo.tolist(), pa.float64())})
    out = grouped_corr(_ray().data.from_arrow(t).repartition(6),
                       "k", "x", "y", scale=100)
    got = {r["k"]: (r["n"], r["corr_e6"]) for r in out.take_all()}

    byg: dict = {}
    for kk, xx, yy in zip(ko.tolist(), xo.tolist(), yo.tolist()):
        if xx is None or yy is None:
            continue
        byg.setdefault(kk, []).append(
            (int(math.floor(xx * 100 + 0.5)),
             int(math.floor(yy * 100 + 0.5))))
    for g, pairs in byg.items():
        nn = len(pairs)
        sx = sum(p[0] for p in pairs); sy = sum(p[1] for p in pairs)
        sxx = sum(p[0] * p[0] for p in pairs)
        syy = sum(p[1] * p[1] for p in pairs)
        sxy = sum(p[0] * p[1] for p in pairs)
        d = (nn * sxx - sx * sx) * (nn * syy - sy * sy)
        if nn < 2 or d <= 0:
            want = None
        else:
            want = int(math.floor(float(nn * sxy - sx * sy)
                                  / math.sqrt(float(d)) * 1e6 + 0.5))
        assert got[g] == (nn, want), g
        if want is not None:
            qx = np.array([p[0] for p in pairs], float)
            qy = np.array([p[1] for p in pairs], float)
            ref = np.corrcoef(qx, qy)[0, 1]
            assert abs(want / 1e6 - ref) < 1e-5
    assert got["flat"][1] is None


def test_pack_contiguous_presorted_matches_sorted_path():
    """presorted=True (no all-to-all) must agree exactly with the
    sort-based path on sorted input, and raise on unsorted input."""
    import pytest

    from json_schema_ray.engine.window import pack_contiguous

    rng = np.random.default_rng(21)
    n = 1500
    sizes = rng.integers(1, 700, n)
    t = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                  "n_tok": pa.array(sizes, pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(5)
    a = sorted((r["doc_id"], r["pack_first"], r["pack_last"],
                r["pack_offset"])
               for r in pack_contiguous(ds, "doc_id", "n_tok",
                                        512).take_all())
    b = sorted((r["doc_id"], r["pack_first"], r["pack_last"],
                r["pack_offset"])
               for r in pack_contiguous(ds, "doc_id", "n_tok", 512,
                                        presorted=True).take_all())
    assert a == b

    shuffled = t.take(pa.array(rng.permutation(n)))
    with pytest.raises(Exception, match="sorted"):
        pack_contiguous(_ray().data.from_arrow(shuffled).repartition(5),
                        "doc_id", "n_tok", 512,
                        presorted=True).take_all()


def test_pack_contiguous_presorted_float_order():
    """Float order column across blocks: block first/last stats must
    keep the column's dtype — int() truncation made adjacent blocks
    whose boundary values share an integer part look overlapping
    (false 'blocks overlap') and misrouted the searchsorted base
    lookup in assign()."""
    from json_schema_ray.engine.window import pack_contiguous

    rng = np.random.default_rng(33)
    n = 1200
    order = 0.5 + 0.2 * np.arange(n)   # many same-int block seams
    sizes = rng.integers(1, 700, n)
    t = pa.table({"ts": pa.array(order, pa.float64()),
                  "n_tok": pa.array(sizes, pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(7)
    a = sorted((r["ts"], r["pack_first"], r["pack_last"],
                r["pack_offset"])
               for r in pack_contiguous(ds, "ts", "n_tok",
                                        512).take_all())
    b = sorted((r["ts"], r["pack_first"], r["pack_last"],
                r["pack_offset"])
               for r in pack_contiguous(ds, "ts", "n_tok", 512,
                                        presorted=True).take_all())
    assert a == b


def test_snapshot_diff_large_int64_keys_with_nulls():
    """Nullable int64 keys >= 2^53: a numpy float64 round-trip in the
    segment detector would compare 2^53 == 2^53+1 and emit one
    'changed' row instead of removed+added."""
    from json_schema_ray.engine.relational import snapshot_diff

    big = 1 << 53
    t_old = pa.table({"k": pa.array([big, None], pa.int64()),
                      "v": pa.array([1, 3], pa.int64())})
    t_new = pa.table({"k": pa.array([big + 1, None], pa.int64()),
                      "v": pa.array([2, 3], pa.int64())})
    out = snapshot_diff(_ray().data.from_arrow(t_old),
                        _ray().data.from_arrow(t_new), ["k"], ["v"])
    got = {r["k"]: r["change"] for r in out.take_all()}
    assert got == {big: "removed", big + 1: "added"}


def test_grouped_corr_no_int64_overflow():
    """Per-key sum(q^2) beyond 2^63: the hi/lo split partials must
    stay exact where a straight int64 sum wraps silently."""
    import math

    from json_schema_ray.engine.stats import grouped_corr

    # q ~ 2.5e9 -> q^2 ~ 6.25e18; two of them already exceed 2^63
    xs = [2.5e7, 2.6e7, 2.4e7, 2.55e7]
    ys = [2.45e7, 2.65e7, 2.35e7, 2.6e7]
    t = pa.table({"k": pa.array(["g"] * 4, pa.string()),
                  "x": pa.array(xs, pa.float64()),
                  "y": pa.array(ys, pa.float64())})
    out = grouped_corr(_ray().data.from_arrow(t), "k", "x", "y",
                       scale=100)
    [row] = out.take_all()

    q = [(int(math.floor(x * 100 + 0.5)),
          int(math.floor(y * 100 + 0.5))) for x, y in zip(xs, ys)]
    nn = len(q)
    sx = sum(a for a, _ in q); sy = sum(b for _, b in q)
    sxx = sum(a * a for a, _ in q); syy = sum(b * b for _, b in q)
    sxy = sum(a * b for a, b in q)
    assert sxx > (1 << 63)  # the test exercises the overflow regime
    want = int(math.floor(
        float(nn * sxy - sx * sy)
        / math.sqrt(float((nn * sxx - sx * sx) * (nn * syy - sy * sy)))
        * 1e6 + 0.5))
    assert (row["n"], row["corr_e6"]) == (nn, want)


def test_shingle_batch_scalar_parity_control_chars():
    """U+001C..U+001F are whitespace to BOTH Python str.split() and
    pyarrow utf8_split_whitespace (utf8proc) — pin the batch==scalar
    contract on them explicitly."""
    from json_schema_ray.engine.dedup import (shingle_set,
                                              shingle_sets_batch)

    texts = ["a\x1cb c d e f", "a\x1d\x1e\x1fb c d e f g",
             "plain text with six words", "", None]
    offs, vals = shingle_sets_batch(texts, 5)
    for i, txt in enumerate(texts):
        want = (shingle_set(txt, 5) if txt
                else np.zeros(0, np.uint64))
        got = np.sort(vals[offs[i]:offs[i + 1]])
        assert np.array_equal(np.sort(want), got), txt


def test_reconcile_aggregate_matches_bruteforce():
    """Parent-vs-child-sum reconciliation against a dict reference:
    mismatch / no_children / orphan_children across multiblock
    inputs, NULL keys and values dropped, tolerance honored, a hot
    child key spanning blocks summed exactly."""
    from json_schema_ray.engine.keys import reconcile_aggregate

    rng = np.random.default_rng(55)
    n_par = 400
    pk = np.arange(n_par)
    pv = rng.uniform(10, 500, n_par)
    # children: most parents get 1-5 rows; key 7 is hot (2000 rows);
    # keys 9000+ are orphans; parents 0-19 get no children
    ck, cv = [], []
    for k in pk[20:]:
        for _ in range(int(rng.integers(1, 6))):
            ck.append(int(k)); cv.append(float(rng.uniform(1, 120)))
    ck += [7] * 2000; cv += rng.uniform(0.5, 2.0, 2000).tolist()
    ck += [9001, 9001, 9002]; cv += [5.0, 6.0, 7.0]
    # exact matches for some parents: child sum == parent value
    for k in (50, 51, 52):
        ck.append(int(k)); cv.append(0.0)
    pv_obj = pv.astype(object); pk_obj = pk.astype(object)
    pv_obj[30] = None; pk_obj[31] = None  # dropped rows
    ck_obj = np.array(ck, object); cv_obj = np.array(cv, object)
    cv_obj[5] = None; ck_obj[6] = None

    def q(x):
        import math
        return int(math.floor(x * 100 + 0.5))

    exp = {}
    for k, v in zip(pk_obj.tolist(), pv_obj.tolist()):
        if k is None or v is None:
            continue
        exp[k] = q(v)
    act: dict = {}
    for k, v in zip(ck_obj.tolist(), cv_obj.tolist()):
        if k is None or v is None:
            continue
        act[k] = act.get(k, 0) + q(v)
    # make parents 50-52 reconcile exactly via the 0.0 rows above
    for k in (50, 51, 52):
        cv_obj[len(cv) - 3 + (k - 50)] = (exp[k] - act[k]) / 100.0
    act = {}
    for k, v in zip(ck_obj.tolist(), cv_obj.tolist()):
        if k is None or v is None:
            continue
        act[k] = act.get(k, 0) + q(v)

    tol = 0
    want = {}
    for k in set(exp) | set(act):
        e, a = exp.get(k), act.get(k)
        if e is None:
            want[k] = (None, a, "orphan_children")
        elif a is None:
            want[k] = (e, None, "no_children")
        elif abs(e - a) > tol:
            want[k] = (e, a, "mismatch")

    t_par = pa.table({"o_k": pa.array(pk_obj.tolist(), pa.int64()),
                      "o_v": pa.array(pv_obj.tolist(), pa.float64())})
    t_ch = pa.table({"l_k": pa.array(ck_obj.tolist(), pa.int64()),
                     "l_v": pa.array(cv_obj.tolist(), pa.float64())})
    out = reconcile_aggregate(
        _ray().data.from_arrow(t_par).repartition(6),
        _ray().data.from_arrow(t_ch).repartition(9),
        "o_k", "l_k", "o_v", "l_v", scale=100, tol=tol)
    got = {r["o_k"]: (r["expected"], r["actual"], r["status"])
           for r in out.take_all()}
    assert got == want
    assert got[7][2] == "mismatch"          # hot key summed exactly
    assert got[9001] == (None, 1100, "orphan_children")
    assert all(k not in got for k in (50, 51, 52))  # reconciled
    assert {s for _, _, s in got.values()} == {
        "mismatch", "no_children", "orphan_children"}


def test_reconcile_aggregate_duplicate_parent_raises():
    import pytest

    from json_schema_ray.engine.keys import reconcile_aggregate

    t_par = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "v": pa.array([2.0, 3.0], pa.float64())})
    t_ch = pa.table({"k": pa.array([1], pa.int64()),
                     "v": pa.array([2.0], pa.float64())})
    with pytest.raises(Exception, match="duplicate parent"):
        reconcile_aggregate(_ray().data.from_arrow(t_par),
                            _ray().data.from_arrow(t_ch),
                            "k", "k", "v", "v").take_all()


def test_reconcile_aggregate_tolerance():
    from json_schema_ray.engine.keys import reconcile_aggregate

    t_par = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "v": pa.array([10.00, 10.00], pa.float64())})
    t_ch = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                     "v": pa.array([10.02, 5.00, 5.30], pa.float64())})
    out = reconcile_aggregate(_ray().data.from_arrow(t_par),
                              _ray().data.from_arrow(t_ch),
                              "k", "k", "v", "v", scale=100, tol=5)
    got = {r["k"]: (r["expected"], r["actual"], r["status"])
           for r in out.take_all()}
    assert got == {2: (1000, 1030, "mismatch")}  # key 1 within tol


def test_functional_dependency_violations():
    """source -> lang FD vs a dict reference: multi-valued
    determinants surface with exact distinct counts, single-valued
    and null-dependent-only determinants don't, NULL determinant
    groups on its own, multiblock."""
    from json_schema_ray.engine.keys import (
        functional_dependency_violations)

    rng = np.random.default_rng(8)
    n = 5000
    det = np.array([f"s{i}" for i in rng.integers(0, 40, n)],
                   dtype=object)
    det[rng.random(n) < 0.02] = None
    dep = np.array([f"L{i}" for i in rng.integers(0, 6, n)],
                   dtype=object)
    dep[rng.random(n) < 0.05] = None
    # s0 is single-valued; s1 has only NULL dependents
    dep[det == "s0"] = "Lx"
    dep[det == "s1"] = None
    t = pa.table({"src": pa.array(det.tolist(), pa.string()),
                  "lang": pa.array(dep.tolist(), pa.string())})
    out = functional_dependency_violations(
        _ray().data.from_arrow(t).repartition(7), "src", "lang")
    got = {r["src"]: r["n_distinct"] for r in out.take_all()}

    want: dict = {}
    for d, v in zip(det.tolist(), dep.tolist()):
        if v is None:
            continue
        want.setdefault(d, set()).add(v)
    want = {k: len(s) for k, s in want.items() if len(s) > 1}
    assert got == want
    assert "s0" not in got and "s1" not in got
    assert None in got or None not in want


def test_daily_volume_anomalies_flags_planted_spike(tmp_path):
    """The robust day-volume gate on a corpus with a planted 40x
    spike day and a truncated final day: exactly those days flag,
    and the values hash-match the DuckDB twin on the same file."""
    import duckdb

    import __ray_entry__ as entry

    rng = np.random.default_rng(4)
    base = 1_700_000_000_000_000  # us, midnight-aligned below
    base -= base % 86_400_000_000
    ts, n_days, per_day = [], 30, 200
    for d in range(n_days):
        k = per_day
        if d == 10:
            k = per_day * 40      # spike
        if d == n_days - 1:
            k = 3                 # truncated tail
        day0 = base + d * 86_400_000_000
        ts.extend((day0 + np.sort(
            rng.integers(0, 86_400_000_000, k))).tolist())
    t = pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(rng.uniform(0, 1, len(ts)), pa.float64())})
    import pyarrow.parquet as pq
    pq.write_table(t, tmp_path / "events.parquet")

    got = entry.q_daily_volume_anomalies(str(tmp_path))
    flagged = {r["window_start_us"]: r["n_events"]
               for r in got.to_pylist()}
    assert flagged == {base + 10 * 86_400_000_000: per_day * 40,
                       base + 29 * 86_400_000_000: 3}

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"'{tmp_path / 'events.parquet'}'")
    oracle = con.sql(entry.oracle_sql()["daily_volume_anomalies"]) \
        .arrow().to_pylist()
    assert {r["window_start_us"]: r["n_events"]
            for r in oracle} == flagged


def test_accept_state_violations_matches_bruteforce():
    """Last-label-by-(order, tiebreak) terminal-state check vs a dict
    reference: NULL labels violate, NULL orders sort LAST (can win),
    accepted keys absent, multiblock, a hot key spanning blocks."""
    from json_schema_ray.engine.keys import accept_state_violations

    rng = np.random.default_rng(12)
    n = 6000
    keys = rng.integers(0, 300, n)
    keys[:2000] = 7  # hot key
    order = rng.integers(0, 10**9, n).astype(object)
    order[rng.random(n) < 0.01] = None
    tb = np.arange(n)  # unique tiebreak
    labels = np.array(["open", "working", "done", "cancelled"],
                      object)[rng.integers(0, 4, n)]
    labels[rng.random(n) < 0.02] = None
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "o": pa.array(order.tolist(), pa.int64()),
                  "tb": pa.array(tb, pa.int64()),
                  "lab": pa.array(labels.tolist(), pa.string())})
    accept = {"done", "cancelled"}
    out = accept_state_violations(
        _ray().data.from_arrow(t).repartition(8),
        "k", "o", "lab", accept, tiebreak="tb")
    got = {r["k"]: r["last_label"] for r in out.take_all()}

    best: dict = {}
    for k, o, b, l in zip(keys.tolist(), order.tolist(),
                          tb.tolist(), labels.tolist()):
        # ascending NULLS LAST == null order is the largest
        rank = (1 if o is None else 0, o if o is not None else 0, b)
        if k not in best or rank > best[k][0]:
            best[k] = (rank, l)
    want = {k: l for k, (_, l) in best.items()
            if l is None or l not in accept}
    assert got == want
    assert any(v is None for v in got.values()) or \
        not any(l is None for l in labels.tolist())


def test_grouped_entropy_matches_reference():
    """Fixed-point grouped Shannon entropy vs a brute-force python
    reference using the same term quantization, plus a scipy-free
    float sanity bound; NULL values drop, NULL keys form their own
    group, single-value groups land at ~0."""
    import math

    from json_schema_ray.engine.stats import grouped_entropy

    rng = np.random.default_rng(7)
    n = 6000
    k = rng.integers(0, 6, n)
    ko = np.array([f"g{i}" for i in k], dtype=object)
    ko[k == 5] = None               # NULL key group
    vals = rng.choice(["a", "b", "c", "d"], n,
                      p=[0.6, 0.25, 0.1, 0.05]).astype(object)
    vals[rng.random(n) < 0.04] = None   # dropped rows
    vals[k == 4] = "only"               # single-category group
    t = pa.table({"k": pa.array(ko.tolist(), pa.string()),
                  "v": pa.array(vals.tolist(), pa.string())})
    out = grouped_entropy(_ray().data.from_arrow(t).repartition(7),
                          "k", "v")
    got = {r["k"]: (r["n"], r["entropy_e6"]) for r in out.take_all()}

    counts: dict = {}
    for kk, vv in zip(ko.tolist(), vals.tolist()):
        if vv is None:
            continue
        counts.setdefault(kk, {}).setdefault(vv, 0)
        counts[kk][vv] += 1
    assert set(got) == set(counts)
    for g, cs in counts.items():
        nn = sum(cs.values())
        s = sum(int(math.floor(float(c) * math.log(float(c))
                               * 1e6 + 0.5)) for c in cs.values())
        want = int(math.floor(
            (math.log(float(nn)) - float(s) / 1e6 / float(nn))
            * 1e6 + 0.5))
        assert got[g] == (nn, want), g
        # float sanity: matches -sum(p ln p) to rounding error
        ref = -sum((c / nn) * math.log(c / nn) for c in cs.values())
        assert abs(want / 1e6 - ref) < 1e-4
    assert abs(got["g4"][1]) <= 1   # single category ~ 0 nats


def test_grouped_entropy_empty_input():
    from json_schema_ray.engine.stats import grouped_entropy

    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.string())})
    out = grouped_entropy(_ray().data.from_arrow(t), "k", "v")
    assert out.take_all() == []


def test_transition_counts_matches_duckdb():
    """Markov transition matrix vs SQL lag()+GROUP BY: NULL labels
    collapse with first-of-key on the prev side (SQL lag semantics)
    but stay a distinct category on the cur side; hot key and
    multi-block layouts agree."""
    import duckdb

    from json_schema_ray.engine.keys import transition_counts

    rng = np.random.default_rng(11)
    n = 4000
    u = rng.integers(0, 25, n)
    u[:1500] = 3          # hot key
    labs = rng.choice(["a", "b", "c"], n).astype(object)
    labs[rng.random(n) < 0.06] = None
    t = pa.table({
        "u": pa.array(u, pa.int64()),
        "ts": pa.array(rng.permutation(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "lab": pa.array(labs.tolist(), pa.string()),
    })
    want = sorted(duckdb.sql(
        """WITH l AS (
               SELECT lag(lab) OVER (PARTITION BY u
                        ORDER BY ts, rid) AS p, lab AS c
               FROM t)
           SELECT p, c, CAST(count(*) AS BIGINT) FROM l
           GROUP BY p, c""").fetchall(),
        key=lambda r: (r[0] is None, r[0] or "", r[1] is None,
                       r[1] or ""))
    for blocks in (1, 8):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = transition_counts(ds, "u", "ts", "lab", tiebreak="rid")
        got = sorted(((r["prev_label"], r["label"], r["n"])
                      for r in out.take_all()),
                     key=lambda r: (r[0] is None, r[0] or "",
                                    r[1] is None, r[1] or ""))
        assert got == want, blocks


def test_transition_counts_per_key_matches_duckdb():
    """per_key=True keeps the sequence key: (key, prev, label, n)
    rows match SQL lag() + GROUP BY (u, p, c), and summing over keys
    reproduces the global matrix (a consistency differential)."""
    import duckdb

    from json_schema_ray.engine.keys import transition_counts

    rng = np.random.default_rng(17)
    n = 3000
    u = rng.integers(0, 20, n)
    labs = rng.choice(["a", "b", "c"], n).astype(object)
    labs[rng.random(n) < 0.05] = None
    t = pa.table({
        "u": pa.array(u, pa.int64()),
        "ts": pa.array(rng.permutation(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "lab": pa.array(labs.tolist(), pa.string()),
    })
    want = sorted(duckdb.sql(
        """WITH l AS (
               SELECT u, lag(lab) OVER (PARTITION BY u
                        ORDER BY ts, rid) AS p, lab AS c
               FROM t)
           SELECT u, p, c, CAST(count(*) AS BIGINT) FROM l
           GROUP BY u, p, c""").fetchall(),
        key=lambda r: (r[0], r[1] is None, r[1] or "",
                       r[2] is None, r[2] or ""))
    ds = _ray().data.from_arrow(t).repartition(6)
    out = transition_counts(ds, "u", "ts", "lab", tiebreak="rid",
                            per_key=True)
    rows = out.take_all()
    got = sorted(((r["u"], r["prev_label"], r["label"], r["n"])
                  for r in rows),
                 key=lambda r: (r[0], r[1] is None, r[1] or "",
                                r[2] is None, r[2] or ""))
    assert got == want
    # summing out the key reproduces the global matrix
    glob = {}
    for _, p, c, cnt in got:
        glob[(p, c)] = glob.get((p, c), 0) + cnt
    out_g = transition_counts(ds, "u", "ts", "lab", tiebreak="rid")
    got_g = {(r["prev_label"], r["label"]): r["n"]
             for r in out_g.take_all()}
    assert got_g == glob


def test_transition_counts_single_rows_and_empty():
    from json_schema_ray.engine.keys import transition_counts

    t = pa.table({"u": pa.array([1, 2], pa.int64()),
                  "ts": pa.array([0, 0], pa.int64()),
                  "rid": pa.array([0, 1], pa.int64()),
                  "lab": pa.array(["x", None], pa.string())})
    out = transition_counts(_ray().data.from_arrow(t), "u", "ts",
                            "lab", tiebreak="rid")
    got = sorted(((r["prev_label"], r["label"], r["n"])
                  for r in out.take_all()),
                 key=lambda r: (r[1] is None, r[1] or ""))
    assert got == [(None, "x", 1), (None, None, 1)]

    e = pa.table({"u": pa.array([], pa.int64()),
                  "ts": pa.array([], pa.int64()),
                  "rid": pa.array([], pa.int64()),
                  "lab": pa.array([], pa.string())})
    out = transition_counts(_ray().data.from_arrow(e), "u", "ts",
                            "lab", tiebreak="rid")
    assert out.take_all() == []


def test_category_overlap_matches_duckdb():
    """Audience-overlap Jaccard vs the SQL self-join on distinct
    (entity, category) pairs: duplicate rows collapse, NULLs drop,
    integer jaccard_e6 is exact, pair order is lexicographic."""
    import duckdb

    from json_schema_ray.engine.relational import category_overlap

    rng = np.random.default_rng(13)
    n = 5000
    ents = rng.integers(0, 300, n).astype(object)
    ents[rng.random(n) < 0.02] = None
    cats = rng.choice(["w", "x", "y", "z"], n,
                      p=[0.5, 0.3, 0.15, 0.05]).astype(object)
    cats[rng.random(n) < 0.03] = None
    t = pa.table({"e": pa.array(ents.tolist(), pa.int64()),
                  "c": pa.array(cats.tolist(), pa.string())})
    want = sorted(duckdb.sql(
        """WITH d AS (SELECT DISTINCT e, c FROM t
                      WHERE e IS NOT NULL AND c IS NOT NULL),
                n AS (SELECT c, count(*) AS n FROM d GROUP BY c),
                p AS (SELECT a.c AS ca, b.c AS cb, count(*) AS nb2
                      FROM d a JOIN d b ON a.e = b.e AND a.c < b.c
                      GROUP BY 1, 2)
           SELECT ca, cb, CAST(na.n AS BIGINT), CAST(nb.n AS BIGINT),
                  CAST(nb2 AS BIGINT),
                  CAST(nb2 * 1000000 // (na.n + nb.n - nb2) AS BIGINT)
           FROM p JOIN n na ON na.c = ca JOIN n nb ON nb.c = cb
           ORDER BY ca, cb""").fetchall())
    for blocks in (1, 6):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = category_overlap(ds, "e", "c")
        got = [tuple(r.values()) for r in out.to_pylist()]
        assert got == want, blocks


def test_category_overlap_empty_and_disjoint():
    from json_schema_ray.engine.relational import category_overlap

    e = pa.table({"e": pa.array([], pa.int64()),
                  "c": pa.array([], pa.string())})
    out = category_overlap(_ray().data.from_arrow(e), "e", "c")
    assert out.num_rows == 0

    # disjoint audiences: no pair rows at all (inner-join semantics)
    t = pa.table({"e": pa.array([1, 2, 3], pa.int64()),
                  "c": pa.array(["a", "b", "c"], pa.string())})
    out = category_overlap(_ray().data.from_arrow(t), "e", "c")
    assert out.num_rows == 0


def test_session_table_matches_duckdb():
    """Session-level table vs the SQL window-cumsum sessionization:
    strict > gap break, per-session min/max/count, hot key spanning
    blocks, null-ts rows dropped."""
    import duckdb

    from json_schema_ray.engine.window import session_table

    rng = np.random.default_rng(17)
    n = 6000
    u = rng.integers(0, 40, n)
    u[:2500] = 7          # hot key spanning blocks
    base = rng.integers(0, 10**9, n) * 1000
    tso = base.astype(object)
    tso[rng.random(n) < 0.02] = None
    t = pa.table({
        "u": pa.array(u, pa.int64()),
        "ts": pa.array(tso.tolist(), pa.timestamp("us")),
    })
    want = sorted(duckdb.sql(
        """WITH o AS (
               SELECT u, epoch_us(ts) AS tu,
                      lag(epoch_us(ts)) OVER (PARTITION BY u
                        ORDER BY ts) AS prev
               FROM t WHERE ts IS NOT NULL),
            f AS (SELECT u, tu, CASE WHEN prev IS NULL
                        OR tu - prev > 1800000000
                        THEN 1 ELSE 0 END AS new_s FROM o),
            s AS (SELECT u, tu, sum(new_s) OVER (PARTITION BY u
                    ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                  FROM f)
           SELECT u, CAST(min(tu) AS BIGINT),
                  CAST(max(tu) AS BIGINT),
                  CAST(count(*) AS BIGINT),
                  CAST(max(tu) - min(tu) AS BIGINT)
           FROM s GROUP BY u, sid""").fetchall())
    for blocks in (1, 8):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = session_table(ds, "u", "ts", gap_seconds=1800.0)
        got = sorted((r["u"], r["session_start_us"],
                      r["session_end_us"], r["n_events"],
                      r["duration_us"]) for r in out.take_all())
        assert got == want, blocks
    # agreement with sessionize_counts on per-key session counts
    from collections import Counter
    from json_schema_ray.engine.window import sessionize_counts
    cnt = Counter(r[0] for r in got)
    sc = {r["u"]: r["n_sessions"]
          for r in sessionize_counts(
              _ray().data.from_arrow(t), "u", "ts",
              gap_seconds=1800.0).take_all()}
    assert dict(cnt) == sc


def test_session_table_empty():
    from json_schema_ray.engine.window import session_table

    t = pa.table({"u": pa.array([], pa.int64()),
                  "ts": pa.array([], pa.timestamp("us"))})
    assert session_table(_ray().data.from_arrow(t),
                         "u", "ts").take_all() == []


def test_embedding_dim_stats_matches_duckdb():
    """Per-dim fixed-point mean/var vs the SQL unnest twin: NULL
    vectors drop, NULL elements drop from their dimension only,
    multi-block merges stay exact (python-int sufficient stats)."""
    import duckdb

    from json_schema_ray.engine.similarity import embedding_dim_stats

    rng = np.random.default_rng(19)
    n, d = 900, 12
    m = rng.normal(0, 0.4, (n, d))
    rows = []
    for i in range(n):
        if i % 97 == 0:
            rows.append(None)          # NULL vector
            continue
        v = m[i].tolist()
        if i % 31 == 0:
            v[i % d] = None            # NULL element
        rows.append(v)
    t = pa.table({"embedding": pa.array(
        rows, pa.list_(pa.float32()))})
    want = sorted(duckdb.sql(
        """WITH e AS (
               SELECT i,
                      CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                           AS BIGINT) AS xi
               FROM (SELECT unnest(embedding) AS x,
                            generate_subscripts(embedding, 1) AS i
                     FROM t)
               WHERE x IS NOT NULL),
            s AS (SELECT i, CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(xi) AS HUGEINT) AS s,
                         CAST(sum(xi * xi) AS HUGEINT) AS ss
                  FROM e GROUP BY i)
           SELECT CAST(i AS BIGINT), CAST(n AS BIGINT),
                  CAST(floor(CAST(s AS DOUBLE) / 1000000.0 / n
                       * 1e6 + 0.5) AS BIGINT),
                  CAST(floor(CAST(n * ss - s * s AS DOUBLE)
                       / n / n / 1000000.0 / 1000000.0
                       * 1e6 + 0.5) AS BIGINT)
           FROM s""").fetchall())
    for blocks in (1, 7):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = embedding_dim_stats(ds)
        got = sorted((r["dim"], r["n"], r["mean_e6"], r["var_e6"])
                     for r in out.to_pylist())
        assert got == want, blocks
        # float sanity on a dense dim (dim 2 has no planted nulls
        # pattern guarantee, so compare against numpy on dim 1)
    dense = np.array([r[0] for r in rows if r is not None
                      and r[0] is not None])
    qd = np.floor(dense.astype(np.float32).astype(np.float64)
                  * 1e6 + 0.5) / 1e6
    g1 = [r for r in got if r[0] == 1][0]
    assert abs(g1[2] / 1e6 - qd.mean()) < 2e-6
    assert abs(g1[3] / 1e6 - qd.var()) < 2e-6


def test_embedding_dim_stats_empty_and_mixed_width():
    import pytest as _pytest

    from json_schema_ray.engine.similarity import embedding_dim_stats

    e = pa.table({"embedding": pa.array([], pa.list_(pa.float32()))})
    out = embedding_dim_stats(_ray().data.from_arrow(e))
    assert out.num_rows == 0

    a = pa.table({"embedding": pa.array([[1.0, 2.0]],
                                        pa.list_(pa.float32()))})
    b = pa.table({"embedding": pa.array([[1.0, 2.0, 3.0]],
                                        pa.list_(pa.float32()))})
    ds = _ray().data.from_arrow(a).union(_ray().data.from_arrow(b))
    with _pytest.raises(Exception):
        embedding_dim_stats(ds)


def test_grouped_embedding_centroids_matches_duckdb():
    """Per-label centroid vs SQL unnest GROUP BY (label, dim): NULL
    labels form their own group, NULL vectors drop, NULL elements
    drop per dimension, nullable-int labels stay ints."""
    import duckdb

    from json_schema_ray.engine.similarity import \
        grouped_embedding_centroids

    rng = np.random.default_rng(23)
    n, d = 800, 8
    m = rng.normal(0, 0.5, (n, d))
    labs = rng.integers(0, 4, n).astype(object)
    labs[rng.random(n) < 0.05] = None
    rows = []
    for i in range(n):
        if i % 89 == 0:
            rows.append(None)
            continue
        v = m[i].tolist()
        if i % 37 == 0:
            v[i % d] = None
        rows.append(v)
    t = pa.table({
        "label": pa.array(labs.tolist(), pa.int32()),
        "embedding": pa.array(rows, pa.list_(pa.float32()))})
    want = sorted(duckdb.sql(
        """WITH e AS (
               SELECT label, i,
                      CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                           AS BIGINT) AS xi
               FROM (SELECT label, unnest(embedding) AS x,
                            generate_subscripts(embedding, 1) AS i
                     FROM t)
               WHERE x IS NOT NULL)
           SELECT label, CAST(i AS BIGINT),
                  CAST(count(*) AS BIGINT),
                  CAST(floor(CAST(sum(xi) AS DOUBLE) / 1000000.0
                       / count(*) * 1e6 + 0.5) AS BIGINT)
           FROM e GROUP BY label, i""").fetchall(),
        key=lambda r: (r[0] is None, r[0] if r[0] is not None
                       else 0, r[1]))
    for blocks in (1, 5):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = grouped_embedding_centroids(ds)
        got = sorted(((r["label"], r["dim"], r["n"], r["mean_e6"])
                      for r in out.to_pylist()),
                     key=lambda r: (r[0] is None, r[0] if r[0]
                                    is not None else 0, r[1]))
        assert got == want, blocks


def test_keyed_hopping_distinct_matches_duckdb():
    """Per-key sliding-window distinct vs the SQL hop-offset unnest
    twin: NULL values drop, NULL ts lands in the NULL window, hot
    keys collapse per block before expansion."""
    import duckdb

    from json_schema_ray.engine.window import \
        keyed_hopping_distinct_counts

    rng = np.random.default_rng(29)
    n = 5000
    u = rng.integers(0, 30, n)
    u[:2000] = 4
    base = rng.integers(0, 20 * 86400, n).astype(np.int64) * 1_000_000
    tso = base.astype(object)
    tso[rng.random(n) < 0.02] = None
    vals = rng.choice(["a", "b", "c", "d", "e"], n).astype(object)
    vals[rng.random(n) < 0.03] = None
    t = pa.table({
        "u": pa.array(u, pa.int64()),
        "ts": pa.array(tso.tolist(), pa.timestamp("us")),
        "v": pa.array(vals.tolist(), pa.string())})
    want = sorted(duckdb.sql(
        """SELECT CAST(floor(epoch_us(ts) / 86400000000)
                       * 86400000000
                       - k.k * 86400000000 AS BIGINT) AS w,
                  u, count(DISTINCT v)::BIGINT
           FROM t CROSS JOIN (SELECT unnest([0,1,2]) AS k) k
           WHERE v IS NOT NULL
           GROUP BY 1, 2""").fetchall(),
        key=lambda r: (r[0] is None, r[0] or 0, r[1]))
    for blocks in (1, 8):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        out = keyed_hopping_distinct_counts(
            ds, "ts", "u", "v", window_seconds=3 * 86400,
            hop_seconds=86400)
        got = sorted(((r["window_start_us"], r["u"], r["n_distinct"])
                      for r in out.take_all()),
                     key=lambda r: (r[0] is None, r[0] or 0, r[1]))
        assert got == want, blocks


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_new_stitch_ops_randomized_differential(seed):
    """Randomized multi-block differential for the round-4 boundary-
    stitch operators (transition_counts, session_table): random key
    skew, tie timestamps, NULL labels/ts, random block counts — each
    compared against DuckDB on the same table. Guards the edge-merge
    logic against alignment regressions beyond the single-seed
    tests."""
    import duckdb

    from json_schema_ray.engine.keys import transition_counts
    from json_schema_ray.engine.window import session_table

    rng = np.random.default_rng(seed)
    n = int(rng.integers(500, 3000))
    zipf = rng.zipf(1.5, n) % 17
    ts = (rng.integers(0, 5 * 86400, n) * 1_000_000).astype(object)
    ts[rng.random(n) < 0.03] = None
    labs = rng.choice(["s", "t", "u"], n).astype(object)
    labs[rng.random(n) < 0.08] = None
    vals = rng.normal(0, 3, n).astype(object)
    vals[rng.random(n) < 0.07] = None
    t = pa.table({
        "u": pa.array(zipf.astype(np.int64), pa.int64()),
        "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        "rid": pa.array(np.arange(n), pa.int64()),
        "lab": pa.array(labs.tolist(), pa.string()),
        "v": pa.array(vals.tolist(), pa.float64())})
    blocks = int(rng.integers(2, 11))
    ds = _ray().data.from_arrow(t).repartition(blocks)

    got = sorted(((r["prev_label"], r["label"], r["n"])
                  for r in transition_counts(
                      ds, "u", "ts", "lab", tiebreak="rid")
                  .take_all()),
                 key=lambda r: (r[0] is None, r[0] or "",
                                r[1] is None, r[1] or ""))
    want = sorted(duckdb.sql(
        """WITH l AS (SELECT lag(lab) OVER (PARTITION BY u
                        ORDER BY ts, rid) AS p, lab AS c FROM t)
           SELECT p, c, CAST(count(*) AS BIGINT) FROM l
           GROUP BY p, c""").fetchall(),
        key=lambda r: (r[0] is None, r[0] or "",
                       r[1] is None, r[1] or ""))
    assert got == want

    got_s = sorted((r["u"], r["session_start_us"],
                    r["session_end_us"], r["n_events"])
                   for r in session_table(
                       ds, "u", "ts", gap_seconds=3600.0).take_all())
    want_s = sorted(duckdb.sql(
        """WITH o AS (SELECT u, epoch_us(ts) AS tu,
                        lag(epoch_us(ts)) OVER (PARTITION BY u
                          ORDER BY ts) AS prev
                      FROM t WHERE ts IS NOT NULL),
             f AS (SELECT u, tu, CASE WHEN prev IS NULL
                        OR tu - prev > 3600000000 THEN 1 ELSE 0 END
                        AS new_s FROM o),
             s AS (SELECT u, tu, sum(new_s) OVER (PARTITION BY u
                     ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                   FROM f)
           SELECT u, CAST(min(tu) AS BIGINT),
                  CAST(max(tu) AS BIGINT), CAST(count(*) AS BIGINT)
           FROM s GROUP BY u, sid""").fetchall())
    assert got_s == want_s

    from json_schema_ray.engine.rank import cumulative_max

    got_m = {r["rid"]: r["running_max"] for r in
             cumulative_max(ds, "u", "ts", "v",
                            tiebreak="rid").take_all()}
    want_m = {r[0]: r[1] for r in duckdb.sql(
        """SELECT rid, max(v) OVER (PARTITION BY u
             ORDER BY ts NULLS LAST, rid
             ROWS UNBOUNDED PRECEDING) FROM t""").fetchall()}
    assert got_m == want_m


def test_session_ops_null_keys_group_together():
    """NULL keys must form ONE partition (SQL PARTITION BY), not one
    segment per row — nullable-int keys convert to NaN in numpy and
    NaN != NaN would split them without the arrow-side comparison."""
    import duckdb

    from json_schema_ray.engine.window import (session_table,
                                               sessionize_counts)

    rng = np.random.default_rng(41)
    n = 800
    u = rng.integers(0, 5, n).astype(object)
    u[rng.random(n) < 0.3] = None
    ts = (rng.integers(0, 3 * 86400, n) * 1_000_000).astype(np.int64)
    t = pa.table({"u": pa.array(u.tolist(), pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us"))})
    want = sorted(duckdb.sql(
        """WITH o AS (SELECT u, epoch_us(ts) AS tu,
                        lag(epoch_us(ts)) OVER (PARTITION BY u
                          ORDER BY ts) AS prev FROM t),
             f AS (SELECT u, tu, CASE WHEN prev IS NULL
                        OR tu - prev > 3600000000 THEN 1 ELSE 0 END
                        AS new_s FROM o),
             s AS (SELECT u, tu, sum(new_s) OVER (PARTITION BY u
                     ORDER BY tu ROWS UNBOUNDED PRECEDING) AS sid
                   FROM f)
           SELECT u, CAST(min(tu) AS BIGINT),
                  CAST(count(*) AS BIGINT)
           FROM s GROUP BY u, sid""").fetchall(),
        key=lambda r: (r[0] is None, r[0] or 0, r[1]))
    for blocks in (1, 6):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = sorted(((r["u"], r["session_start_us"], r["n_events"])
                      for r in session_table(
                          ds, "u", "ts", gap_seconds=3600.0)
                      .take_all()),
                     key=lambda r: (r[0] is None, r[0] or 0, r[1]))
        assert got == want, blocks
        sc = {r["u"]: (r["n_events"], r["n_sessions"])
              for r in sessionize_counts(ds, "u", "ts",
                                         gap_seconds=3600.0)
              .take_all()}
        from collections import Counter
        cnt_sessions = Counter(r[0] for r in got)
        cnt_events: dict = {}
        for ukey, _s, ne in got:
            cnt_events[ukey] = cnt_events.get(ukey, 0) + ne
        assert {k: (cnt_events[k], cnt_sessions[k])
                for k in cnt_sessions} == sc, blocks


def test_null_safe_sort_nullable_int_key_no_duplication():
    """Ray's range-partitioned sort DUPLICATES rows when a primary
    sort column contains nulls (nullable int64/timestamp keys:
    800-row inputs nondeterministically returned 830-930 rows).
    null_safe_sort must ship every key column non-null (is-null flag
    + type-zero fill) so row counts are exact and null keys form one
    contiguous segment."""
    from json_schema_ray.engine.relational import null_safe_sort

    rng = np.random.default_rng(47)
    n = 800
    u = rng.integers(0, 5, n).astype(object)
    u[rng.random(n) < 0.3] = None
    ts = (rng.integers(0, 3 * 86400, n) * 1_000_000).astype(np.int64)
    t = pa.table({"u": pa.array(u.tolist(), pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us"))})
    n_null = sum(1 for v in u.tolist() if v is None)
    for trial in range(3):
        ds = _ray().data.from_arrow(t).repartition(6)
        s = null_safe_sort(ds, ["u"], ["ts"])
        seq = []
        for b in s.iter_batches(batch_format="pyarrow"):
            col = b["u"].combine_chunks() if isinstance(
                b["u"], pa.ChunkedArray) else b["u"]
            seq.extend(None if not v.is_valid else v.as_py()
                       for v in col)
        assert len(seq) == n, trial
        assert sum(1 for v in seq if v is None) == n_null, trial
        # null keys contiguous (one run), keys non-decreasing
        runs = [v for j, v in enumerate(seq)
                if j == 0 or v != seq[j - 1]]
        assert runs.count(None) == 1, trial
        nn = [v for v in runs if v is not None]
        assert nn == sorted(nn), trial


def test_null_safe_sort_nullable_tail_no_duplication():
    """Round-4 regression: the Ray nullable-sort-column duplication
    defect ALSO fires on nullable TAIL columns (a nullable timestamp
    tail: 2,245-row inputs nondeterministically returned 2,462/2,631
    rows on ~1/4 of trials). null_safe_sort must flag+fill tails the
    same way as keys, keep NULLS LAST within equal keys, and restore
    the original nullable tail values."""
    from json_schema_ray.engine.relational import null_safe_sort

    rng = np.random.default_rng(33)
    n = 2000
    u = (rng.zipf(1.4, n) % 13).astype(object)
    u[rng.random(n) < 0.05] = None
    ts = (rng.integers(0, 3 * 86400, n) * 1_000_000).astype(object)
    ts[rng.random(n) < 0.05] = None
    t = pa.table({
        "u": pa.array(u.tolist(), pa.int64()),
        "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        "rid": pa.array(np.arange(n), pa.int64())})
    n_null_ts = sum(1 for v in ts.tolist() if v is None)
    for trial in range(6):
        ds = _ray().data.from_arrow(t).repartition(7)
        s = null_safe_sort(ds, ["u"], ["ts", "rid"])
        rids, tss = [], []
        for b in s.iter_batches(batch_format="pyarrow"):
            rids.extend(b["rid"].to_pylist())
            tss.extend(b["ts"].to_pylist())
        assert len(rids) == n, (trial, len(rids))
        assert len(set(rids)) == n, trial
        # tail nulls restored, and NULLS LAST within each key run
        assert sum(1 for v in tss if v is None) == n_null_ts, trial
        by_rid = {rid: v for rid, v in zip(rids, tss)}
        orig = {rid: v for rid, v in
                zip(range(n), t["ts"].to_pylist())}
        assert by_rid == orig, trial


def test_snapshot_diff_nullable_int_keys():
    """snapshot_diff over a nullable INT key: the distributed sort
    must not duplicate rows (Ray nullable-primary-key sort defect)
    and the NULL key matches across snapshots (IS DISTINCT FROM)."""
    from json_schema_ray.engine.relational import snapshot_diff

    rng = np.random.default_rng(53)
    n = 700
    ids = np.arange(n).astype(object)
    ids[0] = None                     # one NULL key, both snapshots
    vals = rng.integers(0, 100, n)
    old = pa.table({"k": pa.array(ids.tolist(), pa.int64()),
                    "v": pa.array(vals, pa.int64())})
    new_vals = vals.copy()
    new_vals[1] += 5                  # k=1 changed
    new_vals[0] += 7                  # NULL key changed
    keep = np.ones(n, bool)
    keep[2] = False                   # k=2 removed
    new = pa.table({"k": pa.array(
        (ids[keep]).tolist() + [10_000], pa.int64()),
        "v": pa.array(np.concatenate([new_vals[keep], [1]]),
                      pa.int64())})
    for blocks in (1, 5):
        o = _ray().data.from_arrow(old).repartition(blocks)
        nn = _ray().data.from_arrow(new).repartition(blocks)
        got = sorted(((r["k"], r["change"]) for r in
                      snapshot_diff(o, nn, ["k"], ["v"]).take_all()),
                     key=lambda r: (r[0] is None, r[0] or 0))
        assert got == [(1, "changed"), (2, "removed"),
                       (10000, "added"), (None, "changed")], blocks


# ---------------------------------------------------------------------------
# expectation_report (engine/expectations.py)
# ---------------------------------------------------------------------------

def test_expectation_report_counts_and_null_contract():
    from json_schema_ray.engine import expectations as ex

    t = pa.table({
        "v": pa.array([1.0, -2.0, None, 5.0, 100.0], pa.float64()),
        "s": pa.array(["ok", "nope", None, "ok", "toolongvalue"]),
    })
    checks = [
        ex.not_null("v"),
        ex.between("v", lo=0.0, hi=10.0, name="v_range"),
        ex.in_set("s", ["ok"], name="s_in"),
        ex.matches("s", r"^o", name="s_match"),
        ex.str_length_between("s", lo=1, hi=4, name="s_len"),
    ]
    for blocks in (1, 3):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["check_name"]: r for r in
               ex.expectation_report(ds, checks).to_pylist()}
        assert got["v_not_null"]["n_failed"] == 1
        # nulls are skipped by non-not_null checks
        assert got["v_range"]["n_failed"] == 2          # -2.0, 100.0
        assert got["s_in"]["n_failed"] == 2             # nope, toolong
        assert got["s_match"]["n_failed"] == 2          # nope, toolong
        assert got["s_len"]["n_failed"] == 1            # toolongvalue
        for r in got.values():
            assert r["n_rows"] == 5
            assert r["fail_e6"] == (r["n_failed"] * 1_000_000) // 5
            assert r["passed"] == int(r["n_failed"] == 0)
    # output is sorted by check name
    names = [r["check_name"] for r in
             ex.expectation_report(
                 _ray().data.from_arrow(t), checks).to_pylist()]
    assert names == sorted(names)


def test_expectation_report_open_bounds_and_errors():
    from json_schema_ray.engine import expectations as ex

    t = pa.table({"v": pa.array([1, 2, 30], pa.int64())})
    ds = _ray().data.from_arrow(t)
    got = {r["check_name"]: r["n_failed"] for r in
           ex.expectation_report(ds, [
               ex.between("v", lo=2, name="v_ge2"),
               ex.between("v", hi=2, name="v_le2"),
           ]).to_pylist()}
    assert got == {"v_ge2": 1, "v_le2": 1}

    with pytest.raises(ValueError, match="empty contract"):
        ex.expectation_report(ds, [])
    with pytest.raises(ValueError, match="duplicate"):
        ex.expectation_report(ds, [ex.not_null("v"), ex.not_null("v")])
    with pytest.raises(ValueError, match="at least one bound"):
        ex.between("v")
    with pytest.raises(ValueError, match="unknown expectation kind"):
        ex.expectation_report(
            ds, [{"kind": "bogus", "column": "v", "name": "x"}])


# ---------------------------------------------------------------------------
# keyword_search (engine/text.py)
# ---------------------------------------------------------------------------

def test_keyword_search_all_any_nulls_and_duplicates():
    from json_schema_ray.engine.text import keyword_search

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "alpha beta gamma",
            "alpha alpha alpha",      # dup occurrences of ONE term
            "beta  gamma",
            None,
            "",
        ]),
    })
    for blocks in (1, 3):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got_all = sorted(r["doc_id"] for r in keyword_search(
            ds, ["alpha", "beta"], mode="all").take_all())
        assert got_all == [0]         # doc 1's repeats don't count twice
        got_any = sorted(r["doc_id"] for r in keyword_search(
            ds, ["alpha", "beta"], mode="any").take_all())
        assert got_any == [0, 1, 2]   # null/empty text never matches

    with pytest.raises(ValueError, match="empty term"):
        keyword_search(_ray().data.from_arrow(t), [])
    with pytest.raises(ValueError, match="duplicate"):
        keyword_search(_ray().data.from_arrow(t), ["a", "a"])
    with pytest.raises(ValueError, match="64"):
        keyword_search(_ray().data.from_arrow(t),
                       [f"t{i}" for i in range(65)])
    with pytest.raises(ValueError, match="bad mode"):
        keyword_search(_ray().data.from_arrow(t), ["a"], mode="xor")


# ---------------------------------------------------------------------------
# key_skew_report (engine/stats.py)
# ---------------------------------------------------------------------------

def test_key_skew_report_hot_key_nulls_and_empty():
    from json_schema_ray.engine.stats import key_skew_report

    # one hot key (900 rows), 99 singleton keys, 1 NULL-key row
    keys = [7] * 900 + list(range(100, 199)) + [None]
    t = pa.table({"k": pa.array(keys, pa.int64())})
    for blocks in (1, 8):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        r = key_skew_report(ds, "k").to_pylist()[0]
        assert r["n_keys"] == 101          # NULL is its own group
        assert r["n_rows"] == 1000
        assert r["max_count"] == 900
        assert r["p50_count"] == 1
        assert r["p99_count"] == 1         # rank ceil(.99*101)=100 -> 1
        assert r["top_share_e6"] == 900_000
        assert r["avg_count_e6"] == (1000 * 1_000_000) // 101

    empty = _ray().data.from_arrow(
        pa.table({"k": pa.array([], pa.int64())}))
    r0 = key_skew_report(empty, "k").to_pylist()[0]
    assert r0["n_keys"] == 0 and r0["n_rows"] == 0


# ---------------------------------------------------------------------------
# kmeans_fixed_point (engine/similarity.py)
# ---------------------------------------------------------------------------

def _kmeans_ref(X, k, n_iter, scale=1_000_000):
    """Pure-python-int Lloyd reference with the documented tie /
    truncation / empty-cluster semantics."""
    import math
    n, d = X.shape
    Xq = [[int(math.floor(float(np.float32(x)) * scale + 0.5))
           for x in row] for row in X]
    C = [list(Xq[i]) for i in range(k)]
    cnt = [0] * k
    for _ in range(n_iter):
        sums = [[0] * d for _ in range(k)]
        cnt = [0] * k
        for i in range(n):
            best, bi = None, None
            for c in range(k):
                dist = sum((Xq[i][j] - C[c][j]) ** 2 for j in range(d))
                if best is None or dist < best:
                    best, bi = dist, c
            cnt[bi] += 1
            for j in range(d):
                sums[bi][j] += Xq[i][j]
        for c in range(k):
            if cnt[c]:
                C[c] = [(abs(s) // cnt[c]) * (1 if s >= 0 else -1)
                        for s in sums[c]]
    return {(c, j + 1): (C[c][j], cnt[c])
            for c in range(k) for j in range(d)}


def test_kmeans_fixed_point_differential_and_blocks():
    from json_schema_ray.engine.similarity import kmeans_fixed_point

    rng = np.random.default_rng(7)
    n, d, k, it = 120, 6, 3, 3
    X = rng.normal(size=(n, d)) * 0.4
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([[float(np.float32(v)) for v in row]
                               for row in X], pa.list_(pa.float32()))})
    ref = _kmeans_ref(X, k, it)
    for blocks in (1, 7):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {(r["cluster"], r["dim"]): (r["centroid_e"], r["n"])
               for r in kmeans_fixed_point(
                   ds, k=k, n_iter=it).to_pylist()}
        assert got == ref, blocks


def test_kmeans_fixed_point_empty_cluster_and_errors():
    from json_schema_ray.engine.similarity import kmeans_fixed_point

    # ids 0 and 1 are IDENTICAL points: every point ties to both
    # init centroids, argmin tie -> cluster 0, so cluster 1 goes
    # empty and must keep its init centroid with n=0
    t = pa.table({
        "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
        "embedding": pa.array([[0.5, 0.5]] * 4, pa.list_(pa.float32()))})
    ds = _ray().data.from_arrow(t)
    out = kmeans_fixed_point(ds, k=2, n_iter=2).to_pylist()
    by_cl = {}
    for r in out:
        by_cl.setdefault(r["cluster"], []).append(r)
    assert all(r["n"] == 4 for r in by_cl[0])
    assert all(r["n"] == 0 for r in by_cl[1])
    assert all(r["centroid_e"] == 500000 for r in out)

    with pytest.raises(ValueError, match="< k"):
        kmeans_fixed_point(ds, k=10, n_iter=1)
    ragged = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0.1, 0.2], [0.3]],
                              pa.list_(pa.float32()))})
    with pytest.raises(Exception, match="ragged"):
        kmeans_fixed_point(
            _ray().data.from_arrow(ragged), k=1, n_iter=1)


# ---------------------------------------------------------------------------
# cross_jaccard_join (engine/dedup.py)
# ---------------------------------------------------------------------------

def test_cross_jaccard_join_sides_and_filtering():
    from json_schema_ray.engine.dedup import cross_jaccard_join

    base = "alpha beta gamma delta epsilon zeta eta theta"
    near = "alpha beta gamma delta epsilon zeta eta iota"   # 1 word off
    other = "one two three four five six seven eight"
    # corpus A: doc 5 ~ B's doc 5 (identical text, same raw id on
    # both sides must still pair); doc 7 near-dups B's doc 2;
    # A-internal dup (7 vs 9 identical) must NOT appear
    a = pa.table({"doc_id": pa.array([5, 7, 9], pa.int64()),
                  "text": pa.array([other, base, base])})
    b = pa.table({"doc_id": pa.array([2, 5], pa.int64()),
                  "text": pa.array([near, other])})
    for blocks in (1, 2):
        da = _ray().data.from_arrow(a).repartition(blocks)
        db = _ray().data.from_arrow(b).repartition(blocks)
        out = cross_jaccard_join(da, db, "doc_id", threshold=0.5)
        got = {(r["id_a"], r["id_b"]): r["jaccard"]
               for r in out.to_pylist()}
        assert set(got) == {(5, 5), (7, 2), (9, 2)}, (blocks, got)
        assert got[(5, 5)] == 1.0
        # (7,2)/(9,2): 4 shared of (4 + 4 - ... ) word-5-gram sets
        assert 0.5 <= got[(7, 2)] < 1.0

    neg = pa.table({"doc_id": pa.array([-1], pa.int64()),
                    "text": pa.array(["x y z"])})
    with pytest.raises(Exception, match="negative ids"):
        cross_jaccard_join(_ray().data.from_arrow(neg),
                           _ray().data.from_arrow(b), "doc_id")


def test_kmeans_assign_stats_matches_bruteforce():
    from json_schema_ray.engine.similarity import (
        kmeans_assign_stats, kmeans_fixed_point)

    rng = np.random.default_rng(11)
    n, d, k, it = 80, 5, 3, 2
    X = rng.normal(size=(n, d)) * 0.4
    t = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([[float(np.float32(v)) for v in row]
                               for row in X], pa.list_(pa.float32()))})
    ds = _ray().data.from_arrow(t).repartition(4)
    cents = kmeans_fixed_point(ds, k=k, n_iter=it)
    got = {r["cluster"]: (r["n"], r["inertia"]) for r in
           kmeans_assign_stats(ds, cents).to_pylist()}

    # brute force under the SAME final centroids
    import math
    C = {}
    for r in cents.to_pylist():
        C.setdefault(r["cluster"], {})[r["dim"]] = r["centroid_e"]
    Xq = [[int(math.floor(float(np.float32(x)) * 1_000_000 + 0.5))
           for x in row] for row in X]
    ref = {c: [0, 0] for c in range(k)}
    for i in range(n):
        best, bi = None, None
        for c in range(k):
            dist = sum((Xq[i][j] - C[c][j + 1]) ** 2 for j in range(d))
            if best is None or dist < best:
                best, bi = dist, c
        ref[bi][0] += 1
        ref[bi][1] += best
    assert got == {c: tuple(v) for c, v in ref.items()}
    # inertia is exact integers, all counted
    assert sum(v[0] for v in got.values()) == n


# ---------------------------------------------------------------------------
# cusum_scan (engine/drift.py)
# ---------------------------------------------------------------------------

def test_cusum_scan_detects_sustained_shift():
    from json_schema_ray.engine.drift import cusum_scan

    # 20 steady days at 100, then 10 days at a modest sustained 130:
    # no single day is a robust-z outlier, but CUSUM accumulates
    base = [100] * 20 + [130] * 10
    t = pa.table({"w": pa.array(range(30), pa.int64()),
                  "n": pa.array(base, pa.int64())})
    out = cusum_scan(t, "w", "n")
    rows = out.to_pylist()

    # python-int reference with identical truncation semantics
    mu = (sum(base) * 1_000_000) // len(base)
    kappa, h = mu * 1 // 8, mu * 1 // 2
    sp = sn = 0
    for i, x in enumerate(base):
        dev = x * 1_000_000 - mu
        sp = max(0, sp + dev - kappa)
        sn = max(0, sn - dev - kappa)
        assert rows[i]["cusum_pos_e6"] == sp
        assert rows[i]["cusum_neg_e6"] == sn
        assert rows[i]["flag"] == int(sp > h or sn > h)
    assert any(r["flag"] for r in rows[20:])      # shift caught
    assert not any(r["flag"] for r in rows[:20])  # steady run clean

    empty = cusum_scan(t.slice(0, 0), "w", "n")
    assert empty.num_rows == 0
    assert empty.column_names == ["w", "n", "cusum_pos_e6",
                                  "cusum_neg_e6", "flag"]


def test_embedding_cross_pairs_sides_and_threshold():
    from json_schema_ray.engine.similarity import embedding_cross_pairs

    # q0 ~ r0 (identical), q1 orthogonal to both refs
    q = pa.table({"vec_id": pa.array([10, 11], pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], [0.0, 1.0]],
                                        pa.list_(pa.float32()))})
    r = pa.table({"vec_id": pa.array([20, 21], pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], [0.7, 0.7]],
                                        pa.list_(pa.float32()))})
    for blocks in (1, 2):
        dq = _ray().data.from_arrow(q).repartition(blocks)
        dr = _ray().data.from_arrow(r).repartition(blocks)
        got = {(x["id_q"], x["id_r"]): x["cosine"] for x in
               embedding_cross_pairs(dq, dr, threshold=0.6)
               .take_all()}
        # q0-r0 cos=1, q0-r1 cos=.707, q1-r1 cos=.707; q1-r0 cos=0
        assert set(got) == {(10, 20), (10, 21), (11, 21)}, blocks
        assert abs(got[(10, 20)] - 1.0) < 1e-12
        # within-side pairs never appear (q0 vs q1, r0 vs r1)

    empty_ref = _ray().data.from_arrow(r.slice(0, 0))
    out = embedding_cross_pairs(
        _ray().data.from_arrow(q), empty_ref).take_all()
    assert out == []


def test_jsonl_roundtrip_preserves_nulls_and_values(tmp_path):
    import ray

    t = pa.table({"k": pa.array([1, None, 3], pa.int64()),
                  "s": pa.array(["a", None, "c"])})
    d = str(tmp_path / "jl")
    _ray().data.from_arrow(t).write_json(d)
    back = ray.data.read_json(d).take_all()
    got = sorted(((r["k"], r["s"]) for r in back),
                 key=lambda x: (x[0] is None, x[0] or 0))
    assert got == [(1, "a"), (3, "c"), (None, None)]


def test_review_fixes_keyword64_nullemb_nullid_ragged():
    from json_schema_ray.engine.dedup import cross_jaccard_join
    from json_schema_ray.engine.similarity import (
        embedding_cross_pairs, kmeans_fixed_point)
    from json_schema_ray.engine.text import keyword_search

    # exactly 64 terms: want mask must be all-ones, not 0/UB
    toks = [f"t{i}" for i in range(64)]
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array([" ".join(toks),
                                    " ".join(toks[:63])])})
    got = [r["doc_id"] for r in keyword_search(
        _ray().data.from_arrow(t), toks, mode="all").take_all()]
    assert got == [0]

    # null embedding/id rows must drop, not misalign ids
    q = pa.table({"vec_id": pa.array([1, 2, 3], pa.int64()),
                  "embedding": pa.array([[1.0, 0.0], None, [0.0, 1.0]],
                                        pa.list_(pa.float32()))})
    r = pa.table({"vec_id": pa.array([7, None], pa.int64()),
                  "embedding": pa.array([[0.0, 1.0], [1.0, 0.0]],
                                        pa.list_(pa.float32()))})
    pairs = embedding_cross_pairs(_ray().data.from_arrow(q),
                                  _ray().data.from_arrow(r),
                                  threshold=0.9).take_all()
    assert {(p["id_q"], p["id_r"]) for p in pairs} == {(3, 7)}

    # all-null id block: clear contract error, not a TypeError
    nulls = pa.table({"doc_id": pa.array([None, None], pa.int64()),
                      "text": pa.array(["a b", "c d"])})
    ok = pa.table({"doc_id": pa.array([1], pa.int64()),
                   "text": pa.array(["a b"])})
    with pytest.raises(Exception, match="negative|null|ids"):
        cross_jaccard_join(_ray().data.from_arrow(nulls),
                           _ray().data.from_arrow(ok), "doc_id")

    # cross-block ragged widths: loud ValueError, not a shape crash
    a = pa.table({"vec_id": pa.array([0, 1], pa.int64()),
                  "embedding": pa.array([[0.1] * 4] * 2,
                                        pa.list_(pa.float32()))})
    b = pa.table({"vec_id": pa.array([2, 3], pa.int64()),
                  "embedding": pa.array([[0.1] * 5] * 2,
                                        pa.list_(pa.float32()))})
    ragged = _ray().data.from_arrow(a).union(
        _ray().data.from_arrow(b))
    with pytest.raises(Exception, match="ragged"):
        kmeans_fixed_point(ragged, k=2, n_iter=1)


def test_cusum_scan_negative_series_trunc_and_null_raise():
    from json_schema_ray.engine.drift import cusum_scan

    t = pa.table({"w": pa.array([0, 1, 2], pa.int64()),
                  "n": pa.array([-1, 0, 0], pa.int64())})
    out = cusum_scan(t, "w", "n").to_pylist()
    # DuckDB-trunc mean: (-1000000)//3 -> -333333 (not floor -333334)
    mu = -333333
    kappa = 0        # trunc(mu/8) == 0 toward zero
    sp = max(0, (-1 * 1_000_000 - mu) - kappa)
    assert out[0]["cusum_pos_e6"] == sp

    tn = pa.table({"w": pa.array([0], pa.int64()),
                   "n": pa.array([None], pa.int64())})
    with pytest.raises(ValueError, match="null values"):
        cusum_scan(tn, "w", "n")


def test_leakage_free_split_invariant_no_cluster_straddles():
    """Every near-dup pair must land in ONE split (the operator's
    whole point) — verified against per-doc assignments recomputed
    the same way the query assigns them."""
    from json_schema_ray.engine.dedup import (
        connected_components, ngram_jaccard_dedup_pairs)
    from json_schema_ray.state.sketches import hash_ints

    base = "w1 w2 w3 w4 w5 w6 w7 w8"
    texts, n = [], 40
    for i in range(n):
        if i % 4 == 0 and i + 1 < n:
            texts.append(base + f" x{i}")
        elif i % 4 == 1:
            texts.append(base + f" x{i - 1}")   # near-dup of i-1
        else:
            texts.append(" ".join(f"u{i}w{j}" for j in range(8)))
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts)})
    ds = _ray().data.from_arrow(t).repartition(5)
    pairs = ngram_jaccard_dedup_pairs(ds, "doc_id", threshold=0.5)
    assert pairs.num_rows > 0
    comp = {r["id"]: r["component"]
            for r in connected_components(pairs).to_pylist()}
    thr = int(0.8 * float(1 << 64))
    split = {i: int(hash_ints(np.array(
        [comp.get(i, i)], np.int64))[0] >= thr) for i in range(n)}
    for r in pairs.to_pylist():
        assert split[r["id_a"]] == split[r["id_b"]], r


def test_windowed_extrema_matches_duckdb_rows_frame():
    import duckdb

    from json_schema_ray.engine.rank import windowed_extrema

    rng = np.random.default_rng(59)
    n = 4000
    t = pa.table({
        "k": pa.array(rng.integers(0, 12, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 3000, n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array([None if rng.random() < 0.1 else int(x)
                       for x in rng.integers(-99, 99, n)], pa.int64()),
    })
    for blocks, w in ((1, 4), (9, 6), (13, 1)):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: (r["win_min"], r["win_max"], r["win_cnt"])
               for r in windowed_extrema(
                   ds, "k", "ts", "v", "rid", w).take_all()}
        want = {r[0]: (r[1], r[2], r[3]) for r in duckdb.sql(f"""
            SELECT rid, min(v) OVER w, max(v) OVER w,
                   count(v) OVER w
            FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid
              ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
            """).fetchall()}
        assert got == want, (blocks, w)


def test_windowed_extrema_cross_block_carry_chain():
    from json_schema_ray.engine.rank import windowed_extrema

    # one key split over 32 tiny blocks; alternating sign ramp makes
    # every frame's min/max land on different offsets
    n = 1500
    w = 6
    v = np.arange(n) * np.where(np.arange(n) % 2 == 0, 1, -1)
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "ts": pa.array(np.arange(n), pa.int64()),
                  "rid": pa.array(np.arange(n), pa.int64()),
                  "v": pa.array(v, pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(32)
    got = {r["rid"]: (r["win_min"], r["win_max"]) for r in
           windowed_extrema(ds, "k", "ts", "v", "rid", w).take_all()}
    for rid in range(n):
        frame = v[max(0, rid - w + 1):rid + 1]
        assert got[rid] == (int(frame.min()), int(frame.max())), rid


def test_windowed_distinct_count_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import windowed_distinct_count

    rng = np.random.default_rng(61)
    n = 3000
    t = pa.table({
        "k": pa.array(rng.integers(0, 10, n), pa.int64()),
        "ts": pa.array(rng.permutation(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        # tiny value domain so frames repeat values constantly
        "v": pa.array([None if rng.random() < 0.12 else int(x)
                       for x in rng.integers(0, 5, n)], pa.int64()),
    })
    for blocks, w in ((1, 4), (8, 6), (15, 2)):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: (r["win_distinct"], r["win_cnt"]) for r in
               windowed_distinct_count(
                   ds, "k", "ts", "v", "rid", w).take_all()}
        want = {}
        for r in duckdb.sql(f"""
            SELECT rid, count(DISTINCT v) OVER w, count(v) OVER w
            FROM t WINDOW w AS (PARTITION BY k ORDER BY ts, rid
              ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
            """).fetchall():
            # SQL says 0 distinct on empty frames; the op says NULL
            want[r[0]] = (r[1] if r[2] else None, r[2])
        assert got == want, (blocks, w)


def test_grouped_forward_fill_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import grouped_forward_fill

    rng = np.random.default_rng(71)
    n = 4000
    t = pa.table({
        "k": pa.array(rng.integers(0, 10, n), pa.int64()),
        "ts": pa.array(rng.permutation(n), pa.int64()),
        "rid": pa.array(np.arange(n), pa.int64()),
        # 70% nulls: long gaps that must fill across many blocks
        "v": pa.array([None if rng.random() < 0.7 else int(x)
                       for x in rng.integers(0, 99, n)], pa.int64()),
    })
    for blocks in (1, 7, 23):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {r["rid"]: r["filled"] for r in grouped_forward_fill(
            ds, "k", "ts", "v", "rid").take_all()}
        want = {r[0]: r[1] for r in duckdb.sql("""
            SELECT rid, last_value(v IGNORE NULLS) OVER (
                PARTITION BY k ORDER BY ts, rid
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
            FROM t""").fetchall()}
        assert got == want, blocks


def test_grouped_forward_fill_strings_and_all_null_key():
    import duckdb

    from json_schema_ray.engine.rank import grouped_forward_fill

    t = pa.table({
        "k": pa.array([0, 0, 0, 1, 1, 1, 2, 2], pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2, 3, 1, 2], pa.int64()),
        "rid": pa.array(np.arange(8), pa.int64()),
        "v": pa.array(["a", None, "b", None, None, None, None, "x"],
                      pa.string()),
    })
    ds = _ray().data.from_arrow(t).repartition(5)
    got = {r["rid"]: r["filled"] for r in grouped_forward_fill(
        ds, "k", "ts", "v", "rid").take_all()}
    assert got == {0: "a", 1: "a", 2: "b", 3: None, 4: None,
                   5: None, 6: None, 7: "x"}


def test_first_in_group_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.keys import first_in_group

    rng = np.random.default_rng(81)
    n = 6000
    t = pa.table({
        # near-unique keys with occasional heavy repeats
        "k": pa.array(np.where(rng.random(n) < 0.1, 7,
                               rng.integers(0, 4000, n)), pa.int64()),
        "o": pa.array(rng.permutation(n), pa.int64()),
    })
    for blocks in (1, 9, 31):
        ds = _ray().data.from_arrow(t).repartition(blocks)
        got = {(r["k"], r["o"]): r["is_first"] for r in
               first_in_group(ds, ["k"], "o").take_all()}
        want = {(r[0], r[1]): r[2] for r in duckdb.sql("""
            SELECT k, o, o = min(o) OVER (PARTITION BY k)
            FROM t""").fetchall()}
        assert got == want, blocks


def test_first_in_group_one_key_tiny_blocks():
    from json_schema_ray.engine.keys import first_in_group

    # ONE key over 32 tiny blocks: exactly one row may win
    n = 900
    t = pa.table({"k": pa.array(np.zeros(n, np.int64)),
                  "o": pa.array(np.arange(n)[::-1].copy(), pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(32)
    rows = first_in_group(ds, ["k"], "o").take_all()
    winners = [r["o"] for r in rows if r["is_first"]]
    assert winners == [0] and len(rows) == n


def test_global_row_numbers_matches_duckdb():
    import duckdb

    from json_schema_ray.engine.rank import global_row_numbers

    rng = np.random.default_rng(71)
    n = 3000
    t = pa.table({
        "ts": pa.array(rng.integers(0, 400, size=n), pa.int64()),
        "eid": pa.array(rng.permutation(n), pa.int64()),
    })
    # many blocks: the single global "key" spans every one of them
    ds = _ray().data.from_arrow(t).repartition(16)
    out = global_row_numbers(ds, "ts", "eid", out="seq").take_all()
    got = sorted((r["eid"], r["seq"]) for r in out)
    con = duckdb.connect()
    con.register("t", t)
    want = sorted(tuple(r) for r in con.execute(
        "SELECT eid, row_number() OVER (ORDER BY ts, eid) FROM t"
    ).fetchall())
    assert got == want
    assert {r["seq"] for r in out} == set(range(1, n + 1))


def _brute_skyline(p, d):
    keep = []
    for i in range(len(p)):
        dominated = any(
            p[j] >= p[i] and d[j] >= d[i]
            and (p[j] > p[i] or d[j] > d[i]) for j in range(len(p)))
        keep.append(not dominated)
    return keep


def test_skyline_mask_matches_bruteforce():
    from json_schema_ray.engine.relational import _skyline_mask

    rng = np.random.default_rng(72)
    for trial in range(8):
        n = int(rng.integers(1, 60))
        # small value range forces ties and exact duplicates
        p = rng.integers(0, 6, size=n).astype(np.int64)
        d = rng.integers(0, 6, size=n).astype(np.int64)
        got = _skyline_mask(p, d).tolist()
        assert got == _brute_skyline(p, d), (trial, p, d)
    # fully anti-correlated: every point is on the frontier
    x = np.arange(50, dtype=np.int64)
    assert _skyline_mask(x, -x).all()
    # empty
    assert _skyline_mask(np.array([], np.int64),
                         np.array([], np.int64)).tolist() == []


def test_pareto_frontier_distributed_and_nulls():
    from json_schema_ray.engine.relational import pareto_frontier

    rng = np.random.default_rng(73)
    n = 2000
    p = rng.integers(0, 1000, size=n).astype(np.float64)
    d = rng.integers(0, 1000, size=n)
    pl = [None if rng.random() < 0.02 else float(v) for v in p]
    t = pa.table({
        "rid": pa.array(np.arange(n), pa.int64()),
        "x": pa.array(pl, pa.float64()),
        "y": pa.array(d, pa.int64()),
    })
    ds = _ray().data.from_arrow(t).repartition(13)
    out = pareto_frontier(ds, "x", "y")
    got = sorted(out["rid"].to_pylist())
    xs = [v if v is not None else -np.inf for v in pl]
    keep = [i for i in range(n)
            if pl[i] is not None and not any(
                xs[j] >= xs[i] and d[j] >= d[i]
                and (xs[j] > xs[i] or d[j] > d[i])
                for j in range(n) if pl[j] is not None)]
    assert got == keep


def test_contingency_chi2_matches_bruteforce_with_nulls():
    from json_schema_ray.engine.drift import contingency_chi2

    rng = np.random.default_rng(74)
    n = 1500
    a = [None if rng.random() < 0.03 else f"t{int(v)}"
         for v in rng.integers(0, 4, size=n)]
    b = rng.integers(0, 5, size=n)
    t = pa.table({"a": pa.array(a, pa.string()),
                  "b": pa.array(b, pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(7)
    out = contingency_chi2(ds, "a", "b")
    got = {(r["a"], r["b"]): (r["obs"], r["exp_e6"], r["contrib_e6"])
           for r in out.to_pylist()}
    # brute force
    from collections import Counter
    cells = Counter(zip(a, b.tolist()))
    rt = Counter(a)
    ct = Counter(b.tolist())
    assert set(got) == set(cells)
    for (ka, kb), obs in cells.items():
        exp = float(rt[ka]) * float(ct[kb]) / float(n)
        d = float(obs) - exp
        contrib = d * d / exp
        want = (obs, int(np.floor(exp * 1e6 + 0.5)),
                int(np.floor(contrib * 1e6 + 0.5)))
        assert got[(ka, kb)] == want, (ka, kb)
    # the statistic is the sum of contributions (sanity: nonnegative)
    assert all(v[2] >= 0 for v in got.values())


def test_arrow_null_string_multikey_guard():
    """pyarrow 16.x TableGroupBy DUPLICATES null-string groups when
    grouping on [string-with-nulls, fixed-width] keys at ~40+ groups
    (raw repro kept here as documentation of the defect the engine
    guards against). safe_groupby_aggregate must return exactly one
    group per distinct key tuple, schema-identical to the raw call."""
    import random

    from json_schema_ray.engine.relational import safe_groupby_aggregate

    random.seed(1)
    pairs = [(a, b) for a in ["t0", "t1", "t2", "t3", None]
             for b in range(5)] * 7
    random.shuffle(pairs)
    t = pa.table({
        "a": pa.array([p[0] for p in pairs], pa.string()),
        "b": pa.array([p[1] for p in pairs], pa.int64()),
        "obs": pa.array([1] * len(pairs), pa.int64())})
    g = safe_groupby_aggregate(t, ["a", "b"], [("obs", "sum")])
    assert g.num_rows == 25
    got = {(r["a"], r["b"]): r["obs_sum"] for r in g.to_pylist()}
    assert len(got) == 25 and all(v == 7 for v in got.values())
    assert g.schema.field("a").type == pa.string()
    # no-null and single-key paths stay raw and correct
    import pyarrow.compute as _pc
    t2 = t.set_column(0, "a", _pc.fill_null(t["a"], "tN"))
    g2 = safe_groupby_aggregate(t2, ["a", "b"], [("obs", "sum")])
    assert g2.num_rows == 25
    g3 = safe_groupby_aggregate(t, ["a"], [("obs", "sum")])
    assert g3.num_rows == 5


def test_pre_aggregate_null_string_key_multikey():
    from json_schema_ray.engine.relational import grouped_aggregate

    import random
    random.seed(2)
    pairs = [(a, b) for a in ["x0", "x1", "x2", "x3", None]
             for b in range(5)] * 9
    random.shuffle(pairs)
    t = pa.table({
        "k": pa.array([p[0] for p in pairs], pa.string()),
        "w": pa.array([p[1] for p in pairs], pa.int64()),
        "v": pa.array([2] * len(pairs), pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(3)
    out = grouped_aggregate(ds, ["k", "w"], [("v", "sum")])
    assert out.num_rows == 25
    got = {(r["k"], r["w"]): r["v_sum"] for r in out.to_pylist()}
    assert all(v == 18 for v in got.values())


def test_densify_gaps_matches_bruteforce():
    from json_schema_ray.engine.window import densify_gaps

    rng = np.random.default_rng(75)
    rows = []
    for k in list(range(12)) + [None]:
        days = np.sort(rng.choice(np.arange(50, 120),
                                  size=int(rng.integers(1, 30)),
                                  replace=False))
        for d in days:
            rows.append((k, int(d), int(rng.integers(1, 9))))
    # a hot key spanning every block
    hot = np.sort(rng.choice(np.arange(0, 4000),
                             size=900, replace=False))
    rows += [(99, int(d), 1) for d in hot]
    t = pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "day": pa.array([r[1] for r in rows], pa.int64()),
        "cnt": pa.array([r[2] for r in rows], pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(17)
    out = densify_gaps(ds, "k", "day", ["cnt"])
    got = sorted(((r["k"], r["day"], r["cnt"]) for r in out.take_all()),
                 key=lambda x: (x[0] is None, x[0] or 0, x[1]))
    byk = {}
    for r in rows:
        byk.setdefault(r[0], []).append(r)
    want = []
    for k, rs in byk.items():
        rs.sort(key=lambda r: r[1])
        obs = {r[1]: r[2] for r in rs}
        for d in range(rs[0][1], rs[-1][1] + 1):
            want.append((k, d, obs.get(d, 0)))
    want.sort(key=lambda x: (x[0] is None, x[0] or 0, x[1]))
    assert got == want
    # single-row input: nothing to fill
    one = _ray().data.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "day": pa.array([7], pa.int64()),
        "cnt": pa.array([3], pa.int64())}))
    assert densify_gaps(one, "k", "day", ["cnt"]).take_all() == [
        {"k": 1, "day": 7, "cnt": 3}]


def test_blocked_hamming_pairs_matches_bruteforce():
    from json_schema_ray.engine.dedup import blocked_hamming_pairs

    def lev(a, b):
        if len(a) < len(b):
            a, b = b, a
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    rng = np.random.default_rng(77)
    names = [f"Entity#{i:06d}" for i in range(300)]
    # inject a different-length name and a null
    names += ["Entity#99", None, "Entity#000300x"]
    ids = list(range(len(names)))
    t = pa.table({"id": pa.array(ids, pa.int64()),
                  "name": pa.array(names, pa.string())})
    ds = _ray().data.from_arrow(t).repartition(7)
    P = 11  # block on (len, first 11 chars) -> last 2 digits free
    out = blocked_hamming_pairs(ds, "id", "name", prefix_len=P,
                                max_hamming=1)
    got = sorted((r["id_a"], r["id_b"]) for r in out.take_all())
    want = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            if a is None or b is None or len(a) != len(b):
                continue
            if a[:P] != b[:P]:
                continue
            if lev(a, b) <= 1:
                want.append((min(ids[i], ids[j]),
                             max(ids[i], ids[j])))
    assert got == sorted(want) and len(got) > 0


def test_grouped_linear_interpolate_matches_bruteforce():
    from json_schema_ray.engine.rank import grouped_linear_interpolate

    rng = np.random.default_rng(78)
    n = 1200
    key = rng.integers(0, 9, size=n)
    ts = rng.integers(0, 10_000_000_000, size=n)  # us
    eid = rng.permutation(n)
    vals = [None if rng.random() < 0.4 else
            round(float(rng.normal(50, 20)), 3) for _ in range(n)]
    t = pa.table({"k": pa.array(key, pa.int64()),
                  "tsu": pa.array(ts, pa.int64()),
                  "eid": pa.array(eid, pa.int64()),
                  "v": pa.array(vals, pa.float64())})
    ds = _ray().data.from_arrow(t).repartition(9)
    out = grouped_linear_interpolate(ds, "k", "tsu", "v", "eid",
                                     scale=10_000, out="ie4")
    got = {r["eid"]: r["ie4"] for r in out.take_all()}

    def trunc(a, b):
        return (abs(a) // b) * (1 if a >= 0 else -1)

    rows = sorted(zip(key.tolist(), ts.tolist(), eid.tolist(), vals))
    byk = {}
    for k, tu, e, v in rows:
        byk.setdefault(k, []).append(
            (tu, e, None if v is None else
             int(np.floor(v * 1e4 + 0.5))))
    for k, rs in byk.items():
        for i, (tu, e, ve) in enumerate(rs):
            if ve is not None:
                assert got[e] == ve, e
                continue
            prevs = [(tu2, v2) for tu2, _, v2 in rs[:i + 1]
                     if v2 is not None]
            nexts = [(tu2, v2) for tu2, _, v2 in rs[i:]
                     if v2 is not None]
            if not prevs or not nexts:
                assert got[e] is None, e
                continue
            tp, vp = prevs[-1]
            tn, vn = nexts[0]
            dt, dn = (tu - tp) // 1000, (tn - tp) // 1000
            want = vp + (trunc((vn - vp) * dt, dn) if dn > 0 else 0)
            assert got[e] == want, (e, got[e], want)


def test_grouped_weighted_median_matches_bruteforce():
    from json_schema_ray.engine.rank import grouped_weighted_median

    rng = np.random.default_rng(79)
    n = 2000
    key = rng.integers(0, 6, size=n)
    key[:1200] = 0  # hot key spanning blocks
    vals = [None if rng.random() < 0.05 else int(v)
            for v in rng.integers(0, 500, size=n)]
    w = rng.integers(0, 9, size=n)  # includes zero weights
    t = pa.table({"k": pa.array(key, pa.int64()),
                  "v": pa.array(vals, pa.int64()),
                  "w": pa.array(w, pa.int64()),
                  "tb": pa.array(np.arange(n), pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(13)
    out = grouped_weighted_median(ds, "k", "v", "w", "tb",
                                  out="m").take_all()
    got = {r["k"]: r["m"] for r in out}
    byk = {}
    for k, v, wi in zip(key.tolist(), vals, w.tolist()):
        if v is not None:
            byk.setdefault(k, []).append((v, wi))
    for k, rs in byk.items():
        rs.sort()
        tot = sum(wi for _, wi in rs)
        cum = 0
        want = None
        for v, wi in rs:
            cum += wi
            if 2 * cum >= tot:
                want = v
                break
        assert got[k] == want, (k, got[k], want)


def test_grouped_agg_sorted_matches_arrow_groupby():
    import pyarrow.compute as pc

    from json_schema_ray.engine.relational import grouped_agg_sorted

    rng = np.random.default_rng(7)
    n = 20000
    keys = rng.integers(0, 400, n)
    # ONE hot key owning a quarter of the corpus, plus null keys
    keys[: n // 4] = 42
    vals = rng.integers(-1000, 1000, n)
    karr = pa.array(keys, pa.int64())
    karr = pc.if_else(pa.array(rng.random(n) < 0.01), pa.nulls(
        n, pa.int64()), karr)
    varr = pc.if_else(pa.array(rng.random(n) < 0.01), pa.nulls(
        n, pa.int64()), pa.array(vals, pa.int64()))
    t = pa.table({"k": karr, "v": varr})
    ds = _ray().data.from_arrow(t).repartition(13)

    ref = t.filter(pc.is_valid(t["v"]))
    g = pa.TableGroupBy(ref, "k").aggregate([("v", "sum"),
                                             ("v", "max")])
    want_sum = {}
    want_max = {}
    for r in g.to_pylist():
        want_sum[r["k"]] = r["v_sum"]
        want_max[r["k"]] = r["v_max"]

    for agg, want in (("sum", want_sum), ("max", want_max)):
        got = {}
        for b in grouped_agg_sorted(ds, "k", "v", agg=agg,
                                    out="t").iter_batches(
                batch_format="pyarrow"):
            for r in pa.Table.from_batches([b]).to_pylist() \
                    if isinstance(b, pa.RecordBatch) else b.to_pylist():
                assert r["k"] not in got, "duplicate group emitted"
                got[r["k"]] = r["t"]
        assert got == want, f"agg={agg}"

    # HAVING applies only after full aggregation: thresholds that a
    # per-block partial would miss must still pass
    thr = int(np.percentile(list(want_sum.values()), 90))
    got = {}
    for b in grouped_agg_sorted(ds, "k", "v", agg="sum",
                                having_min=thr, out="t") \
            .iter_batches(batch_format="pyarrow"):
        t2 = pa.Table.from_batches([b]) if isinstance(
            b, pa.RecordBatch) else b
        for r in t2.to_pylist():
            got[r["k"]] = r["t"]
    want_thr = {k: v for k, v in want_sum.items() if v >= thr}
    assert got == want_thr


def test_grouped_agg_sorted_string_keys_and_rejects_floats():
    import pyarrow.compute as pc  # noqa: F401

    from json_schema_ray.engine.relational import grouped_agg_sorted

    t = pa.table({"k": pa.array(["a", "b", None, "a", "b", "a"]),
                  "v": pa.array([1, 2, 3, 4, 5, None], pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(3)
    got = {r["k"]: r["v_min"] for b in
           grouped_agg_sorted(ds, "k", "v", agg="min").iter_batches(
               batch_format="pyarrow")
           for r in (pa.Table.from_batches([b]) if isinstance(
               b, pa.RecordBatch) else b).to_pylist()}
    assert got == {"a": 1, "b": 2, None: 3}

    fds = _ray().data.from_arrow(
        pa.table({"k": pa.array(["a"]), "v": pa.array([1.5])}))
    with pytest.raises(Exception):
        grouped_agg_sorted(fds, "k", "v").materialize()


def test_grouped_weighted_quantiles_matches_bruteforce():
    from json_schema_ray.engine.rank import grouped_weighted_quantiles

    rng = np.random.default_rng(83)
    n = 2000
    key = rng.integers(0, 6, size=n)
    key[:1200] = 0  # hot key spanning blocks
    vals = [None if rng.random() < 0.05 else int(v)
            for v in rng.integers(0, 500, size=n)]
    w = rng.integers(0, 9, size=n)  # includes zero weights
    t = pa.table({"k": pa.array(key, pa.int64()),
                  "v": pa.array(vals, pa.int64()),
                  "w": pa.array(w, pa.int64()),
                  "tb": pa.array(np.arange(n), pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(13)
    fracs = [(1, 4), (1, 2), (3, 4), (1, 1)]
    outs = ["q25", "q50", "q75", "q100"]
    out = grouped_weighted_quantiles(ds, "k", "v", "w", "tb",
                                     fracs, outs).take_all()
    got = {r["k"]: [r[o] for o in outs] for r in out}
    byk = {}
    for k, v, wi in zip(key.tolist(), vals, w.tolist()):
        if v is not None:
            byk.setdefault(k, []).append((v, wi))
    for k, rs in byk.items():
        rs.sort()
        tot = sum(wi for _, wi in rs)
        for fi, (num, den) in enumerate(fracs):
            cum = 0
            want = None
            for v, wi in rs:
                cum += wi
                if den * cum >= num * tot:
                    want = v
                    break
            assert got[k][fi] == want, (k, fracs[fi], got[k][fi], want)
    # quantiles are monotone per key
    for k, qs in got.items():
        present = [q for q in qs if q is not None]
        assert present == sorted(present), (k, qs)

    with pytest.raises(ValueError):
        grouped_weighted_quantiles(ds, "k", "v", "w", "tb",
                                   [(3, 2)], ["bad"])
    with pytest.raises(ValueError):
        grouped_weighted_quantiles(ds, "k", "v", "w", "tb", [], [])


def test_embedding_quantization_matches_duckdb():
    """int8-style quantization audit vs the SQL twin: NULL vectors
    drop, NULL elements drop from their dimension only, a CONSTANT
    dim codes to 0 with 0 error, multi-block range merges stay
    exact."""
    import duckdb

    from json_schema_ray.engine.similarity import \
        embedding_quantization_stats

    rng = np.random.default_rng(23)
    n, d = 700, 9
    m = rng.normal(0, 0.7, (n, d))
    m[:, 4] = 0.125                    # constant dim
    rows = []
    for i in range(n):
        if i % 89 == 0:
            rows.append(None)          # NULL vector
            continue
        v = m[i].tolist()
        if i % 37 == 0:
            v[i % d] = None            # NULL element
        rows.append(v)
    t = pa.table({"embedding": pa.array(
        rows, pa.list_(pa.float32()))})
    want = sorted(duckdb.sql(
        """WITH e AS (
               SELECT CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5)
                           AS BIGINT) AS xi, i
               FROM (SELECT unnest(embedding) AS x,
                            generate_subscripts(embedding, 1) AS i
                     FROM t)
               WHERE x IS NOT NULL),
            m AS (SELECT i, min(xi) AS mn, max(xi) AS mx,
                         max(xi) - min(xi) AS rng
                  FROM e GROUP BY i),
            q AS (SELECT e.i, mn, mx, rng, xi,
                         CASE WHEN rng > 0
                              THEN ((xi - mn) * 508 + rng)
                                   // (2 * rng)
                              ELSE 0 END AS code
                  FROM e JOIN m ON e.i = m.i),
            r AS (SELECT i, mn, mx, code,
                         abs(xi - (mn + (code * rng * 2 + 254)
                                   // 508)) AS err
                  FROM q)
            SELECT CAST(i AS BIGINT), CAST(mn AS BIGINT),
                   CAST(mx AS BIGINT), CAST(sum(code) AS BIGINT),
                   CAST(sum(err) AS BIGINT)
            FROM r GROUP BY i, mn, mx""").fetchall())
    ds = _ray().data.from_arrow(t).repartition(7)
    out = embedding_quantization_stats(ds)
    got = sorted(zip(out["dim"].to_pylist(), out["mn_e6"].to_pylist(),
                     out["mx_e6"].to_pylist(), out["q_sum"].to_pylist(),
                     out["abs_err_e6"].to_pylist()))
    assert [tuple(r) for r in want] == got
    # codes of a 254-level quantizer stay in [0, 254]
    row4 = [g for g in got if g[0] == 5][0]
    assert row4[1] == row4[2] and row4[4] == 0  # constant dim


def test_embedding_quantization_empty():
    from json_schema_ray.engine.similarity import \
        embedding_quantization_stats

    e = pa.table({"embedding": pa.array([], pa.list_(pa.float32()))})
    out = embedding_quantization_stats(_ray().data.from_arrow(e))
    assert out.num_rows == 0


def _ref_levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_ed1_verify_matches_dp():
    import random

    from json_schema_ray.engine.text import _ed1_verify

    rng = random.Random(7)
    alpha = "abcï"
    pairs = [("naïve", "naive"), ("abc", "bac"), ("cold", "old"),
             ("abc", "abc"), ("ab", "abcd")]
    for _ in range(4000):
        a = "".join(rng.choice(alpha)
                    for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice(alpha)
                    for _ in range(rng.randint(1, 6)))
        pairs.append((a, b))
    av = np.array([p[0] for p in pairs], dtype=object)
    bv = np.array([p[1] for p in pairs], dtype=object)
    got = _ed1_verify(av, bv)
    exp = np.array([_ref_levenshtein(a, b) == 1 for a, b in pairs])
    assert (got == exp).all()


def test_vocab_edit1_pairs_planted_full_recall():
    import random

    from json_schema_ray.engine.text import vocab_edit1_pairs

    rng = random.Random(13)
    # collision-prone vocabulary: random 4-8 char words over a tiny
    # alphabet, plus planted substitution / insert / delete typos,
    # an ed-2 transposition decoy that SHARES a deletion bucket
    # ("abcd"/"bacd" both contain variant "bcd"/"acd"...), and a
    # unicode substitution pair
    words = {"".join(rng.choice("abcdef")
                     for _ in range(rng.randint(4, 8)))
             for _ in range(260)}
    words |= {"tuning", "tunings", "tunning", "tunerg",
              "abcd", "bacd", "naïve", "naive"}
    words = sorted(words)
    docs = [{"doc_id": i, "text": " ".join(
        rng.sample(words, 12))} for i in range(240)]
    ds = _ray().data.from_items(docs).repartition(8)
    out = vocab_edit1_pairs(ds, min_len=3, min_count=1,
                            top_k=100_000, blocks=6)
    got = set(zip(out["term_a"].to_pylist(),
                  out["term_b"].to_pylist()))
    seen = set()
    for d in docs:
        seen.update(d["text"].split())
    vocab = sorted(t for t in seen if len(t) >= 3)
    exp = {(a, b) for i, a in enumerate(vocab)
           for b in vocab[i + 1:]
           if abs(len(a) - len(b)) <= 1
           and _ref_levenshtein(a, b) == 1}
    assert got == exp
    assert ("abcd", "bacd") not in got  # decoy rejected by verify
    assert len(exp) >= 5  # the corpus really contains ed-1 pairs
    # tf columns carry the true corpus frequencies
    from collections import Counter

    tf = Counter()
    for d in docs:
        tf.update(d["text"].split())
    for ta, tb, fa, fb in zip(out["term_a"].to_pylist(),
                              out["term_b"].to_pylist(),
                              out["tf_a"].to_pylist(),
                              out["tf_b"].to_pylist()):
        assert (fa, fb) == (tf[ta], tf[tb])


def _ref_span_corruption(doc_id: int, text: str, start_mod=20,
                         max_span=3, seed=0):
    """Independent per-doc reference for span_corruption."""
    from json_schema_ray.state.sketches import hash_ints

    toks = [t for t in (text or "").split() if t]
    if not toks:
        return None
    n = len(toks)
    hs = hash_ints(np.array(
        [doc_id * (1 << 20) + j + seed for j in range(n)], np.int64))
    # NB: int(h) BEFORE %: numpy uint64 % python-int degrades to
    # float64 and mangles the low bits
    start = [int(h) % start_mod == 0 for h in hs]
    slen = [1 + (int(h) >> 8) % max_span for h in hs]
    masked = [any(start[s] and s + slen[s] > j
                  for s in range(max(0, j - max_span + 1), j + 1))
              for j in range(n)]
    runs, inputs, targets, k = [], [], [], -1
    for j in range(n):
        if masked[j] and (j == 0 or not masked[j - 1]):
            k += 1
            inputs.append(f"<extra_id_{k}>")
            targets.append(f"<extra_id_{k}> {toks[j]}")
        elif masked[j]:
            targets.append(toks[j])
        else:
            inputs.append(toks[j])
    return {"doc_id": doc_id, "n_tokens": n,
            "n_masked": sum(masked), "n_spans": k + 1,
            "inputs": " ".join(inputs),
            "targets": " ".join(targets) if k >= 0 else None}


@pytest.mark.parametrize("start_mod", [20, 1, 2])
def test_span_corruption_matches_reference(start_mod):
    import random

    from json_schema_ray.engine.text import span_corruption

    rng = random.Random(5)
    rows = []
    for i in range(120):
        n = rng.randint(0, 40)
        words = " ".join(rng.choice(["aa", "bb", "cc", "dd", "ee"])
                         for _ in range(n))
        if i % 13 == 0:
            words = "  " + words + "   "  # ragged whitespace
        rows.append({"doc_id": i, "text": words})
    rows.append({"doc_id": 900, "text": None})
    rows.append({"doc_id": 901, "text": ""})
    rows.append({"doc_id": 902, "text": "solo"})
    ds = _ray().data.from_items(rows).repartition(5)
    out = span_corruption(ds, start_mod=start_mod)
    got = sorted((r for b in
                  out.iter_batches(batch_format="pyarrow")
                  for r in (b if isinstance(b, pa.Table) else
                            pa.Table.from_batches([b])).to_pylist()),
                 key=lambda r: r["doc_id"])
    exp = [r for r in
           (_ref_span_corruption(d["doc_id"], d["text"],
                                 start_mod=start_mod) for d in rows)
           if r is not None]
    exp.sort(key=lambda r: r["doc_id"])
    assert got == exp
    if start_mod == 1:
        # every token masked: inputs collapse to one sentinel per doc
        for r in got:
            assert r["n_masked"] == r["n_tokens"]
            assert r["inputs"] == "<extra_id_0>"


def test_interval_coalesce_matches_bruteforce():
    import random

    from json_schema_ray.engine.window import interval_coalesce_table

    rng = random.Random(21)
    rows = []
    for _ in range(600):
        s = rng.randint(0, 2000)
        rows.append({"ws": s, "we": s + rng.randint(0, 60)})
    rows.append({"ws": None, "we": 5})      # null start drops
    rows.append({"ws": 5000, "we": None})   # null end drops
    rows.append({"ws": 100, "we": 100})     # degenerate point
    rows.append({"ws": 2100, "we": 2200})
    rows.append({"ws": 2200, "we": 2300})   # touching -> merged
    ds = _ray().data.from_items(rows).repartition(7)
    t = interval_coalesce_table(ds, "ws", "we")
    got = list(zip(t["w_start"].to_pylist(), t["w_end"].to_pylist()))
    ivs = sorted((r["ws"], r["we"]) for r in rows
                 if r["ws"] is not None and r["we"] is not None)
    exp = []
    for s, e in ivs:
        if exp and s <= exp[-1][1]:
            exp[-1][1] = max(exp[-1][1], e)
        else:
            exp.append([s, e])
    assert got == [tuple(x) for x in exp]
    # disjoint, sorted, non-touching
    for (s1, e1), (s2, e2) in zip(got, got[1:]):
        assert s2 > e1 and s1 <= e1 and s2 <= e2


def test_interval_overlap_count_matches_bruteforce():
    import random

    from json_schema_ray.engine.window import (interval_coalesce_table,
                                               interval_overlap_count)

    rng = random.Random(22)
    wrows = [{"ws": s, "we": s + rng.randint(5, 40)}
             for s in rng.sample(range(0, 5000), 60)]
    win = interval_coalesce_table(
        _ray().data.from_items(wrows).repartition(3), "ws", "we")
    probes = []
    for i in range(400):
        s = rng.randint(-50, 5100)
        probes.append({"pid": i, "s": s, "e": s + rng.randint(0, 80)})
    probes.append({"pid": 900, "s": None, "e": 10})
    probes.append({"pid": 901, "s": 10, "e": None})
    ds = _ray().data.from_items(probes).repartition(6)
    out = interval_overlap_count(ds, win, "s", "e")
    got = {r["pid"]: (r["n_windows"], r["first_window_start"])
           for b in out.iter_batches(batch_format="pyarrow")
           for r in (b if isinstance(b, pa.Table) else
                     pa.Table.from_batches([b])).to_pylist()}
    wl = list(zip(win["w_start"].to_pylist(),
                  win["w_end"].to_pylist()))
    for p in probes:
        if p["s"] is None or p["e"] is None:
            assert got[p["pid"]] == (0, None)
            continue
        hits = [ws for ws, we in wl
                if ws <= p["e"] and we >= p["s"]]
        assert got[p["pid"]] == (len(hits),
                                 min(hits) if hits else None), p
    # malformed (non-disjoint) windows are rejected loudly
    bad = pa.table({"w_start": pa.array([0, 5], pa.int64()),
                    "w_end": pa.array([10, 20], pa.int64())})
    with pytest.raises(ValueError):
        interval_overlap_count(ds, bad, "s", "e")


def test_grouped_distinct_sum_sorted_matches_duckdb():
    import duckdb
    import pyarrow.compute as pc  # noqa: F401

    from json_schema_ray.engine.relational import (
        grouped_distinct_sum_sorted)

    rng = np.random.default_rng(11)
    n = 30000
    keys = rng.integers(0, 500, n)
    # ONE hot key owning a third of the corpus (spans many blocks)
    keys[: n // 3] = 77
    subs = rng.integers(0, 40, n)
    vals = rng.integers(1, 100, n)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "s": pa.array(subs, pa.int64()),
                  "v": pa.array(vals, pa.int64())})
    ds = _ray().data.from_arrow(t).repartition(17)

    want = {r["k"]: (r["nd"], r["ns"]) for r in duckdb.sql(
        "SELECT k, count(DISTINCT s) AS nd, sum(v)::BIGINT AS ns "
        "FROM t GROUP BY k").arrow().to_pylist()}

    def collect(res):
        got = {}
        for b in res.iter_batches(batch_format="pyarrow"):
            tb = pa.Table.from_batches([b]) if isinstance(
                b, pa.RecordBatch) else b
            for r in tb.to_pylist():
                assert r["k"] not in got, "duplicate group emitted"
                got[r["k"]] = (r["n_distinct"], r["n_rows"])
        return got

    got = collect(grouped_distinct_sum_sorted(ds, "k", "s", value="v"))
    assert got == want

    # COUNT(*) flavor + HAVING on the DISTINCT count applied only
    # after full aggregation (block partials of the hot key would
    # individually miss a high threshold)
    want_cnt = {r["k"]: (r["nd"], r["ns"]) for r in duckdb.sql(
        "SELECT k, count(DISTINCT s) AS nd, count(*)::BIGINT AS ns "
        "FROM t GROUP BY k HAVING count(DISTINCT s) >= 35").arrow()
        .to_pylist()}
    got_cnt = collect(grouped_distinct_sum_sorted(
        ds, "k", "s", having_min_distinct=35))
    assert got_cnt == want_cnt

    # single giant key in ONE sub (degenerate straddle chain)
    t1 = pa.table({"k": pa.array(np.zeros(5000, np.int64)),
                   "s": pa.array(np.zeros(5000, np.int64))})
    got1 = collect(grouped_distinct_sum_sorted(
        _ray().data.from_arrow(t1).repartition(9), "k", "s"))
    assert got1 == {0: (1, 5000)}

    # nulls and float keys are rejected loudly
    bad = _ray().data.from_arrow(pa.table({
        "k": pa.array([1, None], pa.int64()),
        "s": pa.array([1, 2], pa.int64())}))
    with pytest.raises(Exception):
        bad2 = grouped_distinct_sum_sorted(bad, "k", "s")
        for _ in bad2.iter_batches(batch_format="pyarrow"):
            pass


def test_grouped_multi_agg_sorted_matches_duckdb():
    import duckdb
    import pyarrow.compute as pc

    from json_schema_ray.engine.relational import grouped_multi_agg_sorted

    rng = np.random.default_rng(23)
    n = 25000
    keys = rng.integers(0, 300, n)
    keys[: n // 3] = 9  # hot key spanning many blocks
    a = rng.integers(-50, 50, n)
    b = rng.integers(0, 1000, n)
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "a": pa.array(a, pa.int64()),
                  "b": pa.array(b, pa.int64())})
    # sprinkle nulls into one value column; key 299 gets ONLY nulls
    amask = rng.random(n) < 0.05
    amask |= keys == 299
    t = t.set_column(1, "a", pc.if_else(pa.array(amask),
                                        pa.nulls(n, pa.int64()),
                                        t["a"]))
    ds = _ray().data.from_arrow(t).repartition(19)

    want = {r["k"]: (r["sa"], r["mna"], r["mxb"]) for r in duckdb.sql(
        "SELECT k, sum(a)::BIGINT AS sa, min(a)::BIGINT AS mna, "
        "max(b)::BIGINT AS mxb FROM t GROUP BY k").arrow().to_pylist()}

    got = {}
    res = grouped_multi_agg_sorted(
        ds, "k", [("a", "sum", "sa"), ("a", "min", "mna"),
                  ("b", "max", "mxb")])
    for bt in res.iter_batches(batch_format="pyarrow"):
        tb = pa.Table.from_batches([bt]) if isinstance(
            bt, pa.RecordBatch) else bt
        for r in tb.to_pylist():
            assert r["k"] not in got, "duplicate group emitted"
            got[r["k"]] = (r["sa"], r["mna"], r["mxb"])
    assert got == want
    # the all-null-value group must surface as NULL, not identity
    assert got[299][0] is None and got[299][1] is None

    # null keys are rejected loudly
    bad = _ray().data.from_arrow(pa.table({
        "k": pa.array([1, None], pa.int64()),
        "v": pa.array([1, 2], pa.int64())}))
    with pytest.raises(Exception):
        r = grouped_multi_agg_sorted(bad, "k", [("v", "sum", "s")])
        for _ in r.iter_batches(batch_format="pyarrow"):
            pass


def test_trailing_concat_window_spans_many_blocks():
    """k LARGER than the block size: every row's frame reaches 3+
    blocks back. Blocks smaller than k carry ALL their rows (m =
    min(k, n)), so the carry sequence is gap-free and the stitch
    reconstructs deep windows exactly. One hot key plus a second key
    to exercise the per-key carry split; empty input sanity too."""
    import duckdb

    from json_schema_ray.engine.rank import trailing_concat

    n = 400
    u = np.where(np.arange(n) % 10 == 0, 2, 1)
    t = pa.table({
        "u": pa.array(u, pa.int64()),
        "ts": pa.array(np.arange(n) * 1_000_000, pa.timestamp("us")),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(["t%d" % i for i in range(n)], pa.string())})
    k = 50
    want = {r[0]: (r[1], r[2]) for r in duckdb.sql(
        f"""SELECT rid, string_agg(v, '|') OVER w AS ctx,
                  CAST(count(*) OVER w AS BIGINT) AS n_ctx
            FROM t WINDOW w AS (PARTITION BY u ORDER BY ts, rid
                   ROWS BETWEEN {k} PRECEDING
                   AND 1 PRECEDING)""").fetchall()}
    ds = _ray().data.from_arrow(t).repartition(20)
    out = trailing_concat(ds, "u", "ts", "v", "rid", k, sep="|")
    got = {r["rid"]: (r["ctx"], r["n_ctx"]) for r in out.take_all()}
    assert got == want
    # empty input keeps the output schema
    empty = _ray().data.from_arrow(t.slice(0, 0))
    res = trailing_concat(empty, "u", "ts", "v", "rid", 3)
    assert res.count() == 0


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_trailing_concat_randomized_differential(seed):
    """trailing_concat vs DuckDB windowed string_agg with a ROWS
    (k PRECEDING .. 1 PRECEDING) frame: random key skew (incl. one
    hot key), NULL values, NULL keys, NULL timestamps, random block
    counts. NULL values ride as '' (callers coalesce); empty frames
    are NULL in both engines."""
    import duckdb

    from json_schema_ray.engine.rank import trailing_concat

    rng = np.random.default_rng(seed)
    n = int(rng.integers(400, 2500))
    keys = (rng.zipf(1.4, n) % 13).astype(object)
    keys[rng.random(n) < 0.05] = None
    ts = (rng.integers(0, 3 * 86400, n) * 1_000_000).astype(object)
    ts[rng.random(n) < 0.03] = None
    vals = np.array(["w%d" % v for v in rng.integers(0, 50, n)],
                    dtype=object)
    vals[rng.random(n) < 0.1] = None
    t = pa.table({
        "u": pa.array(keys.tolist(), pa.int64()),
        "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(vals.tolist(), pa.string())})
    k = int(rng.integers(1, 6))
    want = {r[0]: (r[1], r[2]) for r in duckdb.sql(
        f"""SELECT rid,
                  string_agg(coalesce(v, ''), chr(10)) OVER w AS ctx,
                  CAST(count(*) OVER w AS BIGINT) AS n_ctx
            FROM t
            WINDOW w AS (PARTITION BY u ORDER BY ts, rid
                         ROWS BETWEEN {k} PRECEDING
                         AND 1 PRECEDING)""").fetchall()}
    blocks = int(rng.integers(2, 11))
    ds = _ray().data.from_arrow(t).repartition(blocks)
    out = trailing_concat(ds, "u", "ts", "v", "rid", k, sep="\n")
    got = {r["rid"]: (r["ctx"], r["n_ctx"]) for r in out.take_all()}
    assert len(got) == n
    assert got == want


def test_trailing_concat_ns_epoch_anchors_exact():
    """Carry anchors must be EXACT: nanosecond-epoch timestamps sit
    above 2^53, where float64 spacing is ~256ns, so 1ns-apart rows
    collapse to the same float and a float-encoded anchor stitches
    the wrong out-of-block context. rid is deliberately DEcorrelated
    from ts so any collapse actually reorders the window."""
    import duckdb

    from json_schema_ray.engine.rank import trailing_concat

    n = 300
    base = 1_600_000_000_000_000_000  # ~2020 in ns, >> 2^53
    rng = np.random.default_rng(7)
    perm = rng.permutation(n)
    t = pa.table({
        "u": pa.array(np.zeros(n, np.int64)),
        "ts": pa.array(base + perm, pa.timestamp("ns")),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(["t%d" % i for i in range(n)], pa.string())})
    k = 4
    want = {r[0]: (r[1], r[2]) for r in duckdb.sql(
        f"""SELECT rid, string_agg(v, '|') OVER w AS ctx,
                  CAST(count(*) OVER w AS BIGINT) AS n_ctx
            FROM t WINDOW w AS (PARTITION BY u ORDER BY ts, rid
                   ROWS BETWEEN {k} PRECEDING
                   AND 1 PRECEDING)""").fetchall()}
    ds = _ray().data.from_arrow(t).repartition(12)
    out = trailing_concat(ds, "u", "ts", "v", "rid", k, sep="|")
    got = {r["rid"]: (r["ctx"], r["n_ctx"]) for r in out.take_all()}
    assert got == want


def test_trailing_concat_sliced_build_matches_single():
    """The byte-budgeted multi-slice window build (chunked output
    column) is value-identical to the single-gather path: a tiny
    _build_budget forces a slice boundary every few rows, including
    rows whose own window exceeds the budget (their own slice)."""
    import duckdb

    from json_schema_ray.engine.rank import trailing_concat

    n = 240
    rng = np.random.default_rng(3)
    texts = ["x" * int(rng.integers(1, 40)) + str(i) for i in range(n)]
    t = pa.table({
        "u": pa.array((np.arange(n) % 3).astype(np.int64)),
        "ts": pa.array(np.arange(n) * 1000, pa.timestamp("us")),
        "rid": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(texts, pa.string())})
    k = 6
    want = {r[0]: (r[1], r[2]) for r in duckdb.sql(
        f"""SELECT rid, string_agg(v, '#') OVER w AS ctx,
                  CAST(count(*) OVER w AS BIGINT) AS n_ctx
            FROM t WINDOW w AS (PARTITION BY u ORDER BY ts, rid
                   ROWS BETWEEN {k} PRECEDING
                   AND 1 PRECEDING)""").fetchall()}
    ds = _ray().data.from_arrow(t).repartition(4)
    out = trailing_concat(ds, "u", "ts", "v", "rid", k, sep="#",
                          _build_budget=64)
    got = {r["rid"]: (r["ctx"], r["n_ctx"]) for r in out.take_all()}
    assert got == want


def test_grouped_top_k_tiebreak_direction():
    """tiebreak_descending resolves TIED order values the way the
    caller's SQL ORDER BY does — ascending by default, descending on
    request — instead of silently always-ascending."""
    import duckdb

    from json_schema_ray.engine.rank import grouped_top_k

    t = pa.table({
        "g": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "s": pa.array([5, 5, 3, 9, 9], pa.int64()),
        "tb": pa.array([10, 20, 30, 1, 2], pa.int64()),
        "v": pa.array(["a", "b", "c", "d", "e"], pa.string())})
    for desc_tb in (False, True):
        direction = "DESC" if desc_tb else "ASC"
        want = sorted(r[0] for r in duckdb.sql(
            f"""SELECT v FROM (
                  SELECT v, row_number() OVER (
                      PARTITION BY g ORDER BY s DESC, tb {direction})
                      AS rn FROM t) WHERE rn = 1""").fetchall())
        out = grouped_top_k(
            _ray().data.from_arrow(t).repartition(2),
            ["g"], "s", 1, descending=True, tiebreak="tb",
            tiebreak_descending=desc_tb)
        got = sorted(r["v"] for r in out.take_all())
        assert got == want, direction


def test_part_primary_supplier_many_parts_distributed(tmp_path):
    """Dominant-supplier screen at HIGH part cardinality: the
    pair-grained rollup, the part-keyed sort and the per-block
    combinable partials (sum/count/argmax-with-tiebreak) all stay
    distributed — driver merge state is O(parts + blocks), never the
    pair table — and tied max quantities resolve to the LOWEST
    suppkey exactly as the oracle's ORDER BY does. Planted ties and
    single-supplier parts included."""
    import duckdb

    import __ray_entry__ as entry

    rng = np.random.default_rng(17)
    n = 60_000
    pk = rng.integers(1, 8_000, n)          # ~8k parts
    sk = rng.integers(1, 40, n)             # dense supplier reuse -> ties
    qty = rng.integers(1, 8, n).astype(np.float64)
    t = pa.table({
        "l_partkey": pa.array(pk, pa.int64()),
        "l_suppkey": pa.array(sk, pa.int64()),
        "l_quantity": pa.array(qty, pa.float64())})
    import pyarrow.parquet as pq
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = entry.q_part_primary_supplier(str(tmp_path))
    want = duckdb.sql("""
        WITH pairs AS (
            SELECT l_partkey, l_suppkey,
                   CAST(sum(CAST(floor(l_quantity*100 + 0.5)
                        AS BIGINT)) AS BIGINT) AS qty100
            FROM t GROUP BY 1, 2
        ), tot AS (
            SELECT l_partkey, sum(qty100) AS t100,
                   count(*) AS n_suppliers
            FROM pairs GROUP BY 1
        ), r AS (
            SELECT p.*, t.t100, t.n_suppliers,
                   row_number() OVER (PARTITION BY p.l_partkey
                       ORDER BY p.qty100 DESC, p.l_suppkey) AS rn
            FROM pairs p JOIN tot t USING (l_partkey)
        )
        SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
               CAST(qty100 AS BIGINT) AS qty100_supp,
               CAST(t100 AS BIGINT) AS qty100_part,
               CAST(n_suppliers AS BIGINT) AS n_suppliers,
               CAST(qty100 * 1000000 // t100 AS BIGINT) AS share_x1m
        FROM r WHERE rn = 1 AND n_suppliers >= 2
        ORDER BY p_partkey""").arrow()
    assert got.num_rows == want.num_rows
    for c in want.column_names:
        assert got[c].to_pylist() == want[c].to_pylist(), c


def test_exact_length_histogram_and_ks():
    """length_histogram is exact (nulls dropped, codepoint lengths)
    and ks_exact_e6 equals the brute-force two-sample KS in integer
    e6 — including the identical-distribution zero and a planted
    shift; profile JSON roundtrip preserves the exact histograms."""
    from json_schema_ray.engine.drift import (ReferenceProfile,
                                              ks_exact_e6,
                                              length_histogram)

    texts = ["a", "bb", "bb", None, "cccc", "ééé"]  # é: 3 codepoints
    t = pa.table({"text": pa.array(texts, pa.string())})
    h = length_histogram(_ray().data.from_arrow(t).repartition(2),
                         "text")
    assert h == {1: 1, 2: 2, 3: 1, 4: 1}

    assert ks_exact_e6(h, h) == 0
    assert ks_exact_e6({}, h) == 0
    # planted shift: {1:1} vs {2:1} -> KS = 1.0
    assert ks_exact_e6({1: 1}, {2: 1}) == 1_000_000
    # brute force on a random pair
    rng = np.random.default_rng(5)
    h1 = {int(v): int(c) for v, c in
          zip(rng.integers(0, 30, 12), rng.integers(1, 9, 12))}
    h2 = {int(v): int(c) for v, c in
          zip(rng.integers(0, 30, 12), rng.integers(1, 9, 12))}
    n1, n2 = sum(h1.values()), sum(h2.values())
    vals = sorted(set(h1) | set(h2))
    c1 = np.cumsum([h1.get(v, 0) for v in vals])
    c2 = np.cumsum([h2.get(v, 0) for v in vals])
    want = int(np.max(np.abs(c1 * n2 - c2 * n1))) * 1_000_000 \
        // (n1 * n2)
    assert ks_exact_e6(h1, h2) == want

    prof = ReferenceProfile(length_hists={"text": h})
    rt = ReferenceProfile.from_json(prof.to_json())
    assert rt.length_hists == {"text": h}
    rep = {r["metric"]: r["value"] for r in
           rt.compare(_ray().data.from_arrow(t)).to_pylist()}
    assert rep["ks"] == 0.0


def test_grouped_multi_agg_sorted_distinct_sub():
    """distinct_sub folds COUNT(DISTINCT sub) into the same sorted
    scan as the measures: cross-block pair straddles never double
    count, the ignore sentinel aggregates its measures but never its
    sub, and results match DuckDB across block counts."""
    import duckdb

    from json_schema_ray.engine.relational import (
        grouped_multi_agg_sorted)

    rng = np.random.default_rng(23)
    n = 4000
    SENT = -(1 << 63)
    k = rng.zipf(1.3, n) % 37          # hot keys
    s = rng.integers(0, 9, n)
    s[rng.random(n) < 0.2] = SENT      # "null" subs
    v = rng.integers(-50, 50, n)
    t = pa.table({
        "k": pa.array(k.astype(np.int64)),
        "s": pa.array(s.astype(np.int64)),
        "v": pa.array(v.astype(np.int64))})
    want = {r[0]: (r[1], r[2], r[3], r[4]) for r in duckdb.sql(f"""
        SELECT k, CAST(sum(v) AS BIGINT),
               CAST(min(v) AS BIGINT), CAST(max(v) AS BIGINT),
               CAST(count(DISTINCT CASE WHEN s <> {SENT} THEN s END)
                    AS BIGINT)
        FROM t GROUP BY k""").fetchall()}
    for blocks in (1, 3, 8):
        out = grouped_multi_agg_sorted(
            _ray().data.from_arrow(t).repartition(blocks), "k",
            [("v", "sum", "sv"), ("v", "min", "mn"),
             ("v", "max", "mx")],
            distinct_sub="s", distinct_ignore=SENT,
            out_distinct="nd")
        got = {r["k"]: (r["sv"], r["mn"], r["mx"], r["nd"])
               for r in out.take_all()}
        assert got == want, blocks
