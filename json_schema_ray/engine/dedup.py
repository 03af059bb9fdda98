"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard verification, embedding-cosine near-dup.

Scale shapes:

- exact: hash-partition shuffle on the content key (groupby), keep
  the first (min id) per group — the only stage that must co-locate
  equal keys.
- MinHash+LSH: per-batch signature computation is batched numpy (all
  shingles of a batch hashed in ONE vectorized call, minhash via a
  chunked outer product + segment-min), banding turns each doc into
  ``n_bands`` (bucket, doc) rows, and EVERYTHING downstream stays
  distributed: ONE sort on the bucket key co-locates members, a
  vectorized pass over sorted batches expands interior bucket
  segments into pairs (exact by default; ``max_bucket`` is an
  opt-in, loudly-warned cap), boundary buckets stitch through one
  worker-side pass, and verification is a vectorized tagged-merge
  intersection over broadcast per-doc shingle-hash sets (each
  candidate doc shingle-hashed ONCE, distributed). Driver-held
  state is limited to two sparse objects — the edge-bucket member
  rows and the candidate shingle index, both O(candidates), the
  same envelope as the result. (Ray's experimental
  ``Dataset.join`` is deliberately NOT used: it crashes when a
  hash partition receives zero left-side rows.)
- empty/too-short documents produce zero shingles; they are DROPPED
  from banding (they cannot be near-duplicates of anything by
  Jaccard — and keeping them would collide every empty doc into one
  degenerate bucket per band, a quadratic blow-up at corpus scale).
- SimHash: 64-bit signature per doc from token hashes; candidate
  pairs via banding on signature quarters, same distributed
  hot-bucket pipeline as MinHash.
- embedding cosine: see ``similarity.py`` — near-dup reuses its
  bucketing.
"""

from __future__ import annotations

import json
import logging
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.sketches import hash_ints

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_groups(ds, content_keys: List[str], id_column: str):
    """One row per distinct content key: the kept (minimum) id and the
    duplicate count. Pre-aggregates per block before the shuffle.

    String keys shuffle via the invertible null-safe encoding (Ray's
    sort-based shuffle cannot order None against str)."""
    from ray.data.aggregate import Min, Sum

    from .relational import null_safe_grouped_aggregate

    def pre(batch: pa.Table) -> pa.Table:
        from .relational import safe_groupby_aggregate
        t = safe_groupby_aggregate(
            batch.select(content_keys + [id_column]), content_keys,
            [(id_column, "min"), ([], "count_all")])
        names = {f"{id_column}_min": "keep_id", "count_all": "n_copies"}
        return t.rename_columns([names.get(c, c) for c in t.column_names])

    partial = ds.map_batches(pre, batch_format="pyarrow",
                             zero_copy_batch=True)
    return null_safe_grouped_aggregate(
        partial, content_keys,
        [Min("keep_id", alias_name="keep_id"),
         Sum("n_copies", alias_name="n_copies")],
        ["keep_id", "n_copies"])


def exact_dedup(ds, content_keys: List[str], id_column: str):
    """The deduplicated survivors (full rows whose id is the keeper).

    The keeper-id set is collected ONCE as an Arrow array (already
    deduplicated by the groupby — one id per distinct content key)
    and broadcast through the object store; each task probes it with
    ``pc.is_in`` with no per-batch conversion."""
    import ray

    groups = exact_dedup_groups(ds, content_keys, id_column)
    keep_chunks = []
    keep_type = None  # id-typed even when empty: pc.is_in on a
    # string id column raises against an int64-typed empty value set
    for batch in groups.iter_batches(batch_format="pyarrow"):
        keep_type = batch.schema.field("keep_id").type
        if batch.num_rows:
            keep_chunks.append(batch["keep_id"])
    keep_arr = (pa.concat_arrays([c.combine_chunks() if
                                  isinstance(c, pa.ChunkedArray) else c
                                  for c in keep_chunks])
                if keep_chunks
                else pa.array([], keep_type or pa.int64()))
    handle = ray.put(keep_arr)

    def keep(batch: pa.Table) -> pa.Table:
        ids = ray.get(handle)
        mask = pc.is_in(batch[id_column], value_set=ids)
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# shingling + minhash
# ---------------------------------------------------------------------------

def shingle_set(text: str, k: int = 5) -> np.ndarray:
    """Word k-gram shingle hashes (uint64). Hashed with DuckDB's
    ``hash()`` (see :func:`_duck_hash_strings`) so every pipeline
    built on shingle hashes — MinHash signatures, Jaccard verify,
    decontamination containment — is recomputable in pure SQL by the
    correctness oracles."""
    words = text.split()
    if len(words) < k:
        shingles = [" ".join(words)] if words else []
    else:
        shingles = [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]
    return np.unique(_duck_hash_strings(shingles)) if shingles else \
        np.zeros(0, dtype=np.uint64)


_MERSENNE = np.uint64((1 << 61) - 1)
# chunk bound for the (n_perm x n_shingles) outer product: keeps the
# per-chunk minhash matrix around 64 x 2^17 x 8B = 64MB
_SHINGLE_CHUNK = 1 << 17


class MinHasher:
    """n_perm universal-hash minhash family; coefficients derived
    deterministically from a seed, built once per actor."""

    def __init__(self, n_perm: int = 64, seed: int = 42, shingle_k: int = 5):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> Optional[np.ndarray]:
        """Single-doc signature (reference path for tests); None for
        docs with zero shingles (excluded from banding)."""
        sh = shingle_set(text, self.shingle_k)
        if len(sh) == 0:
            return None
        x = sh.astype(np.uint64) % _MERSENNE
        h = (np.multiply.outer(self.a, x) + self.b[:, None]) % _MERSENNE
        return h.min(axis=1)

    def signatures_batch(self, texts) -> tuple:
        """Vectorized batch path: ALL shingle strings of the batch are
        hashed in one call, the (n_perm x n_shingles) minhash matrix
        is computed chunk-wise, and per-doc minima come from
        ``np.minimum.reduceat`` over document segments. Duplicate
        shingles within a doc don't affect the min, so no per-doc
        unique pass is needed.

        Returns ``(kept_row_indices, signatures)`` with ``signatures``
        of shape ``(n_kept, n_perm)``; zero-shingle docs are dropped.
        """
        doc_ids, shingles = _flat_word_shingles(texts, self.shingle_k)
        if not len(doc_ids):
            return [], np.zeros((0, self.n_perm), dtype=np.uint64)
        # doc_ids are sorted/grouped: kept docs + their segment offsets
        newdoc = np.concatenate([[True], doc_ids[1:] != doc_ids[:-1]])
        kept = doc_ids[newdoc].tolist()
        seg_starts = np.nonzero(newdoc)[0]
        offs = np.concatenate([seg_starts,
                               [len(doc_ids)]]).astype(np.int64)
        x = _duck_hash_strings(shingles).astype(np.uint64) % _MERSENNE
        sigs = np.empty((len(kept), self.n_perm), dtype=np.uint64)
        # chunk on document boundaries so reduceat segments stay whole
        start_doc = 0
        while start_doc < len(kept):
            end_doc = start_doc
            while (end_doc < len(kept)
                   and (offs[end_doc + 1] - offs[start_doc] < _SHINGLE_CHUNK
                        or end_doc == start_doc)):
                end_doc += 1
            lo, hi = offs[start_doc], offs[end_doc]
            h = (np.multiply.outer(self.a, x[lo:hi])
                 + self.b[:, None]) % _MERSENNE
            sigs[start_doc:end_doc] = np.minimum.reduceat(
                h, offs[start_doc:end_doc] - lo, axis=1).T
            start_doc = end_doc
        return kept, sigs


class MinHashBander:
    """map_batches actor: text -> (bucket, id) band rows.

    Each band's rows are mixed into one 63-bit bucket key (int64-safe
    for Arrow/Ray shuffles) with splitmix rounds, salted per band so
    the band index is part of the key — one single-column groupby
    buckets all bands at once."""

    def __init__(self, id_column: str, text_column: str = "text",
                 n_perm: int = 64, n_bands: int = 16, seed: int = 42,
                 shingle_k: int = 5):
        self.hasher = MinHasher(n_perm, seed, shingle_k)
        self.id_column = id_column
        self.text_column = text_column
        self.n_bands = n_bands
        self.rows_per_band = n_perm // n_bands
        self.band_salts = hash_ints(np.arange(n_bands, dtype=np.uint64))

    def bucket_matrix(self, sigs: np.ndarray) -> np.ndarray:
        """(n_docs, n_bands) int64 bucket keys."""
        n = sigs.shape[0]
        m = sigs.reshape(n, self.n_bands, self.rows_per_band)
        acc = np.broadcast_to(
            np.uint64(0xCBF29CE484222325) ^ self.band_salts,
            (n, self.n_bands)).copy()
        for j in range(self.rows_per_band):
            acc = hash_ints(acc ^ m[:, :, j])
        return (acc >> np.uint64(1)).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        kept, sigs = self.hasher.signatures_batch(texts)
        if not kept:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                self.id_column: pa.array([], batch[self.id_column].type),
            })
        buckets = self.bucket_matrix(sigs)
        ids = batch[self.id_column].take(pa.array(kept, pa.int64()))
        n_kept = len(kept)
        id_idx = np.repeat(np.arange(n_kept), self.n_bands)
        return pa.table({
            "bucket": pa.array(buckets.ravel()),
            self.id_column: ids.take(pa.array(id_idx, pa.int64())),
        })


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact word-k-gram Jaccard similarity (the verify step)."""
    a, b = shingle_set(text_a, k), shingle_set(text_b, k)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def _flat_word_shingles(texts, k: int):
    """Vectorized word-k-gram shingle assembly for a whole batch —
    no per-text Python: ONE ``utf8_split_whitespace`` (its empty
    tokens from leading/trailing/repeated whitespace are mask-
    filtered so word lists match Python ``str.split()``), then the
    flat word array joined through ``k`` shifted ZERO-COPY slices
    with ``binary_join_element_wise`` and a take of the in-document
    start positions; docs with 1..k-1 words get their whole text as
    one shingle via ``binary_join`` over a list view of the same
    flat array. Shingle strings are byte-identical to
    ``" ".join(text.split()[i:i+k])`` (the :func:`shingle_set` /
    DuckDB-oracle contract).

    Returns ``(doc_ids, shingles)``: int64 doc indices sorted
    ascending (grouped per doc) and the aligned ``pa.StringArray``;
    None/empty texts contribute nothing."""
    n = len(texts)
    if isinstance(texts, pa.ChunkedArray):
        arr = pc.fill_null(pc.cast(texts.combine_chunks(),
                                   pa.string()), "")
    elif isinstance(texts, pa.Array):
        arr = pc.fill_null(pc.cast(texts, pa.string()), "")
    else:
        arr = pa.array([t if t is not None else "" for t in texts],
                       pa.string())
    empty = (np.zeros(0, dtype=np.int64),
             pa.array([], pa.string()))
    if n == 0:
        return empty
    words = pc.utf8_split_whitespace(arr)
    parent = pc.list_parent_indices(words) \
        .to_numpy(zero_copy_only=False)
    flat0 = pc.list_flatten(words)
    nonempty = pc.not_equal(flat0, "")
    ne_np = nonempty.to_numpy(zero_copy_only=False)
    flat = flat0.filter(nonempty)
    doc_of = parent[ne_np].astype(np.int64)
    counts = np.bincount(doc_of, minlength=n).astype(np.int64)
    offs = np.concatenate([[0], np.cumsum(counts)])
    total = int(offs[-1])
    if total == 0:
        return empty
    doc_parts: list = []
    sh_parts: list = []
    big = np.nonzero(counts >= k)[0]
    if len(big) and total >= k:
        cand = pc.binary_join_element_wise(
            *[flat.slice(i, total - k + 1) for i in range(k)], " ")
        m = counts[big] - k + 1
        tot = int(m.sum())
        seg0 = np.concatenate([[0], np.cumsum(m)[:-1]])
        starts = np.repeat(offs[big], m) \
            + np.arange(tot, dtype=np.int64) - np.repeat(seg0, m)
        doc_parts.append(np.repeat(big, m))
        sh_parts.append(cand.take(pa.array(starts, pa.int64())))
    small = np.nonzero((counts > 0) & (counts < k))[0]
    if len(small):
        wc = counts[small]
        tot = int(wc.sum())
        seg0 = np.concatenate([[0], np.cumsum(wc)[:-1]])
        pos = np.repeat(offs[small], wc) \
            + np.arange(tot, dtype=np.int64) - np.repeat(seg0, wc)
        vals = flat.take(pa.array(pos, pa.int64()))
        loffs = np.concatenate([[0], np.cumsum(wc)]).astype(np.int32)
        la = pa.ListArray.from_arrays(pa.array(loffs, pa.int32()),
                                      vals)
        doc_parts.append(small)
        sh_parts.append(pc.binary_join(la, " "))
    doc_ids = np.concatenate(doc_parts)
    shingles = pa.concat_arrays([p.combine_chunks()
                                 if isinstance(p, pa.ChunkedArray)
                                 else p for p in sh_parts])
    if len(doc_parts) > 1:
        order = np.argsort(doc_ids, kind="stable")
        doc_ids = doc_ids[order]
        shingles = shingles.take(pa.array(order, pa.int64()))
    return doc_ids, shingles


def shingle_sets_batch(texts, k: int = 5):
    """Sorted-unique shingle hash sets for a batch of texts —
    shingles assembled vectorized (:func:`_flat_word_shingles`) and
    hashed in ONE call (the batch analogue of :func:`shingle_set`).
    Returns ``(offsets, values)`` — int64 offsets of length
    ``len(texts) + 1`` into a uint64 value array; None/empty texts
    get empty segments."""
    n = len(texts)
    doc, shingles = _flat_word_shingles(texts, k)
    if not len(doc):
        return (np.zeros(n + 1, dtype=np.int64),
                np.zeros(0, dtype=np.uint64))
    values = _duck_hash_strings(shingles)
    order = np.lexsort((values, doc))
    values, doc = values[order], doc[order]
    keep = np.concatenate([[True], (doc[1:] != doc[:-1])
                           | (values[1:] != values[:-1])])
    values, doc = values[keep], doc[keep]
    seg_counts = np.bincount(doc, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(seg_counts)]) \
        .astype(np.int64)
    return offsets, values


def build_ngram_blocklist(ds, column: str = "text",
                          k: int = 5) -> np.ndarray:
    """Distinct word-k-gram shingle hashes of a reference corpus
    (benchmark / eval sets), as ONE sorted uint64 array — the
    broadcast side of :func:`ngram_containment`. Each block
    pre-distincts locally (the per-block distinct set is what ships,
    not the shingle stream); the driver unions the partials. The
    reference corpus is the SMALL side by construction — eval sets,
    not the training corpus."""
    def grams(batch: pa.Table) -> pa.Table:
        texts = batch[column].to_pylist()
        _, values = shingle_sets_batch(texts, k)
        return pa.table({"h": pa.array(np.unique(values), pa.uint64())})

    parts = [t["h"].to_numpy(zero_copy_only=False)
             for t in ds.map_batches(grams, batch_format="pyarrow",
                                     zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow") if t.num_rows]
    if not parts:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def ngram_containment(ds, blocklist: np.ndarray, column: str = "text",
                      k: int = 5, out: str = "containment"):
    """Benchmark-decontamination score: for every document, the
    fraction of its DISTINCT word-k-gram shingles that appear in the
    broadcast ``blocklist`` (an eval-corpus shingle-hash set from
    :func:`build_ngram_blocklist`). Appends ``n_shingles`` and
    ``out``; documents with zero shingles get NULLs. Shingle rule
    matches :func:`shingle_set` (docs shorter than ``k`` words
    contribute their whole text as one shingle).

    Shape: the blocklist is ``ray.put`` ONCE and read per batch (a
    broadcast membership probe, no shuffle); per batch ALL shingles
    hash in one vectorized call and membership is a searchsorted
    against the sorted array — no per-document Python beyond shingle
    string assembly."""
    import ray

    handle = ray.put(np.sort(np.asarray(blocklist, dtype=np.uint64)))

    def score(batch: pa.Table) -> pa.Table:
        bl = ray.get(handle)
        texts = batch[column].to_pylist()
        offsets, values = shingle_sets_batch(texts, k)
        denom = np.diff(offsets)
        doc = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                        denom)
        if len(values) and len(bl):
            pos = np.searchsorted(bl, values)
            pos[pos >= len(bl)] = len(bl) - 1
            member = bl[pos] == values
        else:
            member = np.zeros(len(values), dtype=bool)
        num = np.bincount(doc[member], minlength=batch.num_rows) \
            .astype(np.int64)
        has = denom > 0
        frac = num / np.maximum(denom, 1)
        return batch.append_column(
            "n_shingles", pa.array(denom.astype(np.int64),
                                   mask=~has)) \
            .append_column(out, pa.array(frac, pa.float64(), mask=~has))

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def _gather_segments(offsets: np.ndarray, values: np.ndarray,
                     pos: np.ndarray):
    """Vectorized gather of variable-length segments: for each entry
    of ``pos`` (a row index, or -1 for missing) returns the
    concatenated segment values, a parallel tag array of positions
    into ``pos``, and the per-entry segment lengths."""
    cnt = np.where(pos >= 0, offsets[pos + 1] - offsets[pos], 0)
    total = int(cnt.sum())
    offs_out = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(offs_out, cnt)
           + np.repeat(np.where(pos >= 0, offsets[pos], 0), cnt))
    return values[idx], np.repeat(
        np.arange(len(pos), dtype=np.int64), cnt), cnt


def _empty_pairs() -> pa.Table:
    return pa.table({"id_a": pa.array([], pa.int64()),
                     "id_b": pa.array([], pa.int64())})


def _segment_pairs(ids_np: np.ndarray, max_bucket: Optional[int],
                   bucket_repr, unique: bool = False) -> tuple:
    """Sorted upper-triangle (i<j) pair expansion for one bucket's
    member ids; applies the opt-in ``max_bucket`` truncation with a
    loud warning. ``unique=True`` dedups ids within the bucket first
    (callers feeding raw multi-occurrence rows skip their global
    distinct shuffle). Returns (ia, ib) numpy arrays."""
    ids = np.unique(ids_np) if unique else np.sort(ids_np)
    m = len(ids)
    if max_bucket is not None and m > max_bucket:
        dropped = m * (m - 1) // 2 - max_bucket * (max_bucket - 1) // 2
        logging.getLogger(__name__).warning(
            "bucket %r truncated: %d members -> %d (dropping %d "
            "candidate pairs)", bucket_repr, m, max_bucket, dropped)
        ids, m = ids[:max_bucket], max_bucket
    counts = np.arange(m - 1, -1, -1, dtype=np.int64)
    total = m * (m - 1) // 2
    offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ia = np.repeat(ids, counts)
    ib = ids[np.arange(total, dtype=np.int64)
             - np.repeat(offs, counts)
             + np.repeat(np.arange(1, m + 1, dtype=np.int64), counts)]
    return ia, ib


def _bucket_candidate_pairs(rows, id_column: str,
                            max_bucket: Optional[int] = None,
                            distinct: bool = True,
                            unique: bool = False):
    """Distributed (bucket, id) rows -> candidate (id_a, id_b)
    Dataset.

    Shape: ONE range-partitioned sort on ``bucket`` co-locates each
    bucket's members, then a vectorized pass over sorted batches
    expands every INTERIOR bucket segment into its upper-triangle
    pairs (singleton segments cost one mask test, never a Python
    call — unlike ``map_groups``, whose per-group overhead dominates
    when almost every bucket is unique). Only the first/last bucket
    of each batch (the ones that can straddle a boundary) emit their
    member rows instead; those O(batches) small buckets are stitched
    through ONE worker-side pass over the collected member table —
    driver memory stays O(edge members), and the pair blow-up of a
    hot edge bucket happens in a worker, not the driver.

    By default NO bucket is truncated — recall is exact, and the cost
    of a hot bucket is its true O(m^2) pair count (a worker holds one
    bucket's pair table at a time; 10k colliding docs = 50M pairs =
    ~0.8 GB, the practical per-worker bound). ``max_bucket`` is an
    OPT-IN cap for corpora where degenerate band hashes are expected,
    and every truncation is surfaced with a logging.warning carrying
    the bucket size and exact dropped-pair count — never silent.

    With ``distinct=True`` a final groupby on (id_a, id_b)
    deduplicates pairs that collided in multiple bands — still
    distributed; callers that re-reduce downstream (e.g. the Jaccard
    verify, whose duplicate factor is bounded by n_bands) pass
    ``distinct=False`` and skip that shuffle.
    """
    srt = rows.sort("bucket")

    def block_pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int64()),
            "__edge": pa.array([], pa.bool_()),
        })
        n = batch.num_rows
        if n == 0:
            return empty
        b = batch["bucket"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        ids = batch[id_column].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        change = np.nonzero(b[1:] != b[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        g = len(starts)
        parts = []
        # vectorized ALL-interior-segments upper triangle (the global
        # repeat/offset formula): a dense workload — every bucket hot,
        # e.g. co-purchase orders — would otherwise pay one Python
        # call per segment; LSH's sparse collisions ride the same path
        inter_mask = (b != b[0]) & (b != b[-1])
        if inter_mask.any():
            order = np.lexsort((ids, b))
            bs, vs = b[order], ids[order]
            keep = inter_mask[order]
            if unique:
                dup = np.concatenate(
                    [[False], (bs[1:] == bs[:-1]) & (vs[1:] == vs[:-1])])
                keep &= ~dup
            bs, vs = bs[keep], vs[keep]
            m = len(bs)
            if m:
                nsg = np.concatenate([[True], bs[1:] != bs[:-1]])
                sid = np.cumsum(nsg) - 1
                sst = np.nonzero(nsg)[0]
                ssz = np.diff(np.concatenate([sst, [m]]))
                eff = ssz if max_bucket is None \
                    else np.minimum(ssz, max_bucket)
                if max_bucket is not None and (ssz > max_bucket).any():
                    ti = np.nonzero(ssz > max_bucket)[0]
                    dropped = int((ssz[ti] * (ssz[ti] - 1) // 2
                                   - eff[ti] * (eff[ti] - 1) // 2).sum())
                    logging.getLogger(__name__).warning(
                        "%d interior buckets truncated to %d members "
                        "(dropping %d candidate pairs); first: %r",
                        len(ti), max_bucket, dropped, bs[sst[ti[0]]])
                inseg = np.arange(m) - sst[sid]
                c = np.maximum(eff[sid] - 1 - inseg, 0)
                total = int(c.sum())
                if total:
                    rep = np.repeat(np.arange(m), c)
                    off = np.arange(total) - np.repeat(
                        np.concatenate([[0], np.cumsum(c)[:-1]]), c)
                    parts.append(pa.table({
                        "id_a": pa.array(vs[rep], pa.int64()),
                        "id_b": pa.array(vs[rep + 1 + off], pa.int64()),
                        "bucket": pa.nulls(total, pa.int64()),
                        "__edge": pa.array(np.zeros(total, bool)),
                    }))
        eidx = np.concatenate(
            [np.arange(starts[0], ends[0]),
             np.arange(starts[g - 1], ends[g - 1])]) if g > 1 \
            else np.arange(starts[0], ends[0])
        if len(eidx):
            parts.append(pa.table({
                "id_a": pa.array(ids[eidx], pa.int64()),
                "id_b": pa.nulls(len(eidx), pa.int64()),
                "bucket": pa.array(b[eidx], pa.int64()),
                "__edge": pa.array(np.ones(len(eidx), bool)),
            }))
        return pa.concat_tables(parts) if parts else empty

    scanned = srt.map_batches(block_pairs, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    def interior_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.invert(batch["__edge"]))
        return kept.select(["id_a", "id_b"])

    pairs = scanned.map_batches(interior_only, batch_format="pyarrow",
                                zero_copy_batch=True)

    # edge buckets: member rows stay IN the lazy pipeline (no driver
    # collection / extra execution): filter -> repartition(1) pulls
    # the O(2 segments/batch + hot buckets) edge rows into one block,
    # and edge_pairs sorts that block itself (order-independent) and
    # expands each bucket's upper triangle in ONE worker pass
    def edge_only(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["__edge"]).select(["bucket", "id_a"])

    def edge_pairs(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        ids = batch["id_a"].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        n = len(b)
        if n == 0:
            return _empty_pairs()
        order = np.lexsort((ids, b))
        b, ids = b[order], ids[order]
        change = np.nonzero(b[1:] != b[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        ia_parts, ib_parts = [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ia, ib = _segment_pairs(ids[s:e], max_bucket, b[s],
                                    unique=unique)
            ia_parts.append(ia)
            ib_parts.append(ib)
        if not ia_parts:
            return _empty_pairs()
        return pa.table({
            "id_a": pa.array(np.concatenate(ia_parts), pa.int64()),
            "id_b": pa.array(np.concatenate(ib_parts), pa.int64()),
        })

    edge_ds = scanned.map_batches(edge_only, batch_format="pyarrow",
                                  zero_copy_batch=True) \
        .repartition(1).map_batches(edge_pairs, batch_format="pyarrow",
                                    batch_size=None)
    pairs = pairs.union(edge_ds)
    if not distinct:
        return pairs
    deduped = pairs.groupby(["id_a", "id_b"]).count()

    def drop_count(batch: pa.Table) -> pa.Table:
        return batch.select(["id_a", "id_b"])

    return deduped.map_batches(drop_count, batch_format="pyarrow",
                               zero_copy_batch=True)


def minhash_lsh_candidates(ds, id_column: str, text_column: str = "text",
                           n_perm: int = 64, n_bands: int = 16,
                           seed: int = 42, shingle_k: int = 5,
                           max_bucket: Optional[int] = None,
                           concurrency: Optional[int] = None,
                           distinct: bool = True):
    """Candidate duplicate pairs: docs sharing any LSH band bucket.
    Returns a Dataset of distinct (id_a, id_b) with id_a < id_b
    (``distinct=False`` skips the dedup shuffle for callers that
    re-reduce downstream; duplicates are bounded by n_bands).

    The bander runs as a TASK-pool ``map_batches``: its setup (a few
    rng coefficient arrays) costs microseconds, so an actor pool
    would only add spin-up latency."""
    kwargs = dict(id_column=id_column, text_column=text_column,
                  n_perm=n_perm, n_bands=n_bands, seed=seed,
                  shingle_k=shingle_k)

    def band_fn(batch: pa.Table) -> pa.Table:
        return MinHashBander(**kwargs)(batch)

    extra = {"concurrency": concurrency} if concurrency else {}
    bands = ds.map_batches(band_fn, batch_format="pyarrow",
                           zero_copy_batch=True, **extra)
    return _bucket_candidate_pairs(bands, id_column, max_bucket,
                                   distinct=distinct)


def minhash_dedup_pairs(ds, id_column: str, text_column: str = "text",
                        threshold: float = 0.7, shingle_k: int = 5,
                        **lsh_kwargs) -> pa.Table:
    """Full near-dup pipeline: LSH candidates -> exact n-gram Jaccard
    verification against the threshold. Returns (id_a, id_b, jaccard)
    sorted.

    Verify shape: the candidate-id set is SPARSE by LSH construction
    (near-dups are the exception), so each candidate doc is
    shingle-hashed ONCE, distributed, via the batched kernel
    (:func:`shingle_sets_batch`) and the resulting sorted-unique
    hash sets are broadcast as one (ids, offsets, values) index
    through the object store. Each verify task then computes ALL its
    pairs' intersections in one vectorized tagged-merge (lexsort +
    adjacent-equal + bincount) — no per-pair Python, no re-shingling.
    At 100TB the broadcast is bounded by O(candidate docs) — the same
    envelope as the result itself; if candidates stop being sparse
    the banding parameters (n_bands/shingle_k) are wrong, not the
    join strategy."""
    candidates = minhash_lsh_candidates(ds, id_column, text_column,
                                        shingle_k=shingle_k,
                                        distinct=False, **lsh_kwargs)
    return _jaccard_verify(candidates.materialize(), ds, id_column,
                           text_column, threshold, shingle_k)


def _jaccard_verify(candidates, ds, id_column: str, text_column: str,
                    threshold: float, shingle_k: int) -> pa.Table:
    """Exact n-gram Jaccard over a MATERIALIZED candidate-pair
    Dataset (duplicates allowed; collapsed at the final result-sized
    reduction). Shared by the MinHash pipeline and the exact
    shared-shingle pipeline."""
    import ray

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})
    if candidates.count() == 0:
        return empty

    # sparse candidate ids -> shingle-hash just their texts, once,
    # distributed; broadcast the per-doc sorted hash sets
    id_chunks = []
    for b in candidates.iter_batches(batch_format="pyarrow"):
        for col in ("id_a", "id_b"):
            c = b[col]
            id_chunks.append(c.combine_chunks()
                             if isinstance(c, pa.ChunkedArray) else c)
    cand_ids = pc.unique(pa.concat_arrays(id_chunks))
    ids_handle = ray.put(cand_ids)

    def pick_shingles(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_handle)
        mask = pc.is_in(batch[id_column], value_set=want)
        kept = batch.filter(pc.fill_null(mask, False))
        offsets, values = shingle_sets_batch(
            kept[text_column].to_pylist(), shingle_k)
        sh = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            pa.array(values, pa.uint64()))
        return pa.table({"__cid": kept[id_column], "__sh": sh})

    sh_tables = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in ds.map_batches(pick_shingles, batch_format="pyarrow",
                                zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")]
    sh_tables = [t for t in sh_tables if t.num_rows]
    if sh_tables:
        cand_sh = pa.concat_tables(sh_tables,
                                   promote_options="default") \
            .sort_by([("__cid", "ascending")])
        sh_col = cand_sh["__sh"].combine_chunks()
        index = (cand_sh["__cid"].to_numpy(zero_copy_only=False),
                 sh_col.offsets.to_numpy(zero_copy_only=False)
                 .astype(np.int64),
                 sh_col.values.to_numpy(zero_copy_only=False))
    else:
        index = (np.zeros(0, dtype=np.int64),
                 np.zeros(1, dtype=np.int64),
                 np.zeros(0, dtype=np.uint64))
    sh_handle = ray.put(index)

    def verify(batch: pa.Table) -> pa.Table:
        ids_np, offsets, values = ray.get(sh_handle)

        def locate(col) -> np.ndarray:
            q = col.combine_chunks().to_numpy(zero_copy_only=False)
            if len(ids_np) == 0:
                return np.full(len(q), -1, dtype=np.int64)
            pos = np.searchsorted(ids_np, q)
            pos = np.minimum(pos, len(ids_np) - 1)
            return np.where(ids_np[pos] == q, pos, -1)

        ia = locate(batch["id_a"])
        ib = locate(batch["id_b"])
        sizes = np.diff(offsets)
        ca = np.where(ia >= 0, sizes[np.maximum(ia, 0)], 0)
        cb = np.where(ib >= 0, sizes[np.maximum(ib, 0)], 0)
        # EXACT size-ratio prefilter: jaccard <= min(|A|,|B|) /
        # max(|A|,|B|) (intersection <= smaller set, union >= larger
        # set), so a pair failing min >= threshold*max can never
        # qualify. Gathering both shingle sets is the verify cost;
        # skewed corpora (short-vs-long conversation pairs) shed most
        # candidates here with recall untouched.
        keep = np.minimum(ca, cb) >= threshold * np.maximum(ca, cb)
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            ia, ib = ia[keep], ib[keep]
        npairs = batch.num_rows
        va, tag_a, cnt_a = _gather_segments(offsets, values, ia)
        vb, tag_b, cnt_b = _gather_segments(offsets, values, ib)
        # tagged merge: within a pair each side's hashes are unique,
        # so an adjacent-equal (tag, value) run of length 2 is
        # exactly one intersection element
        allv = np.concatenate([va, vb])
        allt = np.concatenate([tag_a, tag_b])
        order = np.lexsort((allv, allt))
        sv, st = allv[order], allt[order]
        eq = (st[1:] == st[:-1]) & (sv[1:] == sv[:-1])
        inter = np.bincount(st[1:][eq], minlength=npairs) \
            if len(sv) else np.zeros(npairs, dtype=np.int64)
        union = cnt_a + cnt_b - inter
        ja = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        out = pa.table({"id_a": batch["id_a"], "id_b": batch["id_b"],
                        "jaccard": pa.array(ja, pa.float64())})
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    # bounded batches: a hot-bucket expansion can hand verify ONE
    # multi-million-pair block, and the per-pair set gather is
    # pairs x (|A|+|B|) hashes — unbounded blocks OOM-killed workers
    # at sf0.1 conversation scale (observed: 12M-pair blocks x ~300
    # hashes x 8B x worker fan-out exhausted 125GB). 16k pairs/batch
    # keeps each task's gather tens of MB; small corpora see a few
    # extra trivially-cheap batches
    verified = candidates.map_batches(verify, batch_format="pyarrow",
                                      batch_size=16384,
                                      zero_copy_batch=True)
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b
              for b in verified.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return empty
    merged = pa.concat_tables(tables, promote_options="default")
    # candidates skipped the distinct shuffle: collapse cross-band
    # duplicates here (verified pairs are sparse — result-sized work)
    g = merged.group_by(["id_a", "id_b"]).aggregate([("jaccard", "min")])
    return g.rename_columns(["id_a", "id_b", "jaccard"]) \
        .sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def ngram_jaccard_dedup_pairs(ds, id_column: str,
                              text_column: str = "text",
                              threshold: float = 0.5,
                              shingle_k: int = 5,
                              max_bucket: Optional[int] = None) -> pa.Table:
    """EXACT all-pairs n-gram Jaccard near-dup: every pair with
    Jaccard >= threshold (threshold > 0) shares at least one shingle,
    so a shingle-inverted index — each doc explodes to one
    (shingle-hash bucket, id) row per distinct shingle, then the same
    sort-based candidate pipeline as MinHash — has EXACT recall, and
    the vectorized verify computes the true Jaccard. This is the
    ground-truth baseline the MinHash LSH pipeline approximates (and
    the DuckDB-oracle-checkable variant); its cost grows with the
    number of doc pairs sharing any shingle, so at corpus scale
    prefer MinHash and use this to audit samples. Zero-shingle docs
    never pair (consistent with MinHash; exact-dedup owns
    trivially-empty duplicates)."""

    def explode(batch: pa.Table) -> pa.Table:
        offsets, values = shingle_sets_batch(
            batch[text_column].to_pylist(), shingle_k)
        parents = np.repeat(
            np.arange(batch.num_rows, dtype=np.int64),
            np.diff(offsets))
        # >>1 keeps the bucket int64-safe for the Ray sort; the rare
        # extra collision only widens candidates (verify is exact)
        return pa.table({
            "bucket": pa.array((values >> np.uint64(1))
                               .astype(np.int64)),
            id_column: batch[id_column].take(
                pa.array(parents, pa.int64())),
        })

    rows = ds.map_batches(explode, batch_format="pyarrow",
                          zero_copy_batch=True)
    # distinct=True: a pair sharing many shingles would otherwise
    # flow through the verify once per shared shingle
    cands = _bucket_candidate_pairs(rows, id_column, max_bucket,
                                    distinct=True)
    return _jaccard_verify(cands.materialize(), ds, id_column,
                           text_column, threshold, shingle_k)


def cross_jaccard_join(ds_a, ds_b, id_column: str,
                       text_column: str = "text",
                       threshold: float = 0.5,
                       shingle_k: int = 5,
                       max_bucket: Optional[int] = None) -> pa.Table:
    """Near-duplicate JOIN across TWO corpora: every (a, b) pair with
    n-gram Jaccard >= threshold where ``a`` comes from ``ds_a`` and
    ``b`` from ``ds_b`` — the incremental-ingestion quality gate at
    near-dup (not exact-key) granularity: "which NEW docs are
    near-copies of the existing corpus". Exact recall, same
    contract as :func:`ngram_jaccard_dedup_pairs`.

    Scale shape: ids encode their side in the low bit
    (``id*2 + side``), the tagged corpora union into ONE stream, and
    the entire proven single-corpus pipeline runs unchanged (shingle
    inverted index -> one-sort candidate pairing -> vectorized exact
    verify); same-side pairs filter out of the result-sized pair
    table at the end. No cross-corpus shuffle beyond the one the
    single-corpus operator already pays. Requires non-negative ids
    < 2^62 (checked per block).
    """
    import ray  # noqa: F401  (parity with module siblings)

    def encode(side: int):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch[id_column]
            if len(ids) and (pc.min(ids).as_py() or 0) < 0:
                raise ValueError("cross_jaccard_join: negative ids")
            if len(ids) and (pc.max(ids).as_py() or 0) >= (1 << 62):
                raise ValueError("cross_jaccard_join: ids >= 2^62")
            enc = pc.add(pc.multiply(pc.cast(ids, pa.int64()), 2),
                         side)
            return pa.table({id_column: enc,
                             text_column: batch[text_column]})
        return f

    combined = ds_a.map_batches(encode(0), batch_format="pyarrow",
                                zero_copy_batch=True) \
        .union(ds_b.map_batches(encode(1), batch_format="pyarrow",
                                zero_copy_batch=True))
    pairs = ngram_jaccard_dedup_pairs(
        combined, id_column, text_column, threshold, shingle_k,
        max_bucket)
    if pairs.num_rows == 0:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    xa = pairs["id_a"].to_numpy(zero_copy_only=False)
    xb = pairs["id_b"].to_numpy(zero_copy_only=False)
    cross = (xa & 1) != (xb & 1)
    xa, xb = xa[cross], xb[cross]
    j = pairs["jaccard"].to_numpy(zero_copy_only=False)[cross]
    a_val = np.where((xa & 1) == 0, xa, xb) >> 1    # side-0 member
    b_val = np.where((xa & 1) == 0, xb, xa) >> 1    # side-1 member
    order = np.lexsort((b_val, a_val))
    return pa.table({"id_a": pa.array(a_val[order]),
                     "id_b": pa.array(b_val[order]),
                     "jaccard": pa.array(j[order])})


# ---------------------------------------------------------------------------
# near-dup clustering (connected components over the pair graph)
# ---------------------------------------------------------------------------

def _edge_arrays(batch: pa.Table):
    def col(name) -> np.ndarray:
        c = batch[name]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return c.to_numpy(zero_copy_only=False).astype(np.int64)
    return col("id_a"), col("id_b")


def connected_components(pairs, max_iter: int = 50) -> pa.Table:
    """Connected components of a near-dup pair graph: groups of
    mutually-reachable documents, the unit real dedup policies act
    on ("keep one doc per duplicate cluster"). ``pairs`` is a
    pa.Table or Dataset with int64 ``id_a``/``id_b`` columns (extra
    columns ignored). Returns (id, component) for every node in the
    pair graph, where ``component`` is the minimum reachable id.

    Scale shape: distributed hash-min label propagation. The label
    table holds one row per node that APPEARS IN A PAIR — the
    corpus's duplicate docs only, the same O(result) envelope as the
    pair list itself (module invariant: near-dup pairs are sparse by
    construction). Each round broadcasts the labels ONCE via
    ``ray.put``, scans the edge Dataset with a per-batch numpy
    pre-aggregation (lexsort + ``minimum.reduceat``: one candidate
    row per touched node per block), re-reduces with a small Ray
    groupby, and pointer-jumps the driver label array
    (label := label(label)) so chains collapse in O(log diameter)
    rounds; near-dup clusters are near-cliques, so 2-3 rounds in
    practice. Raises on non-convergence rather than returning a
    partial labeling."""
    import ray

    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "component": pa.array([], pa.int64())})
        edges = ray.data.from_arrow(pairs.select(["id_a", "id_b"]))
    else:
        edges = pairs.select_columns(["id_a", "id_b"]).materialize()
        if edges.count() == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "component": pa.array([], pa.int64())})

    def batch_nodes(batch: pa.Table) -> pa.Table:
        a, b = _edge_arrays(batch)
        return pa.table(
            {"node": np.unique(np.concatenate([a, b]))})

    node_parts = [t["node"].to_numpy(zero_copy_only=False)
                  for t in _iter_tables(
                      edges.map_batches(batch_nodes,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True))]
    nodes = np.unique(np.concatenate(node_parts))
    labels = nodes.copy()

    for _ in range(max_iter):
        handle = ray.put((nodes, labels))

        def propagate(batch: pa.Table) -> pa.Table:
            nd, lb = ray.get(handle)
            a, b = _edge_arrays(batch)
            m = np.minimum(lb[np.searchsorted(nd, a)],
                           lb[np.searchsorted(nd, b)])
            ns = np.concatenate([a, b])
            cs = np.concatenate([m, m])
            order = np.lexsort((cs, ns))
            ns, cs = ns[order], cs[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ns[1:] != ns[:-1])))
            return pa.table({"node": ns[starts],
                             "cand": np.minimum.reduceat(cs, starts)})

        agg = edges.map_batches(propagate, batch_format="pyarrow",
                                zero_copy_batch=True) \
            .groupby("node").min("cand")
        new = labels.copy()
        for t in _iter_tables(agg):
            an = t["node"].to_numpy(zero_copy_only=False)
            av = t["min(cand)"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(nodes, an)
            new[pos] = np.minimum(new[pos], av)
        # pointer jumping: labels are themselves node ids (mins of
        # node ids), so label-of-label is a pure driver array op
        while True:
            jumped = new[np.searchsorted(nodes, new)]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            return pa.table({"id": nodes, "component": labels})
        labels = new
    raise RuntimeError(
        f"connected_components did not converge in {max_iter} rounds")


def _iter_tables(ds):
    for b in ds.iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            yield t


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def _duck_hash_strings(values) -> np.ndarray:
    """64-bit token hashes via DuckDB's ``hash()`` — deterministic,
    vectorized, and (unlike the polars kernel) recomputable in pure
    SQL, which is what makes the SimHash pipeline oracle-checkable:
    the DuckDB oracle rebuilds the exact signatures from the same
    ``hash(tok)`` values."""
    from .table_validator import _duck_con

    if not len(values):
        return np.zeros(0, dtype=np.uint64)
    con = _duck_con()
    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) \
        else pa.array(values, pa.string())
    con.register("__tok_t", pa.table({"t": arr}))
    out = con.execute("SELECT hash(t) AS h FROM __tok_t").arrow()["h"]
    return out.combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.uint64)


class SimHasher:
    """64-bit SimHash over DuckDB-``hash()`` token hashes, vectorized
    per batch (see :func:`_duck_hash_strings` for why DuckDB)."""

    def __init__(self, id_column: str, text_column: str = "text"):
        self.id_column = id_column
        self.text_column = text_column
        self.bits = np.arange(64, dtype=np.uint64)

    def signature(self, text: str) -> int:
        tokens = text.split()
        if not tokens:
            return 0
        h = _duck_hash_strings(tokens)
        # (n_tokens, 64) bit matrix -> column sums
        bits = ((h[:, None] >> self.bits) & np.uint64(1)).astype(np.int64)
        votes = bits.sum(axis=0) * 2 - len(tokens)
        sig = np.uint64(0)
        for i in range(64):
            if votes[i] > 0:
                sig |= np.uint64(1) << np.uint64(i)
        return int(sig)

    def signatures_batch(self, texts) -> np.ndarray:
        """Vectorized batch path: ALL tokens of the batch are hashed
        in one call; per-doc bit votes come from ``np.add.reduceat``
        over document segments of the (tokens x 64) bit matrix,
        chunked along the token axis so the working set stays
        ~``_SHINGLE_CHUNK`` x 64 bytes. Bit-identical to
        :meth:`signature` per doc (differential-tested)."""
        token_lists = [(t.split() if t is not None else [])
                       for t in texts]
        counts = np.array([len(tk) for tk in token_lists],
                          dtype=np.int64)
        n = len(texts)
        if counts.sum() == 0:
            return np.zeros(n, dtype=np.uint64)
        h = _duck_hash_strings([tok for tk in token_lists for tok in tk])
        doc = np.repeat(np.arange(n, dtype=np.int64), counts)
        votes = np.zeros((n, 64), dtype=np.int64)
        # little-endian byte view + unpackbits is ~5x faster than a
        # broadcast uint64 shift for the (tokens x 64) bit matrix
        hb = h.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        for s in range(0, len(h), _SHINGLE_CHUNK):
            e = min(s + _SHINGLE_CHUNK, len(h))
            bits = np.unpackbits(hb[s:e], axis=1,
                                 bitorder="little").astype(np.int64)
            d = doc[s:e]
            starts = np.concatenate(
                [[0], np.nonzero(d[1:] != d[:-1])[0] + 1])
            # docs straddling a chunk boundary accumulate via +=
            votes[d[starts]] += np.add.reduceat(bits, starts, axis=0)
        tot = votes * 2 - counts[:, None]
        return ((tot > 0).astype(np.uint64)
                << self.bits[None, :]).sum(axis=1, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.signatures_batch(
            batch[self.text_column].to_pylist())
        return pa.table({
            self.id_column: batch[self.id_column],
            "simhash": pa.array(sigs, pa.uint64()),
        })


def simhash_signatures(ds, id_column: str, text_column: str = "text",
                       concurrency: Optional[int] = None):
    # task pool: SimHasher setup is a 64-entry arange — an actor pool
    # would only add spin-up latency
    def sim_fn(batch: pa.Table) -> pa.Table:
        return SimHasher(id_column, text_column)(batch)

    extra = {"concurrency": concurrency} if concurrency else {}
    return ds.map_batches(sim_fn, batch_format="pyarrow",
                          zero_copy_batch=True, **extra)


def _simhash_explode(id_column: str, n_bands: int = 4):
    """Band-bucket explode: the 64 signature bits split into
    ``n_bands`` near-equal contiguous bands; each signature fans out
    to ``n_bands`` (bucket, id) rows with the band index folded
    bijectively into the bucket key (``band << 48 | value``;
    n_bands >= 2 keeps band values under 2^32). By pigeonhole, any
    pair within Hamming distance ``n_bands - 1`` shares at least one
    unchanged band — candidate recall is EXACT for that radius. The
    trade: larger radii mean narrower bands (64/n_bands bits), a
    smaller bucket space, and therefore hotter buckets on large
    corpora."""
    if not 2 <= n_bands <= 64:
        raise ValueError("n_bands must be in [2, 64]")
    edges = np.linspace(0, 64, n_bands + 1).astype(np.uint64)

    def explode(batch: pa.Table) -> pa.Table:
        s = batch["simhash"].combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(s)
        buckets = np.empty((n, n_bands), dtype=np.int64)
        for q in range(n_bands):
            lo, hi = edges[q], edges[q + 1]
            width = int(hi - lo)
            val = (s >> lo) & np.uint64((1 << width) - 1)
            buckets[:, q] = val.astype(np.int64) + (q << 48)
        id_idx = np.repeat(np.arange(n), n_bands)
        return pa.table({
            "bucket": pa.array(buckets.ravel()),
            id_column: batch[id_column].take(pa.array(id_idx, pa.int64())),
        })

    return explode


def simhash_near_dup_pairs(ds, id_column: str, text_column: str = "text",
                           max_hamming: int = 3,
                           max_bucket: Optional[int] = None) -> pa.Table:
    """SimHash near-dup pipeline: band-bucket candidates -> exact
    Hamming verify. The band count is derived from the radius
    (``max_hamming + 1`` bands), so by pigeonhole EVERY pair within
    ``max_hamming`` shares a band: the result is exactly the set of
    all pairs with Hamming distance <= max_hamming (what the DuckDB
    oracle recomputes by brute force). Same distributed shape as the
    MinHash verify: the sparse candidate signatures are gathered into
    one Arrow table in the object store and each verify task attaches
    them with a per-batch Arrow join; the XOR-popcount runs
    vectorized. Returns (id_a, id_b, hamming) sorted."""
    import ray

    sigs = simhash_signatures(ds, id_column, text_column).materialize()
    exploded = sigs.map_batches(
        _simhash_explode(id_column, n_bands=max(2, max_hamming + 1)),
        batch_format="pyarrow")
    cands = _bucket_candidate_pairs(exploded, id_column, max_bucket,
                                    distinct=False).materialize()
    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    if cands.count() == 0:
        return empty

    id_chunks = []
    for b in cands.iter_batches(batch_format="pyarrow"):
        for col in ("id_a", "id_b"):
            c = b[col]
            id_chunks.append(c.combine_chunks()
                             if isinstance(c, pa.ChunkedArray) else c)
    cand_ids = pc.unique(pa.concat_arrays(id_chunks))
    ids_handle = ray.put(cand_ids)

    def pick_sigs(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_handle)
        mask = pc.is_in(batch[id_column], value_set=want)
        kept = batch.filter(pc.fill_null(mask, False))
        return pa.table({"__cid": kept[id_column],
                         "__csig": kept["simhash"]})

    sig_tables = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in sigs.map_batches(pick_sigs, batch_format="pyarrow",
                                  zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")]
    sig_tables = [t for t in sig_tables if t.num_rows]
    cand_sigs = (pa.concat_tables(sig_tables, promote_options="default")
                 if sig_tables else
                 pa.table({"__cid": pa.array([], pa.int64()),
                           "__csig": pa.array([], pa.uint64())}))
    sigs_handle = ray.put(cand_sigs)

    def verify(batch: pa.Table) -> pa.Table:
        table = ray.get(sigs_handle)
        j = batch.join(table.rename_columns(["id_a", "__sa"]),
                       keys=["id_a"], join_type="left outer")
        j = j.join(table.rename_columns(["id_b", "__sb"]),
                   keys=["id_b"], join_type="left outer")
        sa = pc.fill_null(j["__sa"], 0).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        sb = pc.fill_null(j["__sb"], 0).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        x = (sa ^ sb).view(np.uint8).reshape(len(sa), 8)
        ham = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
        out = pa.table({"id_a": j["id_a"], "id_b": j["id_b"],
                        "hamming": pa.array(ham)})
        return out.filter(pc.less_equal(out["hamming"], max_hamming))

    verified = cands.map_batches(verify, batch_format="pyarrow",
                                 zero_copy_batch=True)
    tables = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
              else b
              for b in verified.iter_batches(batch_format="pyarrow")]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return empty
    merged = pa.concat_tables(tables, promote_options="default")
    g = merged.group_by(["id_a", "id_b"]).aggregate([("hamming", "min")])
    return g.rename_columns(["id_a", "id_b", "hamming"]) \
        .sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def exact_dedup_sorted(ds, content_keys: List[str], id_column: str):
    """Broadcast-free exact-dedup survivors: ONE range-partitioned
    sort on ``(content_keys..., id)`` co-locates and orders each
    duplicate run, then a vectorized first-of-run filter keeps the
    minimum-id row of every run. This is the scale path for
    mostly-unique corpora, where :func:`exact_dedup`'s keeper-id
    broadcast (O(distinct keys)) would approach corpus size.

    Block-boundary stitching: each block's FIRST row might continue
    the previous block's run, so it is emitted as a CANDIDATE row
    carrying the block's last key and whether the block's last run
    started inside the block; ONLY those n_blocks candidate rows are
    collected on the driver. A candidate survives iff no block's
    interior run of the same key precedes it and it has the smallest
    id among candidates of its key — exact for keys spanning any
    number of blocks.
    """
    import ray

    from .relational import null_safe_sort

    sorted_ds = null_safe_sort(ds, content_keys,
                               [id_column]).materialize()

    def split(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flags_schema = batch.schema.append(
            pa.field("__cand", pa.bool_())).append(
            pa.field("__last_key", pa.string())).append(
            pa.field("__last_interior", pa.bool_()))
        if n == 0:
            return flags_schema.empty_table()
        change = np.zeros(n - 1, dtype=bool) if n > 1 else \
            np.zeros(0, dtype=bool)
        for k in content_keys:
            col = batch[k].combine_chunks()
            neq = pc.fill_null(
                pc.not_equal(col.slice(1), col.slice(0, n - 1)), False)
            null_flip = pc.xor(pc.is_null(col.slice(1)),
                               pc.is_null(col.slice(0, n - 1)))
            change |= pc.or_(neq, null_flip).to_numpy(
                zero_copy_only=False)
        keep = np.concatenate([[False], change])
        survivors = batch.filter(pa.array(keep))
        m = survivors.num_rows
        # the per-block stitch metadata lives ONLY on the single
        # candidate row — survivor rows carry nulls, nothing O(N)
        survivors = survivors.append_column(
            "__cand", pa.array([False] * m, pa.bool_()))
        survivors = survivors.append_column(
            "__last_key", pa.nulls(m, pa.string()))
        survivors = survivors.append_column(
            "__last_interior", pa.nulls(m, pa.bool_()))
        cand = batch.slice(0, 1)
        last_key = json.dumps(
            [batch[k][n - 1].as_py() for k in content_keys],
            default=str)
        # did the last run start inside this block (not at row 0)?
        last_interior = bool(keep[1:].any()) if n > 1 else False
        cand = cand.append_column("__cand",
                                  pa.array([True], pa.bool_()))
        cand = cand.append_column("__last_key",
                                  pa.array([last_key], pa.string()))
        cand = cand.append_column(
            "__last_interior", pa.array([last_interior], pa.bool_()))
        return pa.concat_tables([survivors, cand])

    tagged = sorted_ds.map_batches(split, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()

    def interior_only(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.invert(batch["__cand"]))
        return kept.drop_columns(["__cand", "__last_key",
                                  "__last_interior"])

    interior = tagged.map_batches(interior_only, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def candidates_only(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["__cand"])

    # driver stitch over exactly n_blocks candidate rows
    cand_rows = []
    interior_last = set()  # keys whose final run started interior
    for batch in tagged.map_batches(candidates_only,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for row in batch.to_pylist():
            key_json = json.dumps(
                [row[k] for k in content_keys], default=str)
            cand_rows.append((key_json, row))
            if row["__last_interior"]:
                interior_last.add(row["__last_key"])
    best: dict = {}
    for key_json, row in cand_rows:
        if key_json in interior_last:
            continue  # the run started inside an earlier block
        cur = best.get(key_json)
        if cur is None or row[id_column] < cur[id_column]:
            best[key_json] = row
    if not best:
        return interior
    clean = [{k: v for k, v in row.items()
              if not k.startswith("__")}
             for row in best.values()]
    target = interior.schema().base_schema
    extra = pa.Table.from_pylist(clean).select(target.names) \
        .cast(target)
    return interior.union(ray.data.from_arrow(extra))


def incremental_dedup(delta_ds, index_ds, key_column: str,
                      id_column: str):
    """Snapshot-over-snapshot exact dedup: the surviving rows of a
    NEW corpus delta are the first-per-key rows (min ``id_column``)
    within the delta whose ``key_column`` does not already exist in
    the historic index — the canonical incremental-ingestion step of
    a crawl pipeline, where the index holds every content key ever
    admitted.

    Scale shape: the index is the BIG side (all historic keys,
    potentially corpus-lifetime-sized) and is never shuffled, never
    broadcast, never collected — ONE streaming pass probes each
    index block against the broadcast delta key set and emits only
    its DISTINCT matched keys, so both driver-held sets (delta keys,
    hit keys) are bounded by the delta, not the index. Within-delta
    duplicates collapse through :func:`exact_dedup` (null-safe
    grouping; null keys survive the anti-filter like SQL
    ``NOT EXISTS``).
    """
    import ray

    from .relational import _broadcast_key_set

    # the delta is consumed three times (dedup groupby, key-set
    # collect, keep-filter): pin it in the object store so its
    # upstream scan runs ONCE — the delta is snapshot-sized, far
    # below the index, and the store spills if needed
    delta_ds = delta_ds.materialize()
    survivors = exact_dedup(delta_ds, [key_column], id_column)
    delta_keys = _broadcast_key_set(delta_ds, key_column)

    def hit_keys(batch: pa.Table) -> pa.Table:
        ktype = batch.schema.field(key_column).type
        keys = ray.get(delta_keys)
        col = batch[key_column].drop_null()
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col) == 0 or len(keys) == 0:
            return pa.table({key_column: pa.array([], ktype)})
        m = pc.fill_null(pc.is_in(col, value_set=keys), False)
        return pa.table({key_column: pc.unique(col.filter(m))})

    hits = _broadcast_key_set(
        index_ds.map_batches(hit_keys, batch_format="pyarrow",
                             zero_copy_batch=True),
        key_column)

    def anti(batch: pa.Table) -> pa.Table:
        hit_arr = ray.get(hits)
        if len(hit_arr) == 0:
            return batch
        mask = pc.fill_null(
            pc.is_in(batch[key_column], value_set=hit_arr), False)
        return batch.filter(pc.invert(mask))

    return survivors.map_batches(anti, batch_format="pyarrow",
                                 zero_copy_batch=True)


def append_index_fragment(survivors_ds, index_dir: str, run_id: str,
                          key_column: str) -> str:
    """Persist a snapshot's admitted keys as ONE new hive partition
    under ``index_dir/run_id=<run_id>/`` — the append-only layout
    :func:`incremental_dedup` reads back with
    ``ray.data.read_parquet(index_dir)``. Idempotent per run: re-
    running the same ``run_id`` rewrites only its own partition, so
    a resumed ingestion never duplicates index keys. Returns the
    partition path."""
    import os
    import shutil

    part = os.path.join(index_dir, f"run_id={run_id}")
    if os.path.exists(part):
        shutil.rmtree(part)
    os.makedirs(part, exist_ok=True)
    survivors_ds.select_columns([key_column]).write_parquet(part)
    return part


def dedup_keep_best(ds, pairs, id_column: str = "doc_id",
                    quality: str = "n_chars"):
    """Quality-aware dedup retention — the policy step real pipelines
    run after near-dup detection: within each connected component of
    the duplicate-pair graph keep exactly ONE document, the highest
    ``quality`` (NULL quality sorts lowest; ties break to the
    smallest id); documents outside every pair keep themselves.
    Returns a Dataset of (id_column, component, kept) covering EVERY
    input document (singletons carry their own id as component).

    Scale shape: the component label table is O(duplicate docs) (the
    :func:`connected_components` contract) and broadcasts ONCE; one
    stateless scan collects the (component, id, quality) rows of
    clustered docs — again O(dup docs), the action set the policy
    must rank anyway — winners resolve vectorized on the driver
    (lexsort, one pass), and a second stateless scan emits the
    verdict per document. Nothing corpus-sized leaves the workers."""
    import ray

    comp = connected_components(pairs)
    if comp.num_rows == 0:
        def all_kept(batch: pa.Table) -> pa.Table:
            ids = batch[id_column]
            return pa.table({
                id_column: ids,
                "component": pc.cast(ids, pa.int64()),
                "kept": pa.array(np.ones(batch.num_rows, bool))})
        return ds.map_batches(all_kept, batch_format="pyarrow",
                              zero_copy_batch=True)

    lab_ids = comp["id"].combine_chunks()
    lab_comp = comp["component"].combine_chunks() \
        .to_numpy(zero_copy_only=False)
    h_members = ray.put((lab_ids, lab_comp))

    def member_quality(batch: pa.Table) -> pa.Table:
        ids_r, comp_r = ray.get(h_members)
        idx = pc.index_in(batch[id_column], value_set=ids_r)
        found = pc.is_valid(idx)
        kept_rows = batch.filter(found)
        pos = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
        pos = pos[found.to_numpy(zero_copy_only=False)]
        q = pc.cast(kept_rows[quality], pa.float64())
        return pa.table({
            "component": pa.array(comp_r[pos], pa.int64()),
            "m_id": pc.cast(kept_rows[id_column], pa.int64()),
            "q": q})

    parts = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
             else b
             for b in ds.map_batches(member_quality,
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    mem = pa.concat_tables(parts, promote_options="default") \
        if parts else pa.table({"component": pa.array([], pa.int64()),
                                "m_id": pa.array([], pa.int64()),
                                "q": pa.array([], pa.float64())})
    c = mem["component"].to_numpy(zero_copy_only=False)
    mi = mem["m_id"].to_numpy(zero_copy_only=False)
    qv = pc.fill_null(mem["q"], -np.inf).to_numpy(zero_copy_only=False)
    # per component: max quality, ties -> min id. Sort by
    # (component, -q, id) and take each component's first row.
    order = np.lexsort((mi, -qv, c))
    cs, ws = c[order], mi[order]
    first = np.concatenate([[True], cs[1:] != cs[:-1]]) \
        if len(cs) else np.zeros(0, bool)
    winners = np.sort(ws[first]) if len(cs) else np.zeros(0, np.int64)
    h_winners = ray.put(winners)

    def verdict(batch: pa.Table) -> pa.Table:
        ids_r, comp_r = ray.get(h_members)
        win = ray.get(h_winners)
        idx = pc.index_in(batch[id_column], value_set=ids_r)
        found = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        pos = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
        own = pc.cast(batch[id_column], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        component = np.where(found, comp_r[pos], own)
        p = np.searchsorted(win, own) if len(win) \
            else np.zeros(len(own), np.int64)
        is_winner = (p < len(win)) & (len(win) > 0)
        is_winner = np.where(is_winner,
                             win[np.minimum(p, max(len(win) - 1, 0))]
                             == own, False)
        kept = ~found | is_winner
        return pa.table({
            id_column: batch[id_column],
            "component": pa.array(component, pa.int64()),
            "kept": pa.array(kept)})

    return ds.map_batches(verdict, batch_format="pyarrow",
                          zero_copy_batch=True)


def blocked_hamming_pairs(ds, id_column: str, name_column: str,
                          prefix_len: int, max_hamming: int = 1):
    """Record linkage by BLOCKING + verify: candidate pairs share a
    block key of ``(length, prefix_len-char prefix)`` and survive iff
    their suffixes differ in at most ``max_hamming`` character
    positions. For EQUAL-LENGTH strings hamming distance equals
    Levenshtein distance whenever either is <= 1 (a single edit that
    preserves length must be a substitution), so with
    ``max_hamming = 1`` the output is exactly the SQL
    ``levenshtein(a, b) <= 1`` pairs within equal-(length, prefix)
    blocks — the provable-equivalence trick that keeps the verify a
    pure vectorized byte compare instead of a DP.

    Shape: block keys hash to int64 buckets and ride the proven
    one-sort interior-segment + edge-stitch pair machinery
    (:func:`_bucket_candidate_pairs`; each id lives in exactly ONE
    bucket, so no distinct shuffle is needed); the verify gathers
    names from ONE broadcast (keys, names) pair (dimension-sized —
    callers at corpus scale block on richer prefixes so the
    name table stays broadcastable, or swap the gather for a
    sort-merge join) and checks prefix equality (hash-collision
    guard) plus suffix hamming with per-character Arrow slice
    equality — one kernel call per suffix position per length group,
    no per-pair Python. Character-level (codeunit) comparison; NULL
    names never pair. Returns (id_a, id_b) with id_a < id_b."""
    import ray

    def rows(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.is_valid(batch[name_column]),
                                 pc.is_valid(batch[id_column])))
        nm = b[name_column].combine_chunks()
        ln = pc.cast(pc.utf8_length(nm), pa.string())
        pref = pc.utf8_slice_codeunits(nm, 0, prefix_len)
        key = pc.binary_join_element_wise(ln, pref, "|")
        h = _duck_hash_strings(key).view(np.int64)
        return pa.table({"bucket": pa.array(h),
                         id_column: b[id_column]})

    pairs = _bucket_candidate_pairs(
        ds.map_batches(rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        id_column, distinct=False)

    # ONE broadcast of the (id, name) lookup
    keys_chunks, name_chunks = [], []
    for b in ds.map_batches(
            lambda t: t.select([id_column, name_column]).filter(
                pc.and_(pc.is_valid(t[name_column]),
                        pc.is_valid(t[id_column]))),
            batch_format="pyarrow", zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        if t.num_rows:
            keys_chunks.append(t[id_column].combine_chunks())
            name_chunks.append(t[name_column].combine_chunks())
    lookup = ray.put((
        pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                          else c for c in keys_chunks]) if keys_chunks
        else pa.array([], pa.int64()),
        pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                          else c for c in name_chunks]) if name_chunks
        else pa.array([], pa.string())))

    def verify(batch: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        ks, ns = ray.get(lookup)
        na = ns.take(pc.index_in(batch["id_a"].combine_chunks(),
                                 value_set=ks))
        nb = ns.take(pc.index_in(batch["id_b"].combine_chunks(),
                                 value_set=ks))
        la = pc.utf8_length(na).to_numpy(zero_copy_only=False)
        lb = pc.utf8_length(nb).to_numpy(zero_copy_only=False)
        same_len = la == lb
        same_pref = pc.equal(
            pc.utf8_slice_codeunits(na, 0, prefix_len),
            pc.utf8_slice_codeunits(nb, 0, prefix_len)) \
            .to_numpy(zero_copy_only=False)
        keep = same_len & same_pref
        ham = np.zeros(batch.num_rows, np.int64)
        for L in np.unique(la[keep]):
            m = keep & (la == L)
            for k in range(prefix_len, int(L)):
                neq = pc.invert(pc.equal(
                    pc.utf8_slice_codeunits(na, k, k + 1),
                    pc.utf8_slice_codeunits(nb, k, k + 1))) \
                    .to_numpy(zero_copy_only=False)
                ham[m] += neq[m]
        keep &= ham <= max_hamming
        out = batch.filter(pa.array(keep))
        lo = pc.min_element_wise(out["id_a"], out["id_b"])
        hi = pc.max_element_wise(out["id_a"], out["id_b"])
        return pa.table({"id_a": lo, "id_b": hi})

    return pairs.map_batches(verify, batch_format="pyarrow",
                             zero_copy_batch=True)
