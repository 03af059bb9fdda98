"""Text-analysis operators for training-data pipelines.

All stages are vectorized (pyarrow.compute / numpy) or run compiled
state built once per actor (``map_batches`` with a callable class):
language-ID profiles and stopword sets are constructed in
``__init__``, never per batch.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_REGEX = r"\S+"
# BPE-ish word/number/punct splitter for token counting
BPE_ISH_REGEX = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"


def json_decode_column(batch: pa.Table, column: str,
                       out: Optional[str] = None) -> pa.Table:
    """Vectorized JSON-string -> struct decode (polars kernel); the
    decoded column can then take the vectorized struct validation
    path instead of the per-cell interpreter fallback."""
    import polars as pl

    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    decoded = pl.from_arrow(col).str.json_decode().to_arrow()
    name = out or column
    if name in batch.column_names:
        batch = batch.drop_columns([name])
    return batch.append_column(name, decoded)


def token_count_batch(batch: pa.Table, column: str = "text",
                      out: str = "n_tokens",
                      regex: str = TOKEN_REGEX) -> pa.Table:
    counts = pc.count_substring_regex(batch[column], pattern=regex)
    return batch.append_column(out, pc.cast(counts, pa.int64()))


def token_counts(ds, column: str = "text", out: str = "n_tokens",
                 regex: str = TOKEN_REGEX):
    return ds.map_batches(
        lambda b: token_count_batch(b, column, out, regex),
        batch_format="pyarrow", zero_copy_batch=True)


# character n-gram profiles for a tiny deterministic language-ID
# heuristic; profiles for the languages present in the testdata corpus
_LANG_MARKERS = {
    "en": ["the", "and", "of", "to", "is", "in", "that", "it"],
    "de": ["der", "die", "und", "ist", "nicht", "das", "ein", "zu"],
    "fr": ["le", "la", "les", "et", "est", "une", "que", "des"],
    "es": ["el", "la", "los", "de", "que", "es", "una", "y"],
    "zh": [],  # detected by codepoint range instead
}


class LanguageId:
    """Actor-pool language-ID stage: marker regexes compiled once per
    actor in ``__init__``, batches scored vectorized in ``__call__``."""

    def __init__(self, column: str = "text", out: str = "lang_pred"):
        self.column = column
        self.out = out
        self.patterns = {
            lang: ("(?i)\\b(" + "|".join(map(re.escape, words)) + ")\\b")
            for lang, words in _LANG_MARKERS.items() if words
        }
        self.cjk = r"[一-鿿]"

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.column]
        n = len(col)
        scores = np.zeros((len(self.patterns) + 1, n), dtype=np.int64)
        langs = list(self.patterns.keys()) + ["zh"]
        for i, (lang, pat) in enumerate(self.patterns.items()):
            cnt = pc.count_substring_regex(col, pattern=pat)
            scores[i] = pc.fill_null(cnt, 0).to_numpy(zero_copy_only=False)
        cjk = pc.count_substring_regex(col, pattern=self.cjk)
        # CJK characters are decisive: weight them heavily
        scores[-1] = pc.fill_null(cjk, 0).to_numpy(zero_copy_only=False) * 5
        best = np.argmax(scores, axis=0)
        none_matched = scores.sum(axis=0) == 0
        pred = np.array([langs[b] for b in best], dtype=object)
        pred[none_matched] = "unknown"
        return batch.append_column(self.out, pa.array(pred, pa.string()))


def language_id(ds, column: str = "text", out: str = "lang_pred",
                concurrency: Optional[int] = None):
    return ds.map_batches(LanguageId, fn_constructor_kwargs={
        "column": column, "out": out},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency or (1, 4))


_STOPWORDS = set(
    "the a an and or of to is in that it as for on with at by this".split())


class QualityScore:
    """Heuristic document-quality features + score, vectorized.

    Features: token count, mean token length, punctuation ratio,
    stopword ratio, uppercase ratio, repetition (distinct-token
    fraction). Score is a fixed linear blend in [0, 1].
    """

    def __init__(self, column: str = "text"):
        self.column = column
        self.stop_pattern = ("(?i)\\b(" + "|".join(_STOPWORDS) + ")\\b")

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.column]
        n_chars = pc.fill_null(pc.utf8_length(col), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        n_tok = pc.fill_null(
            pc.count_substring_regex(col, pattern=TOKEN_REGEX), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        n_punct = pc.fill_null(
            pc.count_substring_regex(col, pattern=r"[^\w\s]"), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        n_stop = pc.fill_null(
            pc.count_substring_regex(col, pattern=self.stop_pattern), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        n_upper = pc.fill_null(
            pc.count_substring_regex(col, pattern=r"[A-Z]"), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)

        safe_chars = np.maximum(n_chars, 1.0)
        safe_tok = np.maximum(n_tok, 1.0)
        mean_tok_len = (n_chars - np.maximum(n_tok - 1, 0)) / safe_tok
        punct_ratio = n_punct / safe_chars
        stop_ratio = n_stop / safe_tok
        upper_ratio = n_upper / safe_chars

        length_score = np.clip(n_tok / 50.0, 0, 1)
        score = np.clip(
            0.35 * length_score
            + 0.25 * np.clip(stop_ratio * 4, 0, 1)
            + 0.2 * (1 - np.clip(punct_ratio * 5, 0, 1))
            + 0.2 * (1 - np.clip(upper_ratio * 5, 0, 1)),
            0, 1)

        out = batch
        for name, arr in [
            ("n_tokens", n_tok.astype(np.int64)),
            ("mean_token_len", mean_tok_len),
            ("punct_ratio", punct_ratio),
            ("stopword_ratio", stop_ratio),
            ("upper_ratio", upper_ratio),
            ("quality_score", score),
        ]:
            out = out.append_column(name, pa.array(arr))
        return out


def quality_scores(ds, column: str = "text",
                   concurrency: Optional[int] = None):
    return ds.map_batches(QualityScore,
                          fn_constructor_kwargs={"column": column},
                          batch_format="pyarrow", zero_copy_batch=True,
                          concurrency=concurrency or (1, 4))


def repetition_batch(batch: pa.Table, column: str = "text",
                     n: int = 2) -> pa.Table:
    """Gopher-style duplicate word-n-gram metrics per document:
    ``n_grams`` (total n-grams), ``dup_gram_frac`` (fraction of
    n-grams that are repeats of an earlier one within the doc:
    ``(n_grams - n_distinct) / n_grams``) and ``dup_char_frac``
    (fraction of n-gram characters — every occurrence — belonging to
    n-grams seen more than once). High values flag boilerplate /
    templated documents in a training corpus.

    Fully batch-vectorized: one regex split over the whole column,
    adjacent-token joins via Arrow kernels, one Arrow group-by on
    ``(doc, gram)`` and numpy ``bincount`` segment reductions — no
    per-document Python. Documents with fewer than ``n`` tokens (or
    NULL text) get NULL metrics.
    """
    if n < 2:
        raise ValueError("repetition_batch requires n >= 2")
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    rows = batch.num_rows
    toks = pc.split_pattern_regex(col, r"\s+")
    flat = pc.list_flatten(toks)
    par = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    par = par.filter(keep)
    parn = par.to_numpy(zero_copy_only=False)
    m = len(parn) - (n - 1)
    n_grams = np.zeros(rows, np.int64)
    n_distinct = np.zeros(rows, np.int64)
    total_chars = np.zeros(rows, np.int64)
    dup_chars = np.zeros(rows, np.int64)
    if m > 0:
        same = parn[n - 1:] == parn[:m]
        pieces = [flat.slice(j, m).filter(pa.array(same))
                  for j in range(n)]
        grams = pc.binary_join_element_wise(*pieces, " ")
        gpar = parn[:m][same]
        gb = pa.TableGroupBy(
            pa.table({"p": pa.array(gpar), "g": grams}),
            ["p", "g"]).aggregate([([], "count_all")])
        p = gb["p"].to_numpy(zero_copy_only=False)
        cnt = gb["count_all"].to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(gb["g"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n_grams = np.bincount(p, weights=cnt,
                              minlength=rows).astype(np.int64)
        n_distinct = np.bincount(p, minlength=rows).astype(np.int64)
        occ_chars = cnt * chars
        total_chars = np.bincount(p, weights=occ_chars,
                                  minlength=rows).astype(np.int64)
        dup_chars = np.bincount(p, weights=occ_chars * (cnt > 1),
                                minlength=rows).astype(np.int64)
    has = n_grams > 0
    safe = np.maximum(n_grams, 1).astype(np.float64)
    safe_c = np.maximum(total_chars, 1).astype(np.float64)
    dup_gram = (n_grams - n_distinct).astype(np.float64) / safe
    dup_char = dup_chars.astype(np.float64) / safe_c
    return batch \
        .append_column("n_grams", pa.array(n_grams, pa.int64(),
                                           mask=~has)) \
        .append_column("dup_gram_frac", pa.array(dup_gram, mask=~has)) \
        .append_column("dup_char_frac", pa.array(dup_char, mask=~has))


def repetition_scores(ds, column: str = "text", n: int = 2):
    """Distributed duplicate-n-gram repetition metrics (see
    :func:`repetition_batch`): stateless ``map_batches``, no shuffle
    — per-document metrics never cross block boundaries."""
    return ds.map_batches(
        lambda b: repetition_batch(b, column, n),
        batch_format="pyarrow", zero_copy_batch=True)


_EMAIL_REGEX = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
_URL_REGEX = r"https?://[^\s]+"


def scrub_pii_batch(batch: pa.Table, column: str = "text",
                    out: str = "scrubbed") -> pa.Table:
    """C4-style PII scrubbing: replace email addresses with
    ``<EMAIL>`` and ``http(s)`` URLs with ``<URL>`` (URLs first, so
    an address inside a URL query string counts as part of the URL),
    recording per-document match counts. All-RE2 vectorized kernels
    (``count_substring_regex`` / ``replace_substring_regex``), no
    Python per row; NULL text passes through as NULL."""
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n_urls = pc.count_substring_regex(col, pattern=_URL_REGEX)
    s = pc.replace_substring_regex(col, pattern=_URL_REGEX,
                                   replacement="<URL>")
    n_emails = pc.count_substring_regex(s, pattern=_EMAIL_REGEX)
    s = pc.replace_substring_regex(s, pattern=_EMAIL_REGEX,
                                   replacement="<EMAIL>")
    return batch \
        .append_column("n_urls", pc.cast(n_urls, pa.int64())) \
        .append_column("n_emails", pc.cast(n_emails, pa.int64())) \
        .append_column(out, s)


def scrub_pii(ds, column: str = "text", out: str = "scrubbed"):
    """Distributed PII scrub stage (see :func:`scrub_pii_batch`):
    stateless ``map_batches``, zero-copy Arrow in and out."""
    return ds.map_batches(
        lambda b: scrub_pii_batch(b, column, out),
        batch_format="pyarrow", zero_copy_batch=True)


def _rolling_hashes(text: str, window: int, base: int = 257,
                    mod: int = (1 << 61) - 1) -> np.ndarray:
    """Rabin-Karp rolling hashes over bytes with the given window."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    n = len(data)
    if n < window:
        return np.zeros(0, dtype=np.uint64)
    # vectorized rolling hash via prefix powers (python ints avoided
    # by object dtype only at the edge; window is small)
    out = np.empty(n - window + 1, dtype=np.uint64)
    h = 0
    for i in range(window):
        h = (h * base + int(data[i])) % mod
    out[0] = h
    top = pow(base, window - 1, mod)
    for i in range(1, n - window + 1):
        h = ((h - int(data[i - 1]) * top) * base + int(data[i + window - 1])) % mod
        out[i] = h
    return out


# Mersenne-prime modular arithmetic in uint64 without overflow: with
# p = 2^61-1, 2^61 ≡ 1 (mod p), so any product decomposes into shifts
# that stay below 2^64. Residues always land in [0, p), matching the
# scalar `% mod` exactly.
_P61 = np.uint64((1 << 61) - 1)


def _fold61(x: np.ndarray) -> np.ndarray:
    return np.where(x >= _P61, x - _P61, x)


def _mul257_61(x: np.ndarray) -> np.ndarray:
    """(x * 257) mod p for x < p, via x*256 = (x>>53) + ((x&2^53-1)<<8)."""
    hi = x >> np.uint64(53)
    lo = x & np.uint64((1 << 53) - 1)
    r = _fold61((lo << np.uint64(8)) + hi)
    return _fold61(r + x)


def _byte_mulmod_61(d: np.ndarray, t1: np.uint64, t0: np.uint64) -> np.ndarray:
    """(d * top) mod p for byte-sized d, with top = t1*2^32 + t0."""
    m1 = d * t1  # < 2^37
    a = m1 >> np.uint64(29)
    b = m1 & np.uint64((1 << 29) - 1)
    r1 = _fold61((b << np.uint64(32)) + a)
    return _fold61(r1 + d * t0)


def _rolling_hashes_batch(datas: list, window: int) -> list:
    """Batch-vectorized Rabin-Karp: the position loop steps once per
    BYTE POSITION with all documents advanced simultaneously (numpy
    ops over the doc axis), instead of a Python loop per byte per doc.
    Identical output to :func:`_rolling_hashes` (same base 257 /
    mod 2^61-1 residues). ``datas`` is a list of uint8 arrays.

    Documents are bucketed by length so the padded (docs x max_len)
    matrix stays bounded (~16M cells per chunk) even when one long
    document shares a batch with many short ones.
    """
    mod = (1 << 61) - 1
    top = pow(257, window - 1, mod)
    t1 = np.uint64(top >> 32)
    t0 = np.uint64(top & 0xFFFFFFFF)
    results: list = [None] * len(datas)
    eligible = [(i, len(d)) for i, d in enumerate(datas)
                if d is not None and len(d) >= window]
    for i, d in enumerate(datas):
        if d is not None and len(d) < window:
            results[i] = np.zeros(0, dtype=np.uint64)
    eligible.sort(key=lambda x: x[1])
    pos = 0
    budget = 1 << 24
    while pos < len(eligible):
        # grow the chunk while (docs so far + 1) x the WIDEST length
        # in the extended chunk stays under the cell budget — lengths
        # are sorted ascending, so the next doc's length is the width
        end = pos + 1
        while (end < len(eligible)
               and (end - pos + 1) * eligible[end][1] <= budget):
            end += 1
        chunk = eligible[pos:end]
        pos = end
        L = chunk[-1][1]
        k = len(chunk)
        M = np.zeros((k, L), dtype=np.uint64)
        for r, (i, ln) in enumerate(chunk):
            M[r, :ln] = datas[i]
        h = np.zeros(k, dtype=np.uint64)
        for j in range(window):
            h = _fold61(_mul257_61(h) + M[:, j])
        n_out = L - window + 1
        out = np.empty((k, n_out), dtype=np.uint64)
        out[:, 0] = h
        for j in range(1, n_out):
            mm = _byte_mulmod_61(M[:, j - 1], t1, t0)
            t = _fold61(h + (_P61 - mm))
            t = _fold61(_mul257_61(t) + M[:, j + window - 1])
            h = t
            out[:, j] = h
        for r, (i, ln) in enumerate(chunk):
            results[i] = out[r, :ln - window + 1]
    return results


def fingerprint_batch(batch: pa.Table, column: str = "text",
                      window: int = 16, keep: int = 4) -> pa.Table:
    """Winnowing-style document fingerprint: the ``keep`` smallest
    rolling hashes per document, hex-joined. Deterministic; documents
    sharing fingerprints are near-duplicate candidates."""
    texts = batch[column].to_pylist()
    datas = [None if t is None else
             np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
             for t in texts]
    hashed = _rolling_hashes_batch(datas, window)
    fps = []
    for h in hashed:
        if h is None:
            fps.append(None)
        elif len(h) == 0:
            fps.append("")
        else:
            smallest = np.unique(h)[:keep]
            fps.append("-".join(format(int(x), "x") for x in smallest))
    return batch.append_column("fingerprint", pa.array(fps, pa.string()))


def fingerprints(ds, column: str = "text", window: int = 16, keep: int = 4):
    return ds.map_batches(
        lambda b: fingerprint_batch(b, column, window, keep),
        batch_format="pyarrow", zero_copy_batch=True)


def _flat_terms(batch: pa.Table, column: str):
    """One vectorized whitespace split over the whole column ->
    (terms, parent_row_indices), empty tokens dropped."""
    col = batch[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_null(col.type):
        # an all-null block (Ray type-infers it as null) has no terms
        col = col.cast(pa.string())
    toks = pc.split_pattern_regex(col, r"\s+")
    flat = pc.list_flatten(toks)
    par = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    return flat.filter(keep), \
        par.filter(keep).to_numpy(zero_copy_only=False)


def document_frequencies(ds, column: str = "text"):
    """Corpus document frequencies: one Dataset of
    (term, tf_total, df) rows plus the corpus doc count, via
    per-batch pre-aggregation (Arrow group-by on (doc, term), then
    per-term partials) ahead of ONE vocabulary-sized groupby
    shuffle. Documents never span batches, so a batch's distinct
    (doc, term) count is an exact df partial. The doc count rides
    the same shuffle as a reserved empty-string term row (an empty
    token can never be a real term — the split drops them).

    Returns the aggregated Dataset with columns
    (t, sum(tf), sum(df)); the ``t=""`` row's ``sum(df)`` is the
    count of documents with at least one token."""

    def partial(batch: pa.Table) -> pa.Table:
        flat, par = _flat_terms(batch, column)
        per_doc = pa.TableGroupBy(
            pa.table({"p": pa.array(par), "t": flat}),
            ["p", "t"]).aggregate([([], "count_all")])
        per_term = pa.TableGroupBy(
            pa.table({"t": per_doc["t"],
                      "c": per_doc["count_all"]}),
            ["t"]).aggregate([("c", "sum"), ([], "count_all")])
        n_docs = len(np.unique(par))
        return pa.table({
            "t": pa.concat_arrays([
                per_term["t"].combine_chunks(),
                pa.array([""], pa.string())]),
            "tf": pa.concat_arrays([
                per_term["c_sum"].cast(pa.int64()).combine_chunks(),
                pa.array([0], pa.int64())]),
            "df": pa.concat_arrays([
                per_term["count_all"].cast(pa.int64())
                .combine_chunks(),
                pa.array([n_docs], pa.int64())]),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("t").sum(["tf", "df"])
    return agg


def chunk_documents(ds, id_column: str = "doc_id",
                    column: str = "text", window: int = 64,
                    stride: int = 48, out: str = "chunk_text"):
    """Overlapping token context windows (the standard long-document
    split for training sequences): each document's whitespace tokens
    become chunks of ``window`` tokens starting every ``stride``
    tokens. A document with n tokens emits
    ``1 + ceil(max(n - window, 0) / stride)`` chunks, so the final
    chunk is emitted only if it adds tokens the previous one didn't
    cover (it may be shorter than ``window``); zero-token documents
    emit nothing. Returns (id, chunk_idx, n_tokens, out) rows.

    Shape: embarrassingly parallel per-batch flat expansion — the
    whole column splits in ONE regex kernel, chunk index ranges come
    from cumsum arithmetic, the ragged token gather is one ``take``,
    and chunk strings assemble with a single ``pc.binary_join`` —
    no per-document Python, no shuffle."""
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")

    def expand(batch: pa.Table) -> pa.Table:
        idt = batch[id_column].type
        empty = pa.table({
            id_column: pa.array([], idt),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            out: pa.array([], pa.string()),
        })
        if batch.num_rows == 0:
            return empty
        flat, par = _flat_terms(batch, column)
        n_tok = np.bincount(par, minlength=batch.num_rows) \
            .astype(np.int64)
        n_chunks = np.where(
            n_tok > 0,
            1 + (np.maximum(n_tok - window, 0) + stride - 1) // stride,
            0)
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        cum_chunks = np.concatenate([[0], np.cumsum(n_chunks)])
        doc_rep = np.repeat(np.arange(batch.num_rows), n_chunks)
        chunk_idx = np.arange(total) - cum_chunks[doc_rep]
        chunk_start = chunk_idx * stride
        chunk_len = np.minimum(window, n_tok[doc_rep] - chunk_start)
        # ragged gather of every chunk's tokens out of the flat split
        tok_base = np.concatenate([[0], np.cumsum(n_tok)])
        offs = np.concatenate([[0], np.cumsum(chunk_len)])
        rep = np.repeat(np.arange(total), chunk_len)
        within = np.arange(offs[-1]) - np.repeat(offs[:-1], chunk_len)
        take = tok_base[doc_rep[rep]] + chunk_start[rep] + within
        tokens = flat.take(pa.array(take, pa.int64()))
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        lists = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()), tokens)
        return pa.table({
            id_column: batch[id_column].take(
                pa.array(doc_rep, pa.int64())),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(chunk_len, pa.int64()),
            out: pc.binary_join(lists, " "),
        })

    return ds.map_batches(expand, batch_format="pyarrow",
                          zero_copy_batch=True)


def vocabulary(ds, column: str = "text", min_count: int = 1,
               top_k: int = 1000) -> pa.Table:
    """Corpus vocabulary: the ``top_k`` whitespace terms by total
    term frequency (ties broken by term asc), with document
    frequency and a dense 1-based rank. ``min_count`` drops the
    long tail before ranking. Returns a driver-side table — the
    result is top-k-sized by construction.

    Shape: rides :func:`document_frequencies`' single
    vocabulary-sized shuffle, then a mergeable per-block partial
    top-k (``relational.top_k``) — the full vocabulary never lands
    on the driver."""
    from .relational import top_k as _top_k

    def clean(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "term": batch["t"],
            "tf": pc.cast(batch["sum(tf)"], pa.int64()),
            "df": pc.cast(batch["sum(df)"], pa.int64()),
        })
        mask = pc.and_(pc.not_equal(t["term"], ""),
                       pc.greater_equal(t["tf"], min_count))
        return t.filter(mask)

    agg = document_frequencies(ds, column).map_batches(
        clean, batch_format="pyarrow", zero_copy_batch=True)
    best = _top_k(agg, ["tf", "term"], descending=[True, False],
                  k=top_k)
    return best.append_column(
        "rank", pa.array(np.arange(1, best.num_rows + 1), pa.int64()))


def tfidf_top_terms(ds, id_column: str = "doc_id",
                    column: str = "text", top_n: int = 3,
                    min_df: int = 1) -> pa.Table:
    """Top-n TF-IDF terms per document: the classic two-pass corpus
    shape — a distributed document-frequency aggregate
    (:func:`document_frequencies`), the vocabulary broadcast ONCE
    through the object store as sorted term-hash + df arrays, then a
    second stateless scan scores every (doc, term) with
    ``tf * ln(n_docs / df)`` and keeps each doc's ``top_n`` by
    (score desc, term asc). Scores ship as ``floor(x*1e6+0.5)``
    BIGINT so ranking and value-hash compares are float-safe.

    Scale: the broadcast is vocabulary-sized (Heaps' law: sublinear
    in corpus size; ``min_df`` prunes the long tail when it still
    outgrows worker heaps). Term lookup uses 64-bit splitmix hashes
    (collision odds ~V^2/2^64 merge two df counts; the term strings
    themselves only ever meet in the exact groupby). Returns a
    DATASET of (id, term, tf, score_e6) — per-document output
    streams; only the vocabulary ever lands on the driver."""
    import ray

    from ..state.sketches import hash_strings

    vocab_parts = []
    for b in document_frequencies(ds, column) \
            .iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            vocab_parts.append(t)
    empty = pa.table({id_column: pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64()),
                      "score_e6": pa.array([], pa.int64())})
    if not vocab_parts:
        return ray.data.from_arrow(empty)
    vocab = pa.concat_tables(vocab_parts, promote_options="default")
    is_doc_row = pc.equal(vocab["t"], "")
    n_docs = pc.sum(pc.if_else(is_doc_row, vocab["sum(df)"], 0)) \
        .as_py() or 0
    vocab = vocab.filter(pc.invert(is_doc_row))
    if min_df > 1:
        vocab = vocab.filter(
            pc.greater_equal(vocab["sum(df)"], min_df))
    if n_docs == 0 or vocab.num_rows == 0:
        import ray as _r
        return _r.data.from_arrow(empty)
    h = hash_strings(vocab["t"].combine_chunks())
    order = np.argsort(h)
    handle = ray.put((h[order],
                      vocab["sum(df)"].to_numpy(zero_copy_only=False)
                      [order].astype(np.float64),
                      float(n_docs)))

    def score(batch: pa.Table) -> pa.Table:
        hashes, dfs, n = ray.get(handle)
        flat, par = _flat_terms(batch, column)
        ids = batch[id_column]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        per_doc = pa.TableGroupBy(
            pa.table({"p": pa.array(par), "t": flat}),
            ["p", "t"]).aggregate([([], "count_all")])
        th = hash_strings(per_doc["t"].combine_chunks())
        pos = np.searchsorted(hashes, th)
        pos = np.minimum(pos, max(len(hashes) - 1, 0))
        found = hashes[pos] == th if len(hashes) else \
            np.zeros(len(th), bool)
        tfv = per_doc["count_all"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sc = np.where(found,
                      tfv * np.log(n / np.maximum(dfs[pos], 1.0))
                      * 1e6, np.nan)
        keep = found
        t = pa.table({
            "p": per_doc["p"],
            "term": per_doc["t"],
            "tf": pa.array(tfv, pa.int64()),
            "score_e6": pa.array(
                np.floor(sc + 0.5, where=keep,
                         out=np.zeros_like(sc))
                .astype(np.int64), pa.int64()),
        }).filter(pa.array(keep))
        t = t.sort_by([("p", "ascending"), ("score_e6", "descending"),
                       ("term", "ascending")])
        pnp = t["p"].to_numpy(zero_copy_only=False)
        if len(pnp) == 0:
            return empty
        starts = np.flatnonzero(
            np.concatenate(([True], pnp[1:] != pnp[:-1])))
        ranks = np.arange(len(pnp)) - np.repeat(
            starts, np.diff(np.concatenate((starts, [len(pnp)]))))
        t = t.filter(pa.array(ranks < top_n))
        return pa.table({
            id_column: ids.take(t["p"]),
            "term": t["term"],
            "tf": t["tf"],
            "score_e6": t["score_e6"],
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def normalize_text_batch(batch: pa.Table, column: str = "text",
                         out: str = "norm_text") -> pa.Table:
    """Canonical dedup key for a text column, all Arrow kernels:
    collapse runs of (unicode) whitespace to one space, trim, unicode
    lowercase, NFC-normalize. Byte-equal to DuckDB's
    ``nfc_normalize(lower(trim(regexp_replace(t, '\\s+', ' ',
    'g'))))`` (both sides run RE2 and ICU-style casing), which is
    what makes normalized-key dedup oracle-checkable."""
    x = pc.replace_substring_regex(batch[column], r"\s+", " ")
    # trim SPACES only (pc.utf8_trim, not utf8_trim_whitespace):
    # DuckDB's trim() removes only ' ', and RE2 \s above never
    # matches \x0b / unicode spaces — trimming those here would
    # silently diverge from the oracle expression
    x = pc.utf8_trim(x, " ")
    x = pc.utf8_lower(x)
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    # NFC via polars: this pyarrow's utf8_normalize emits decomposed
    # output for every requested form (composition is broken), while
    # the polars kernel matches DuckDB's nfc_normalize byte-for-byte
    try:
        import polars as pl

        x = pl.from_arrow(x).str.normalize("NFC").to_arrow()
        if x.type != pa.string():
            x = pc.cast(x, pa.string())
    except ImportError:  # pragma: no cover
        import unicodedata

        x = pa.array([None if v is None
                      else unicodedata.normalize("NFC", v)
                      for v in x.to_pylist()], pa.string())
    return batch.append_column(out, x)


def normalize_text(ds, column: str = "text", out: str = "norm_text"):
    """Per-batch vectorized normalization stage (see
    :func:`normalize_text_batch`). Zero-shuffle; compose with
    ``engine.dedup.exact_dedup`` on ``out`` for
    normalization-insensitive dedup."""
    return ds.map_batches(
        lambda b: normalize_text_batch(b, column, out),
        batch_format="pyarrow", zero_copy_batch=True)


def bigram_counts(ds, column: str = "text"):
    """Corpus bigram counts: one Dataset of (w1, w2, sum(c)) rows.

    Bigrams are adjacent whitespace tokens WITHIN a document (a
    document is one row, so adjacency never crosses batch or block
    boundaries). Per-batch Arrow group-bys pre-aggregate ahead of ONE
    model-sized shuffle — the same combiner-before-groupby shape as
    :func:`document_frequencies`."""

    empty = pa.table({"w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "c": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        flat, par = _flat_terms(batch, column)
        if len(par) < 2:
            return empty
        idx = np.flatnonzero(par[1:] == par[:-1])
        if len(idx) == 0:
            return empty
        agg = pa.TableGroupBy(
            pa.table({"w1": flat.take(pa.array(idx, pa.int64())),
                      "w2": flat.take(pa.array(idx + 1, pa.int64()))}),
            ["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": agg["w1"], "w2": agg["w2"],
                         "c": agg["count_all"].cast(pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby(["w1", "w2"]).sum("c")


_GOLD64 = np.uint64(0x9E3779B97F4A7C15)


def _pair_hashes(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit combine of two token-hash arrays (the
    left hash is pre-multiplied so (a,b) != (b,a)); collision odds
    are the usual pairs^2/2^64 — the exact strings only ever meet in
    the model group-by, never in the scoring lookup."""
    from ..state.sketches import hash_ints

    with np.errstate(over="ignore"):
        return hash_ints(h1 * _GOLD64 + h2)


def bigram_lm_scores(ds, id_column: str = "doc_id",
                     column: str = "text", alpha: float = 1.0,
                     min_count: int = 1):
    """Add-alpha bigram language-model scoring — the classic
    two-pass corpus-quality shape (CCNet-style: train an n-gram LM
    on the corpus, score every document with it).

    Pass 1 trains the model: :func:`bigram_counts`' single shuffle
    yields (w1, w2, c); context counts ``c(w1.) = sum_w2 c(w1,w2)``
    and the vocabulary size ``V = |{tokens seen in any bigram}|``
    derive from it. Per-pair log-probs
    ``ln((c + alpha) / (c(w1.) + alpha*V))`` are fixed-pointed to
    ``floor(x*1e6 + 0.5)`` BIGINT **driver-side with math.log**
    (bitwise-identical to DuckDB's libm ``ln``, unlike numpy's
    vectorized log which drifts up to 2 ulps), so the distributed
    per-document sum is an exact integer sum — order-free and
    oracle-safe.

    Pass 2 broadcasts the model ONCE through the object store as
    sorted pair-hash + log-prob arrays (model-sized; Heaps-law
    sublinear in corpus size, prunable with ``min_count`` — pruned
    or genuinely unseen pairs fall back to the alpha-smoothed
    unseen-pair mass for their context) and scores every document in
    a stateless integer-only scan: one hash + searchsorted lookup
    per bigram, one bincount per batch.

    Returns a Dataset of (id, n_bigrams, logprob_e6); documents with
    fewer than two tokens emit nothing."""
    import math

    import ray

    from ..state.sketches import hash_string_array

    parts = []
    for b in bigram_counts(ds, column).iter_batches(
            batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            parts.append(t)
    model = pa.concat_tables(parts, promote_options="default") if parts \
        else pa.table({"w1": pa.array([], pa.string()),
                       "w2": pa.array([], pa.string()),
                       "sum(c)": pa.array([], pa.int64())})

    # context counts and V come from the UNPRUNED model (min_count
    # bounds the broadcast, not the smoothing denominators)
    ctx = pa.TableGroupBy(model, ["w1"]).aggregate([("sum(c)", "sum")])
    vocab = pc.unique(pa.concat_arrays(
        [model["w1"].combine_chunks(), model["w2"].combine_chunks()]))
    n_vocab = len(vocab)

    if min_count > 1:
        model = model.filter(
            pc.greater_equal(model["sum(c)"], min_count))

    ctx_h = hash_string_array(ctx["w1"])
    ctx_c = ctx["sum(c)_sum"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    denom = ctx_c + alpha * n_vocab
    # driver-side math.log: model-sized, and the ONLY float step
    w1_lp = np.array(
        [math.floor(math.log(alpha / d) * 1e6 + 0.5) for d in denom],
        dtype=np.int64) if len(denom) else np.empty(0, np.int64)
    order = np.argsort(ctx_h)
    ctx_h, w1_lp = ctx_h[order], w1_lp[order]
    ctx_denom = denom[order]

    mh1 = hash_string_array(model["w1"])
    ph = _pair_hashes(mh1, hash_string_array(model["w2"]))
    cnt = model["sum(c)"].to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    pos = np.searchsorted(ctx_h, mh1)
    pos = np.minimum(pos, max(len(ctx_h) - 1, 0)) \
        if len(ctx_h) else pos
    pd = ctx_denom[pos] if len(ctx_h) else np.empty(0, np.float64)
    ratio = (cnt + alpha) / pd if len(pd) else np.empty(0, np.float64)
    pair_lp = np.array(
        [math.floor(math.log(r) * 1e6 + 0.5) for r in ratio],
        dtype=np.int64) if len(ratio) else np.empty(0, np.int64)
    order = np.argsort(ph)
    ph, pair_lp = ph[order], pair_lp[order]

    default_lp = np.int64(
        math.floor(math.log(1.0 / n_vocab) * 1e6 + 0.5)) \
        if n_vocab else np.int64(0)
    handle = ray.put((ph, pair_lp, ctx_h, w1_lp, default_lp))

    def score(batch: pa.Table) -> pa.Table:
        idt = batch[id_column].type
        empty = pa.table({
            id_column: pa.array([], idt),
            "n_bigrams": pa.array([], pa.int64()),
            "logprob_e6": pa.array([], pa.int64()),
        })
        flat, par = _flat_terms(batch, column)
        if len(par) < 2:
            return empty
        idx = np.flatnonzero(par[1:] == par[:-1])
        if len(idx) == 0:
            return empty
        phs, plp, chs, wlp, dlp = ray.get(handle)
        doc = par[idx]
        h1 = hash_string_array(flat.take(pa.array(idx, pa.int64())))
        h2 = hash_string_array(flat.take(pa.array(idx + 1, pa.int64())))
        bh = _pair_hashes(h1, h2)
        if len(phs):
            p = np.minimum(np.searchsorted(phs, bh), len(phs) - 1)
            found = phs[p] == bh
            lp = np.where(found, plp[p], 0)
        else:
            found = np.zeros(len(bh), bool)
            lp = np.zeros(len(bh), np.int64)
        miss = ~found
        if miss.any():
            if len(chs):
                p1 = np.minimum(np.searchsorted(chs, h1[miss]),
                                len(chs) - 1)
                f1 = chs[p1] == h1[miss]
                lp[np.flatnonzero(miss)] = np.where(f1, wlp[p1], dlp)
            else:
                lp[miss] = dlp
        sums = np.bincount(doc, weights=lp.astype(np.float64),
                           minlength=batch.num_rows).astype(np.int64)
        nbig = np.bincount(doc, minlength=batch.num_rows)
        rows = np.flatnonzero(nbig > 0)
        return pa.table({
            id_column: batch[id_column].take(
                pa.array(rows, pa.int64())),
            "n_bigrams": pa.array(nbig[rows], pa.int64()),
            "logprob_e6": pa.array(sums[rows], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def lm_quality_buckets(ds, id_column: str = "doc_id",
                       column: str = "text", k: int = 3,
                       alpha: float = 1.0, min_count: int = 1,
                       approx: bool = False):
    """CCNet-style corpus partitioning: score every document with
    the corpus-trained bigram LM (:func:`bigram_lm_scores`), order
    by per-bigram average log-prob ascending (worst-modeled docs
    first) with the doc id as tiebreak, and split into ``k`` equal
    NTILE buckets — the head/middle/tail split CCNet uses to select
    training data by LM quality.

    The ordering key is the exact double division
    ``logprob_e6 / n_bigrams`` of two integers, so any SQL engine
    orders identically (IEEE division, ties broken by id). NTILE
    semantics are ANSI (first ``n % k`` buckets one row larger) via
    :func:`rank.grouped_ntile` over ONE constant partition key —
    one global doc-sized sort and one carry scan, exact like SQL.

    ``approx=True`` is the sort-free 10^12-doc path: ONE mergeable
    t-digest pass (:func:`stats.grouped_approx_quantiles`) yields
    the k-1 score thresholds, which broadcast into a stateless
    bucket-assignment scan — no all-to-all over the scored docs at
    all, at the cost of approximate bucket edges (sizes drift by
    the digest error; ties at a threshold all land on one side).

    Returns a driver-side table
    (bucket, n_docs, n_bigrams_total) — k rows (approx: <= k)."""
    from .rank import grouped_ntile
    from .relational import grouped_aggregate

    scores = bigram_lm_scores(ds, id_column, column, alpha,
                              min_count)

    def add_order(batch: pa.Table) -> pa.Table:
        avg = pc.divide(pc.cast(batch["logprob_e6"], pa.float64()),
                        pc.cast(batch["n_bigrams"], pa.float64()))
        return batch \
            .append_column("__avg", avg) \
            .append_column("__g", pa.array(
                np.zeros(batch.num_rows, np.int64)))

    if approx:
        from .stats import grouped_approx_quantiles

        scored = scores.map_batches(add_order,
                                    batch_format="pyarrow",
                                    zero_copy_batch=True) \
            .materialize()  # two consumers: digest pass + assign
        qs = [i / k for i in range(1, k)]
        th = sorted(
            r["value"] for r in
            grouped_approx_quantiles(scored, "__g", "__avg",
                                     qs).take_all())
        thr = np.asarray(th, np.float64)

        def assign(batch: pa.Table) -> pa.Table:
            avg = batch["__avg"].to_numpy(zero_copy_only=False)
            b = np.searchsorted(thr, avg, side="left") + 1
            return batch.append_column(
                "bucket", pa.array(b.astype(np.int64)))

        tiled = scored.map_batches(assign, batch_format="pyarrow",
                                   zero_copy_batch=True)
    else:
        tiled = grouped_ntile(
            scores.map_batches(add_order, batch_format="pyarrow",
                               zero_copy_batch=True),
            "__g", "__avg", id_column, k, out="bucket")
    # k-row result: per-block partials + one driver-side vectorized
    # merge beat a Ray Aggregate all-to-all (its fixed cost dominates
    # at bucket-count cardinality — the shared_fingerprint_pairs
    # precedent)
    def bucket_partial(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["bucket", "n_bigrams"]),
                            "bucket") \
            .aggregate([([], "count_all"), ("n_bigrams", "sum")])
        return pa.table({
            "bucket": g["bucket"].cast(pa.int64()),
            "n": g["count_all"].cast(pa.int64()),
            "b": g["n_bigrams_sum"].cast(pa.int64())})

    parts = [pa.Table.from_batches([t]) if isinstance(t, pa.RecordBatch)
             else t
             for t in tiled.map_batches(bucket_partial,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_bigrams_total": pa.array([], pa.int64())})
    m = pa.TableGroupBy(
        pa.concat_tables(parts, promote_options="default"),
        "bucket").aggregate([("n", "sum"), ("b", "sum")])
    return pa.table({
        "bucket": m["bucket"],
        "n_docs": m["n_sum"].cast(pa.int64()),
        "n_bigrams_total": m["b_sum"].cast(pa.int64())}) \
        .sort_by([("bucket", "ascending")])


def top_terms_per_group(ds, group_col: str = "lang",
                        column: str = "text", k: int = 5):
    """Top-k whitespace terms per group value (per-language
    vocabulary — the grouped heavy-hitters shape). A per-batch
    (group, term) Arrow pre-aggregation bounds what the single
    vocabulary-sized null-safe shuffle moves; the grouped top-k then
    reduces mergeable per-block partials (:func:`rank.grouped_top_k`),
    so nothing downstream of the combiner is input-sized. NULL group
    values form their own group (SQL PARTITION BY); ties break by
    term ascending. Returns (group_col, term, cnt, rn<=k)."""
    from ray.data.aggregate import Sum

    from .rank import grouped_top_k
    from .relational import null_safe_grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        flat, par = _flat_terms(batch, column)
        g = batch[group_col].take(pa.array(par, pa.int64()))
        agg = pa.TableGroupBy(
            pa.table({group_col: g, "term": flat}),
            [group_col, "term"]).aggregate([([], "count_all")])
        return pa.table({group_col: agg[group_col],
                         "term": agg["term"],
                         "cnt": agg["count_all"].cast(pa.int64())})

    counts = null_safe_grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        [group_col, "term"], [Sum("cnt", alias_name="cnt")], ["cnt"])
    return grouped_top_k(counts, [group_col], "cnt", k,
                         descending=True, tiebreak="term")


_DOMAIN_REGEX = r"^https?://(?P<h>[^/:?#\s]+)"


def url_domain_counts(ds, column: str = "text"):
    """Per-domain URL statistics over the corpus — the canonical
    web-pipeline rollup (C4/RefinedWeb-style per-host accounting
    that feeds domain blocklists and per-domain caps): how many URL
    mentions and how many distinct documents reference each host.

    Extraction contract: a URL is a maximal whitespace-free run
    starting at ``http(s)://`` — exactly DuckDB/RE2
    ``regexp_extract_all(text, 'https?://[^\\s]+')``. The two agree
    because a match cannot span whitespace and the greedy tail
    consumes the rest of its token, so splitting on whitespace and
    taking each token's FIRST embedded match finds the same set
    (one vectorized RE2 pass, no Python per row). The host is the
    authority up to the first ``/ : ? #``, lowercased; a malformed
    authority (``http:///x``) yields the empty-string host exactly
    like SQL ``regexp_extract``'s no-match ``''``.

    Shape: per-block combiner (split -> first-match extract -> one
    Arrow (doc, host) group-by, so the distinct-doc partial is exact
    — documents never span blocks) then ONE host-sized groupby sum.
    Returns a Dataset (domain, n_urls, n_docs)."""

    def partial(batch: pa.Table) -> pa.Table:
        flat, par = _flat_terms(batch, column)
        empty = pa.table({"domain": pa.array([], pa.string()),
                          "n_urls": pa.array([], pa.int64()),
                          "n_docs": pa.array([], pa.int64())})
        if len(flat) == 0:
            return empty
        url = pc.struct_field(
            pc.extract_regex(flat, pattern=r"(?P<u>https?://[^\s]+)"),
            "u")
        hit = pc.is_valid(url).to_numpy(zero_copy_only=False)
        if not hit.any():
            return empty
        url = url.filter(pa.array(hit))
        host = pc.fill_null(
            pc.utf8_lower(pc.struct_field(
                pc.extract_regex(url, pattern=_DOMAIN_REGEX), "h")),
            "")
        per_doc = pa.TableGroupBy(
            pa.table({"p": pa.array(par[hit], pa.int64()),
                      "domain": host}),
            ["p", "domain"]).aggregate([([], "count_all")])
        per_host = pa.TableGroupBy(
            pa.table({"domain": per_doc["domain"],
                      "c": per_doc["count_all"]}),
            ["domain"]).aggregate([("c", "sum"), ([], "count_all")])
        return pa.table({
            "domain": per_host["domain"],
            "n_urls": per_host["c_sum"].cast(pa.int64()),
            "n_docs": per_host["count_all"].cast(pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
        .groupby("domain").sum(["n_urls", "n_docs"])

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "domain": batch["domain"],
            "n_urls": batch["sum(n_urls)"].cast(pa.int64()),
            "n_docs": batch["sum(n_docs)"].cast(pa.int64())})

    return agg.map_batches(rename, batch_format="pyarrow",
                           zero_copy_batch=True)


def shared_fingerprint_pairs(ds, id_column: str = "doc_id",
                             column: str = "text", window: int = 16,
                             keep: int = 4, max_bucket=None):
    """Cross-document repeated-span candidates — substring-level
    duplicate detection at candidate granularity (the winnowing
    analogue of exact-substring training-data dedup): two documents
    pair when they share any of their ``keep`` smallest ``window``-
    byte Rabin-Karp hashes, i.e. when (with high probability) they
    contain a common byte span. Returns (id_a, id_b, n_shared) with
    ``id_a < id_b`` and ``n_shared`` = how many of the min-hash spans
    collide — exact duplicates share all ``keep``.

    Scale shape: the fingerprint scan (doc-parallel batched
    Rabin-Karp, :func:`_rolling_hashes_batch`) emits at most ``keep``
    (hash, id) rows per doc; pairing reuses the LSH bucket machinery
    (ONE range-partitioned sort on the hash + vectorized interior
    upper-triangle expansion + in-pipeline edge stitch,
    :func:`dedup._bucket_candidate_pairs`); shared-span counts come
    from per-block partial (id_a, id_b) counts merged ONCE on the
    driver — the result (and therefore the merge) is bounded by the
    distinct candidate-pair count, which this operator returns as a
    driver table anyway, and skipping the Aggregate all-to-all
    removes its multi-second fixed cost (the whole operator is TWO
    Ray executions: the materialize inside the pair machinery and
    the counting consume). Nothing doc-sized shuffles twice; hot
    spans (boilerplate shared by m docs) cost their true O(m^2)
    pairs inside one worker — cap with ``max_bucket`` (surfaced,
    never silent) on boilerplate-heavy corpora."""
    from .dedup import _bucket_candidate_pairs

    def fp_rows(batch: pa.Table) -> pa.Table:
        texts = batch[column].to_pylist()
        ids = batch[id_column].combine_chunks() \
            .to_numpy(zero_copy_only=False)
        datas = [None if t is None else
                 np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
                 for t in texts]
        hashed = _rolling_hashes_batch(datas, window)
        out_h, out_id = [], []
        for i, h in enumerate(hashed):
            if h is None or len(h) == 0:
                continue
            sm = np.unique(h)[:keep]
            out_h.append(sm.astype(np.int64))  # < 2^61-1: sign-safe
            out_id.append(np.full(len(sm), ids[i], dtype=np.int64))
        if not out_h:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_column: pa.array([], pa.int64())})
        return pa.table({
            "bucket": pa.array(np.concatenate(out_h)),
            id_column: pa.array(np.concatenate(out_id))})

    rows = ds.map_batches(fp_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = _bucket_candidate_pairs(rows, id_column, max_bucket,
                                    distinct=False)

    def pair_counts(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["id_a", "id_b"]),
                            ["id_a", "id_b"]) \
            .aggregate([([], "count_all")])
        return pa.table({"id_a": g["id_a"], "id_b": g["id_b"],
                         "n": g["count_all"].cast(pa.int64())})

    parts = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
             else b
             for b in pairs.map_batches(pair_counts,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "n_shared": pa.array([], pa.int64())})
    merged = pa.TableGroupBy(
        pa.concat_tables(parts, promote_options="default"),
        ["id_a", "id_b"]).aggregate([("n", "sum")])
    return pa.table({"id_a": merged["id_a"], "id_b": merged["id_b"],
                     "n_shared": merged["n_sum"].cast(pa.int64())})


def drop_repeated_lines(ds, id_column: str = "doc_id",
                        text_column: str = "text",
                        max_docs: int = 5,
                        out: str = "text_clean"):
    """RefinedWeb/Falcon-style LINE-wise dedup across the corpus: a
    newline-separated line occurring in MORE than ``max_docs``
    distinct documents is boilerplate (cookie banners, nav bars,
    footers) and is dropped from every document; surviving lines
    rejoin in their original order.

    Shape: pass 1 splits per batch (one RE2-free ``split_pattern``)
    and emits per-block DISTINCT (line_hash, doc) pairs; the global
    distinct-doc count per line hash rides
    :func:`~json_schema_ray.engine.relational.grouped_distinct_count`
    (ONE hash-keyed groupby); the frequent-line hashes broadcast —
    bounded by lines that cross the threshold, i.e. corpus-frequent
    boilerplate, sparse by construction. Pass 2 re-splits, drops
    member lines by a sorted-array ``np.searchsorted`` probe, and
    reassembles each doc vectorized (ListArray offsets +
    ``pc.binary_join``). Membership is by 64-bit line hash (a
    collision could drop an innocent line; at < 2^32 distinct
    boilerplate lines the probability is negligible). NULL texts
    pass through NULL; a doc whose every line drops becomes ``""``.
    Returns (id, out) rows."""
    import ray

    from ..state.sketches import hash_string_array
    from .relational import grouped_distinct_count

    def explode(batch: pa.Table) -> pa.Table:
        col = batch[text_column].combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        lines = pc.split_pattern(pc.fill_null(col, ""), pattern="\n")
        flat = pc.list_flatten(lines)
        par = pc.list_parent_indices(lines) \
            .to_numpy(zero_copy_only=False)
        keep = valid[par]
        h = hash_string_array(flat)[keep]
        docs = batch[id_column].combine_chunks() \
            .take(pa.array(par[keep], pa.int64()))
        g = pa.TableGroupBy(
            pa.table({"h": pa.array(h.astype(np.int64)),
                      "d": docs}),
            ["h", "d"]).aggregate([])
        return g

    pairs = ds.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True)
    freq = grouped_distinct_count(pairs, "h", "d")

    def over(batch: pa.Table) -> pa.Table:
        m = pc.greater(batch["n_distinct"],
                       pa.scalar(int(max_docs)))
        return pa.table({"h": batch["h"].filter(m)})

    drop_chunks = []
    for b in freq.map_batches(over, batch_format="pyarrow",
                              zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            drop_chunks.append(
                b["h"].to_numpy(zero_copy_only=False))
    drop = np.sort(np.concatenate(drop_chunks).astype(np.int64)) \
        if drop_chunks else np.zeros(0, np.int64)
    handle = ray.put(drop)

    def rebuild(batch: pa.Table) -> pa.Table:
        d = ray.get(handle)
        col = batch[text_column].combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        lines = pc.split_pattern(pc.fill_null(col, ""), pattern="\n")
        flat = pc.list_flatten(lines)
        par = pc.list_parent_indices(lines) \
            .to_numpy(zero_copy_only=False)
        h = hash_string_array(flat).astype(np.int64)
        if len(d):
            pos = np.searchsorted(d, h)
            pos[pos == len(d)] = 0
            member = d[pos] == h
        else:
            member = np.zeros(len(h), bool)
        keep = ~member
        n = batch.num_rows
        cnt = np.bincount(par[keep], minlength=n)
        offsets = np.concatenate(
            [[0], np.cumsum(cnt)]).astype(np.int32)
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            flat.filter(pa.array(keep)))
        joined = pc.binary_join(kept_list, "\n")
        cleaned = pc.if_else(pa.array(valid), joined,
                             pa.scalar(None, pa.string()))
        return pa.table({id_column: batch[id_column],
                         out: cleaned})

    return ds.map_batches(rebuild, batch_format="pyarrow",
                          zero_copy_batch=True)


def keyword_search(ds, terms, column: str = "text",
                   mode: str = "all"):
    """Boolean keyword search: keep the rows whose whitespace-token
    set contains ALL (``mode="all"``) or ANY (``mode="any"``) of the
    query ``terms`` (exact token equality — the same
    ``regexp_split_to_array(text, '\\s+')`` contract every text
    oracle in this repo rides).

    Scale shape: pure row-local filter — ONE ``map_batches`` scan,
    no shuffle, nothing broadcast (the query is request-sized).
    Per batch the tokens flatten once (`_flat_terms`), each matched
    token maps to its query-term index via ``pc.index_in``, and a
    per-row uint64 bitmask accumulates which terms were seen
    (``np.bitwise_or.at``) — so duplicate occurrences can't
    double-count and AND is one integer compare. NULL text never
    matches (SQL ``list_contains(NULL, t)`` is NULL -> filtered).

    Up to 64 terms (one bitmask word); raise beyond that rather than
    silently truncating.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("keyword_search: empty term list")
    if len(set(terms)) != len(terms):
        raise ValueError("keyword_search: duplicate terms")
    if len(terms) > 64:
        raise ValueError("keyword_search: more than 64 terms")
    if mode not in ("all", "any"):
        raise ValueError(f"keyword_search: bad mode {mode!r}")
    term_arr = pa.array(terms, pa.string())
    # python-int first: np.uint64(1) << 64 is shift-by-width UB
    want = np.uint64((1 << len(terms)) - 1)

    def probe(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        flat, par = _flat_terms(batch, column)
        idx = pc.index_in(flat, value_set=term_arr)
        hit = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        mask = np.zeros(n, np.uint64)
        if hit.any():
            ti = idx.to_numpy(zero_copy_only=False)[hit] \
                .astype(np.uint64)
            np.bitwise_or.at(mask, par[hit],
                             np.uint64(1) << ti)
        keep = (mask == want) if mode == "all" else (mask != 0)
        return batch.filter(pa.array(keep))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def lexical_diversity(ds, id_column: str = "doc_id",
                      text_column: str = "text"):
    """Per-document type-token ratio (TTR) — the lexical-diversity
    quality signal (template/spam text scores low): word count,
    DISTINCT word count and ``distinct * 1e6 // words`` as exact
    integers. Words are the house whitespace split with empty tokens
    dropped (:func:`_flat_terms`); distinctness is by 64-bit word
    hash sorted per document (one ``np.lexsort`` per block, no
    per-doc Python), collision odds negligible at document word
    counts. NULL/empty texts yield (0, 0, NULL). One scan, no
    shuffle — documents never span batches."""
    from ..state.sketches import hash_string_array

    def per_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, par = _flat_terms(batch, text_column)
        words = np.bincount(par, minlength=n).astype(np.int64)
        if len(par):
            h = hash_string_array(flat).view(np.int64)
            order = np.lexsort((h, par))
            ps, hs = par[order], h[order]
            first = np.concatenate(
                [[True], (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])])
            distinct = np.bincount(
                ps[first], minlength=n).astype(np.int64)
        else:
            distinct = np.zeros(n, np.int64)
        ttr = distinct * 1_000_000 // np.maximum(words, 1)
        return pa.table({
            id_column: batch[id_column],
            "n_words": pa.array(words),
            "n_distinct_words": pa.array(distinct),
            "ttr_e6": pc.if_else(pa.array(words > 0),
                                 pa.array(ttr, pa.int64()),
                                 pa.scalar(None, pa.int64()))})

    return ds.map_batches(per_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def _ed1_verify(a_terms: np.ndarray, b_terms: np.ndarray) -> np.ndarray:
    """Vectorized ``levenshtein(a, b) == 1`` over candidate pairs.

    Both arrays pack into one fixed-width UTF-32 codepoint matrix
    (NUL-padded), so the whole candidate set is verified with a
    handful of numpy kernels — no per-pair Python:

    - equal length: distance 1 iff exactly one mismatching position;
    - length difference 1: distance 1 iff deleting the longer
      string's FIRST mismatching codepoint yields the shorter one
      (checked with a row-wise gather, not a per-row slice);
    - any other length gap: distance > 1 by definition.
    """
    n = len(a_terms)
    if n == 0:
        return np.zeros(0, bool)
    la = np.fromiter((len(t) for t in a_terms), np.int64, n)
    lb = np.fromiter((len(t) for t in b_terms), np.int64, n)
    w = int(max(la.max(), lb.max(), 2))
    A = np.zeros((n, w), np.uint32)
    B = np.zeros((n, w), np.uint32)
    A[:] = np.array(a_terms, dtype=f"U{w}")[:, None].view(np.uint32) \
        .reshape(n, w)
    B[:] = np.array(b_terms, dtype=f"U{w}")[:, None].view(np.uint32) \
        .reshape(n, w)
    diff = A != B
    out = np.zeros(n, bool)
    same = la == lb
    out[same] = diff.sum(axis=1)[same] == 1
    gap1 = np.abs(la - lb) == 1
    if gap1.any():
        a_long = (la >= lb)[:, None]
        XL = np.where(a_long, A, B)
        XS = np.where(a_long, B, A)
        first = np.argmax(XL != XS, axis=1)
        cols = np.arange(w - 1)[None, :]
        idx = cols + (cols >= first[:, None])
        deleted = np.take_along_axis(XL, idx, axis=1)
        ok = (deleted == XS[:, : w - 1]).all(axis=1)
        out[gap1] = ok[gap1]
    return out


def vocab_edit1_pairs(ds, column: str = "text", min_len: int = 3,
                      min_count: int = 1, top_k: int = 2000,
                      blocks: Optional[int] = None):
    """All term pairs within edit distance 1 of each other in the
    corpus vocabulary — FULL Levenshtein-1 recall (substitutions,
    insertions AND deletions), via FastSS deletion neighborhoods
    (Bocek et al. 2007): ``ed(a, b) <= 1`` implies ``a`` and ``b``
    share a member of ``{t} ∪ {t minus one codepoint}``, so bucketing
    every term by each of its ``len(t) + 1`` neighborhood keys and
    pairing within buckets is a complete candidate generator. This
    complements :func:`..dedup.blocked_hamming_pairs`, whose
    equal-(length, prefix) blocking cannot see insert/delete typos or
    edits inside the blocking prefix.

    Shape: the vocabulary reduces through
    :func:`document_frequencies`' single vocabulary-sized shuffle,
    keeps the ``top_k`` terms of length >= ``min_len`` (ties by term
    asc — a bounded, model-sized table by construction); variants
    explode to ~``top_k * avg_len`` (bucket_hash, term_rank) rows and
    candidate pairing runs through the one-sort + interior-segment +
    edge-stitch machinery (:func:`..dedup._bucket_candidate_pairs`)
    — never an all-pairs square. The verify is one vectorized
    :func:`_ed1_verify` pass over candidates against the broadcast
    rank->term array. Bucket keys are 64-bit hashes, so a hash
    collision could only ever ADD a candidate; the exact verify
    removes it (no false positives, no false negatives).

    Returns a driver-side table (term_a, term_b, tf_a, tf_b) sorted
    by (term_a, term_b), term_a < term_b codepoint-wise; pair count
    is output-sized (bounded by top_k^2 but near-linear in practice).
    """
    import ray

    from ..state.sketches import hash_strings
    from .dedup import _bucket_candidate_pairs
    from .relational import top_k as _top_k

    def clean(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "term": batch["t"],
            "tf": pc.cast(batch["sum(tf)"], pa.int64()),
        })
        mask = pc.and_(
            pc.greater_equal(pc.utf8_length(t["term"]), min_len),
            pc.greater_equal(t["tf"], min_count))
        mask = pc.and_(mask, pc.not_equal(t["term"], ""))
        return t.filter(mask)

    agg = document_frequencies(ds, column).map_batches(
        clean, batch_format="pyarrow", zero_copy_batch=True)
    vocab = _top_k(agg, ["tf", "term"], descending=[True, False],
                   k=top_k)
    empty = pa.table({
        "term_a": pa.array([], pa.string()),
        "term_b": pa.array([], pa.string()),
        "tf_a": pa.array([], pa.int64()),
        "tf_b": pa.array([], pa.int64())})
    if vocab.num_rows < 2:
        return empty
    terms = np.asarray(vocab["term"].to_pylist(), dtype=object)
    tfs = vocab["tf"].to_numpy(zero_copy_only=False)
    handle = ray.put((terms, tfs))

    def variants(batch: pa.Table) -> pa.Table:
        # the deletion neighborhood of each vocab term; the loop is
        # over the TOP-K vocabulary (model-sized, never the corpus)
        ids, keys = [], []
        rank = batch["rank"].to_pylist()
        for rid, term in zip(rank, batch["term"].to_pylist()):
            ids.append(rid)
            keys.append(term)
            for i in range(len(term)):
                ids.append(rid)
                keys.append(term[:i] + term[i + 1:])
        h = hash_strings(keys).view(np.int64)
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "bucket": pa.array(h)})

    vocab_ds = ray.data.from_arrow(vocab.append_column(
        "rank", pa.array(np.arange(vocab.num_rows), pa.int64())))
    # spread variant generation once the vocabulary outgrows one
    # block (tests pin `blocks` to exercise the edge stitch)
    n_blocks = blocks or max(1, vocab.num_rows // 1024)
    if n_blocks > 1:
        vocab_ds = vocab_ds.repartition(n_blocks)
    rows = vocab_ds.map_batches(variants, batch_format="pyarrow")
    cands = _bucket_candidate_pairs(rows, "id", distinct=True,
                                    unique=True)

    def verify(batch: pa.Table) -> pa.Table:
        t, f = ray.get(handle)
        ia = batch["id_a"].to_numpy(zero_copy_only=False)
        ib = batch["id_b"].to_numpy(zero_copy_only=False)
        mask = _ed1_verify(t[ia], t[ib])
        ia, ib = ia[mask], ib[mask]
        a, b = t[ia], t[ib]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        fa = np.where(swap, f[ib], f[ia])
        fb = np.where(swap, f[ia], f[ib])
        return pa.table({
            "term_a": pa.array(a2.tolist(), pa.string()),
            "term_b": pa.array(b2.tolist(), pa.string()),
            "tf_a": pa.array(fa, pa.int64()),
            "tf_b": pa.array(fb, pa.int64())})

    parts = []
    for b in cands.map_batches(verify, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        if t.num_rows:
            parts.append(t)
    if not parts:
        return empty
    out = pa.concat_tables(parts, promote_options="default")
    return out.sort_by([("term_a", "ascending"),
                        ("term_b", "ascending")])


def span_corruption(ds, id_column: str = "doc_id",
                    column: str = "text", start_mod: int = 20,
                    max_span: int = 3, seed: int = 0):
    """T5-style span corruption, made DETERMINISTIC so the output
    strings are hash-checkable: whitespace token ``j`` of document
    ``d`` STARTS a noise span iff ``splitmix64(d * 2^20 + j + seed)
    % start_mod == 0``, and that span covers ``1 + ((h >> 8) %
    max_span)`` tokens. Each maximal masked run is replaced by one
    ``<extra_id_k>`` sentinel in the encoder input, and the decoder
    target is the concatenation of ``<extra_id_k>`` + the original
    masked tokens — the classic denoising objective (Raffel et al.
    2020), with splitmix64 standing in for the RNG so the same
    (doc, position) always corrupts identically across runs,
    retries, and the SQL oracle (``relational.splitmix64_sql``).

    Shape: ONE stateless scan — documents never span batches, so
    span arithmetic is per-batch segment math (shifted start/length
    masks, never a Python loop over tokens); sentinel text is built
    by vectorized ``np.char`` kernels over the ~1/start_mod run-start
    subset, and per-doc strings reassemble via ``ListArray`` offsets
    + ``pc.binary_join``. No shuffle, no driver state. Assumes
    < 2^20 tokens per document (the hash key packs ``j`` into the
    low 20 bits); raises if violated rather than silently colliding.

    Emits one row per document that has >= 1 token: (id, n_tokens,
    n_masked, n_spans, inputs, targets); ``targets`` is NULL when no
    token was masked (SQL ``string_agg`` FILTER parity).
    """
    from ..state.sketches import hash_ints

    def per_batch(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            id_column: pa.array([], batch[id_column].type),
            "n_tokens": pa.array([], pa.int64()),
            "n_masked": pa.array([], pa.int64()),
            "n_spans": pa.array([], pa.int64()),
            "inputs": pa.array([], pa.string()),
            "targets": pa.array([], pa.string())})
        n = batch.num_rows
        flat, par = _flat_terms(batch, column)
        m = len(par)
        if m == 0:
            return empty
        counts = np.bincount(par, minlength=n)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        offset = first[par]  # flat index of each token's doc start
        jloc = np.arange(m) - offset
        if jloc.max() >= (1 << 20):
            raise ValueError(
                "span_corruption: document exceeds 2^20 tokens; "
                "hash key would collide")
        id_col = batch[id_column]
        if isinstance(id_col, pa.ChunkedArray):
            id_col = id_col.combine_chunks()
        ids_np = pc.cast(id_col, pa.int64()) \
            .to_numpy(zero_copy_only=False)
        key = ids_np[par] * (1 << 20) + jloc + seed
        h = hash_ints(key)
        start = (h % np.uint64(start_mod)) == 0
        slen = 1 + ((h >> np.uint64(8)) % np.uint64(max_span)) \
            .astype(np.int64)
        masked = start.copy()
        for d in range(1, max_span):
            cover = np.zeros(m, bool)
            cover[d:] = start[:-d] & (slen[:-d] >= d + 1)
            masked |= cover & (jloc >= d)
        pm = np.zeros(m, bool)
        pm[1:] = masked[:-1]
        pm &= jloc >= 1
        run_start = masked & ~pm
        cs = np.cumsum(run_start)
        before_doc = cs[first] - run_start[first]
        k = (cs - 1) - before_doc[par]  # 0-based run id per token
        toks = np.asarray(flat.to_pylist(), dtype=object)
        ks = k[run_start].astype("U20")
        sent = np.char.add(np.char.add("<extra_id_", ks), ">")
        in_elem = toks.copy()
        in_elem[run_start] = sent
        tg_elem = toks.copy()
        tg_elem[run_start] = np.char.add(
            np.char.add(sent, " "),
            toks[run_start].astype("U"))

        def join_per_doc(elem: np.ndarray, keep: np.ndarray):
            sel = elem[keep]
            csel = np.bincount(par[keep], minlength=n)
            offs = np.concatenate([[0], np.cumsum(csel)]) \
                .astype(np.int32)
            larr = pa.ListArray.from_arrays(
                pa.array(offs), pa.array(sel.tolist(), pa.string()))
            return pc.binary_join(larr, " ")

        inputs = join_per_doc(in_elem, ~masked | run_start)
        targets = join_per_doc(tg_elem, masked)
        n_masked = np.bincount(par[masked], minlength=n)
        n_spans = np.bincount(par[run_start], minlength=n)
        has_tok = counts > 0
        t = pa.table({
            id_column: id_col,
            "n_tokens": pa.array(counts, pa.int64()),
            "n_masked": pa.array(n_masked, pa.int64()),
            "n_spans": pa.array(n_spans, pa.int64()),
            "inputs": inputs,
            "targets": pc.if_else(pa.array(n_masked > 0), targets,
                                  pa.scalar(None, pa.string()))})
        return t.filter(pa.array(has_tok))

    return ds.map_batches(per_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
