"""Join / lookup helpers (SURVEY.md §2.5) and the one size rule.

Every dual-path stage in the engine holds its input in ONE place (a
driver collect, such as the partials of a keyed reduction, or a broadcast
probe) when it is small and runs a keyed exchange (``keyed_map``)
otherwise: at small sizes the one place is usually faster, and only the
exchange scales.
``fits_one_task`` makes that call for all of them from the measured rows
and bytes of the materialized side the one-place path would hold, against
one byte budget (``SMALL_BYTES``); ``exchanges_only()`` forces the
exchange side everywhere.

Three lookup patterns, mirroring the reference's lookup shapes:

- broadcast semi/anti join: small key side shipped once via ``ray.put`` and
  probed with a vectorized ``pc.is_in`` inside ``map_batches`` (the robots
  rules / blacklist lookup pattern, /root/reference/courlan/urlstore.py:515-522,
  core.py:115-119);
- partitioned sort-merge join when both sides are large (the _search_urls
  anti-join, urlstore.py:277-295): both sides go through ONE keyed
  exchange, each tagged and placed in the map that reads it, and each
  block is joined on its own;
- ``hash_join_pairs``: attach per-id payload columns to a pair table
  (left_id, right_id) — the candidate-pair -> signature lookup, matched
  on the id values themselves (a broadcast ``pd.Index``, or two keyed
  passes: both pair sides pick up their payload keyed on the id, then
  meet keyed on the pair), never on a digest of them.

Every keyed exchange in the engine is ``keyed_map``: Ray's task-based
range-partitioned ``Dataset.sort``.  It starts no actors (a hash-shuffle
``Dataset.join`` or ``repartition(keys=...)`` starts an aggregator actor
pool per call, and one actor took 1.9-2.8 s to start on a 1-vCPU host)
and keeps every key's rows
together in one output block — the property Ray's own
``GroupedData.map_groups`` builds on.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

# Per-worker cache for broadcast objects: ray.get() re-deserializes
# non-zero-copy payloads (pandas frames, object-dtype arrays, tuples) on
# EVERY call, which turns a broadcast join into a per-batch unpickle of
# the whole small side.  Each worker process deserializes once instead.
_GET_CACHE: dict[str, object] = {}


def cached_get(ref):
    key = ref.hex() if hasattr(ref, "hex") else str(ref)
    if key not in _GET_CACHE:
        if len(_GET_CACHE) >= 4:    # bound per-worker broadcast memory
            _GET_CACHE.pop(next(iter(_GET_CACHE)))
        _GET_CACHE[key] = ray.get(ref)
    return _GET_CACHE[key]


#: The byte budget of the one-place side of every dual-path stage.  Bytes,
#: not rows: a side of narrow rows and one of KB-wide payload rows differ
#: by orders of magnitude at the same row count.
SMALL_BYTES = 256 * 2**20
_EXCHANGES_ONLY = ContextVar("exchanges_only", default=False)


@contextmanager
def exchanges_only():
    """Within the block ``fits_one_task`` answers False, so every
    dual-path stage built there takes its keyed-exchange side (the
    ``*_shuffle`` queries and the both-sides tests)."""
    token = _EXCHANGES_ONLY.set(True)
    try:
        yield
    finally:
        _EXCHANGES_ONLY.reset(token)


def fits_one_task(ds) -> bool:
    """Whether the materialized ``ds`` is small enough to hold in one
    place: at most ``SMALL_BYTES`` (block metadata, so nothing executes
    again; no block counts 0 bytes; the row caps are ``one_place``'s)."""
    return not _EXCHANGES_ONLY.get() and (ds.size_bytes() or 0) <= SMALL_BYTES


def cluster_cpus() -> int:
    """Logical CPUs of the running Ray cluster (8 when unknown)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def sliced(batch: pa.Table, one, size: int):
    """Apply ``one`` (a kernel over <= ``size`` rows) to a whole-block
    batch.  ``map_batches(batch_size=None)`` hands each task its block
    unsplit — one task per block, so an upstream ``repartition(fanout)``
    actually fans the kernel out instead of being re-bundled into
    ceil(rows/batch_size) tasks (measured: 6 tasks over a 64-way fanout at
    44k pairs).  Oversized blocks are sliced inside the task AND their
    outputs yielded one slice at a time (generator UDF), so the executor
    can emit/split output blocks incrementally instead of the task holding
    the whole output table in memory at once."""
    n = batch.num_rows
    if n <= size:
        yield one(batch)
        return
    for i in range(0, n, size):
        yield one(batch.slice(i, size))


def strip_metadata(ds):
    """Zero-copy strip of the pandas schema-metadata blob (fuses with the
    neighboring stage).  Parquet files written via pandas carry a
    ``b'pandas'`` key-value blob that makes ``hash(pa.Schema)`` raise
    ("unhashable type: 'dict'") inside Ray's shuffle workers — which
    never import this package, so the logger filter can't reach them and
    every sort/shuffle task logs a "Failed to hash the schemas" warning.
    Apply at the read boundary (``sources.readers.read_sf_table``) or
    before any keyed exchange."""

    def strip(b: pa.Table) -> pa.Table:
        return b.replace_schema_metadata(None) if b.schema.metadata else b

    return ds.map_batches(strip, batch_format="pyarrow", batch_size=None)


_PLACE = "__place"
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _placement(b: pa.Table, keys: list[str]) -> np.ndarray:
    """int64 hash of each row's key tuple; a null hashes like every other
    null.  It only decides which block a row lands in: equal keys always
    hash alike, and the kernels compare the key values themselves."""
    import pandas as pd

    h = np.zeros(b.num_rows, dtype=np.uint64)
    for k in keys:
        col = b[k]
        kh = np.zeros(b.num_rows, dtype=np.uint64)
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        kh[valid] = pd.util.hash_array(
            pc.drop_null(col).to_numpy(zero_copy_only=False))
        h = h * _MIX + kh
    return h.view(np.int64)


def keyed_map(ds, keys: list[str], kernel):
    """Run ``kernel`` (pyarrow table -> table) once per block of ``ds``
    re-partitioned so that every ``keys`` tuple's rows sit whole in one
    block; a block may hold many keys, and its rows come in no key order.
    ``ds`` is one Dataset, or a list of ``(Dataset, tag)`` inputs whose
    ``tag`` maps each of its blocks to one schema shared by all inputs:
    each input is tagged and placed in one map, then the inputs are
    unioned (Ray fuses no map across a ``Union``).

    The exchange is one ``Dataset.sort`` on a 64-bit placement hash of the
    key tuple: the range partitioner never splits equal sort values, its
    reduce tasks write one block each, and the kernel runs in the task
    that reads that block.  Sorting on the hash rather than the keys keeps
    the partitioner on int64 (Ray 2.49's boundary search compares Python
    objects and raises on a null string key) and drops the pandas schema
    metadata on the way (see ``strip_metadata``).  The hash is uniform, so
    fixed boundaries split it into one block per cluster CPU without
    Ray's sampling pass.  One block per input block instead turned the
    2,000-document scale path's verify output into 17 blocks rather than
    4, and every later keyed pass over them ran a task per block."""

    def placed(d, tag):
        def place(b: pa.Table) -> pa.Table:
            b = tag(b) if tag else b
            return b.replace_schema_metadata(None).append_column(
                _PLACE, pa.array(_placement(b, keys)))
        return d.map_batches(place, batch_format="pyarrow", batch_size=None)

    def run(b: pa.Table):
        return kernel(b.drop_columns([_PLACE]))

    inputs = [placed(d, tag) for d, tag in
              (ds if isinstance(ds, list) else [(ds, None)])]
    parts = max(2, cluster_cpus())      # no boundaries = Ray samples its own
    bounds = np.linspace(-2.0**63, 2.0**63, parts + 1)[1:-1]
    both = inputs[0].union(*inputs[1:]) if inputs[1:] else inputs[0]
    return (both.sort(_PLACE, boundaries=[int(b) for b in bounds])
            .map_batches(run, batch_format="pyarrow", batch_size=None))


def one_place(ds, cols: list[str] | None = None, max_rows: int | None = None):
    """The ``cols`` (default: all) of the materialized ``ds`` as one driver
    table, or None (also for a schema-less empty).  ``max_rows`` refuses
    first; a ``ds`` within ``SMALL_BYTES`` is collected and projected here,
    and only one over it has its projection materialized and measured."""
    ds = ds.materialize()
    if _EXCHANGES_ONLY.get() or max_rows is not None and ds.count() > max_rows:
        return None
    if not fits_one_task(ds):
        ds = (ds.select_columns(cols) if cols else ds).materialize()
        if not fits_one_task(ds):
            return None
    tbl = _collect(ds)
    return (tbl.select(cols) if cols else tbl) if tbl.num_columns else None


def kernel_by_key(ds, keys: list[str], kernel, max_rows: int | None = None,
                  cols: list[str] | None = None):
    """``kernel`` over the ``cols`` (default: all) of ``ds`` with every
    ``keys`` tuple whole in one call: once on the ``one_place`` table of
    the materialized ``ds``, else per ``keyed_map`` block (fused project)."""
    import ray.data as rd

    ds = ds.materialize()
    tbl = one_place(ds, cols, max_rows)
    if tbl is not None:
        return rd.from_arrow(kernel(tbl))
    return keyed_map(ds.select_columns(cols) if cols else ds, keys, kernel)


def filter_by_keys(ds, keys_ds, key_col: str, *, keep: bool,
                   keys_col: str | None = None):
    """Semi (keep=True) or anti (keep=False) join of ``ds`` against the key
    column ``keys_col`` (default ``key_col``) of ``keys_ds``: a broadcast
    probe when the materialized column fits one task (``one_place``), a
    partitioned semi or anti join above."""
    kc = keys_col or key_col
    keys_ds = keys_ds.materialize()
    key_tbl = one_place(keys_ds, [kc])
    if key_tbl is not None:
        # Arrow-native collect: concat the key column's blocks and dedup
        # with the hash kernel — never take_all() row dicts (a 5M-key side
        # would build 5M Python dicts on the driver just to read one field)
        ref = ray.put(safe_combine(key_tbl[kc]).unique())

        def probe(batch: pa.Table) -> pa.Table:
            vals = cached_get(ref)
            mask = pc.is_in(batch[key_col], value_set=vals)
            if not keep:
                mask = pc.invert(mask)
            return batch.filter(mask)

        return ds.map_batches(probe, batch_format="pyarrow")
    return _join(ds, keys_ds, "left_semi" if keep else "left_anti",
                 on=(key_col,), right_on=(kc,), cols=[])


def attach_by_key(left_ds, right_ds, on: list[str], *, how: str = "inner"):
    """Inner/left join ``right_ds``'s columns onto ``left_ds`` by key
    column(s).  A right side that fits one task is broadcast once via
    ``ray.put`` and merged with vectorized pandas inside ``map_batches``
    (no exchange); a larger one goes through the partitioned sort-merge
    ``_join``."""
    right_ds = right_ds.materialize()     # its size is then block metadata
    small = one_place(right_ds)
    if small is not None:
        ref = ray.put(small.to_pandas())  # converted ONCE, shipped once

        def attach(batch):
            return batch.merge(cached_get(ref), how=how, on=on)

        return left_ds.map_batches(attach, batch_format="pandas")
    return _join(left_ds, right_ds, "inner" if how == "inner" else "left_outer",
                 on=tuple(on))


def hash_join_pairs(pairs_ds, payload_ds, *, id_col: str, payload_cols: list[str],
                    max_rows: int | None = None):
    """Attach payload columns for both sides of a (left_id, right_id) pair
    table; a pair with either id null or missing from the payload is
    dropped.  Payload columns that fit one task (``one_place`` of the
    materialized ``payload_ds`` with ``max_rows``) are broadcast with an
    exact ``pd.Index`` over the ids, and a repeated payload id resolves to
    its first row.  Else two ``keyed_map`` passes run in one execution,
    and the payload takes part in the first only (there a repeated payload
    id gives one row per copy): pass 1, keyed on the id, meets each pair
    twice, once by its left and once by its right id, with that id's
    payload rows; pass 2, keyed on the pair, joins the two sides again.
    A map over the result fuses into pass 2's reading task."""
    payload_ds, payload_fields = _arrow_materialized(payload_ds)
    tbl = one_place(payload_ds, [id_col] + payload_cols, max_rows)
    if tbl is not None:
        import pandas as pd

        index = pd.Index(tbl[id_col].to_pandas())
        first = ~index.duplicated()
        # combine chunks BEFORE broadcasting: take() over a chunked table
        # does a per-element chunk lookup and dominates gather time.  The
        # index's hash table is built on the first probe and then kept
        # per worker by cached_get.
        ref = ray.put((index[first],
                       tbl.filter(pa.array(first)).combine_chunks()))

        def attach(batch: pa.Table) -> pa.Table:
            index, payload = cached_get(ref)
            out = batch
            for side, suffix in (("left", "_l"), ("right", "_r")):
                pos = index.get_indexer(out[f"{side}_id"].to_pandas())
                hit = pos >= 0
                if not hit.all():                   # drop unmatched pairs
                    out = out.filter(pa.array(hit))
                    pos = pos[hit]
                gathered = payload.take(pa.array(pos, pa.int64()))
                for c in payload_cols:
                    out = out.append_column(c + suffix, gathered[c])
            return out

        # whole blocks per task, sliced inside: a batch_size here would
        # fuse with a batch_size=None consumer (verify) into tasks of at
        # least that many rows and undo its one-task-per-block fan-out
        return pairs_ds.map_batches(lambda b: sliced(b, attach, 8192),
                                    batch_format="pyarrow", batch_size=None)

    import ray.data as rd

    pairs_ds, pair_fields = _arrow_materialized(pairs_ds)
    payload = [payload_fields.field(c) for c in payload_cols]
    out_schema = pa.schema(list(pair_fields) + [
        f.with_name(f.name + suffix) for suffix in ("_l", "_r")
        for f in payload])
    if not (pairs_ds.count() and payload_ds.count()):
        return rd.from_arrow(out_schema.empty_table())
    pair = ["left_id", "right_id"]
    # pass 1 rows: a payload row (__side 0) or a pair keyed on its left
    # (1) or right (2) id; pass 2 rows: a pair side with its payload
    union = pa.schema(
        [pa.field("__id", pair_fields.field("left_id").type),
         pa.field("__side", pa.int8())]
        + [pa.field(f.name, _union_type(f.type))
           for f in list(pair_fields) + payload])
    picked = pa.schema(list(pair_fields) + [pa.field("__side", pa.int8())]
                       + payload)

    def tagged(t: pa.Table, ids, side: int) -> pa.Table:
        return _conform(t.append_column("__id", ids).append_column(
            "__side", pa.array(np.full(t.num_rows, side, np.int8))), union)

    def sides(b: pa.Table) -> pa.Table:       # each pair twice, one per id
        b = b.filter(pc.and_(pc.is_valid(b["left_id"]),
                             pc.is_valid(b["right_id"])))
        return pa.concat_tables([tagged(b, b["left_id"], 1),
                                 tagged(b.select(pair), b["right_id"], 2)])

    def ids(b: pa.Table) -> pa.Table:
        return tagged(b.select(payload_cols), b[id_col], 0)

    def pick_up(b: pa.Table) -> pa.Table:
        side = b["__side"]
        # one right row per distinct pair: the left rows keep every copy,
        # so a duplicate pair still meets once per copy in pass 2
        right = b.filter(pc.equal(side, 2)).group_by(
            pair, use_threads=False).aggregate([])
        rows = pa.concat_tables([b.filter(pc.equal(side, 1)),
                                 tagged(right, right["right_id"], 2)])
        payload_rows = b.filter(pc.equal(side, 0))
        hits = _matches(rows, payload_rows, ["__id"])
        return pa.Table.from_arrays(
            [rows[f.name].take(hits["__l"]).cast(f.type)
             for f in list(pair_fields) + [picked.field("__side")]]
            + [payload_rows[f.name].take(hits["__r"]).cast(f.type)
               for f in payload], schema=picked)

    def meet(b: pa.Table) -> pa.Table:
        is_left = pc.equal(b["__side"], 1)
        lt, rt = b.filter(is_left), b.filter(pc.invert(is_left))
        hits = _matches(lt, rt, pair)
        return pa.Table.from_arrays(
            [lt[f.name].take(hits["__l"]) for f in pair_fields]
            + [lt[c].take(hits["__l"]) for c in payload_cols]
            + [rt[c].take(hits["__r"]) for c in payload_cols],
            schema=out_schema)

    return keyed_map(keyed_map([(pairs_ds, sides), (payload_ds, ids)],
                               ["__id"], pick_up), pair, meet)


def _arrow_materialized(ds):
    """``ds`` materialized with Arrow blocks, and its Arrow schema (empty
    when it has none).  Pandas blocks (``from_pandas``) report numpy
    dtypes, so they are converted first: by a map, or on the driver when
    they hold no row (Ray maps no zero-row block, so the map's output has
    no schema)."""
    import ray.data as rd

    ds = ds.materialize()
    schema = ds.schema()
    if schema is None:
        return ds, pa.schema([])
    if not all(isinstance(t, pa.DataType) for t in schema.types):
        arrow = strip_metadata(ds).materialize()
        if arrow.schema() is None:
            empty = ray.get(ds.to_pandas_refs()[0])
            arrow = rd.from_arrow(pa.Table.from_pandas(
                empty, preserve_index=False).replace_schema_metadata(None))
        ds, schema = arrow, arrow.schema()
    return ds, pa.schema(zip(schema.names, schema.types))


def _union_type(t: pa.DataType) -> pa.DataType:
    """A column's type in a tagged union (``_join``, ``hash_join_pairs``'s
    first pass): fixed-size list payloads travel as a variable ``list``,
    so the side without them pays only offsets for its nulls
    (``pa.nulls(n, fixed_size_list<...>[k])`` allocates n x k values)."""
    if pa.types.is_fixed_size_list(t):
        return pa.list_(t.value_type)
    return t


def _conform(b: pa.Table, schema: pa.Schema) -> pa.Table:
    """``b`` as ``schema``: its columns cast, a missing one typed nulls."""
    return pa.Table.from_arrays(
        [b[f.name].cast(f.type) if f.name in b.column_names
         else pa.nulls(b.num_rows, f.type) for f in schema], schema=schema)


def _matches(lt: pa.Table, rt: pa.Table, on: list[str],
             how: str = "inner") -> pa.Table:
    """Row positions ``__l`` of ``lt`` and ``__r`` of ``rt`` (none for a
    semi or anti join) whose ``on`` columns match in the exact acero join
    ``how``; only the keys and positions meet acero, so list payloads
    never do.  Sorted on the positions: acero emits in no fixed order."""
    def keyed(t, pos):
        return pa.table([t[k] for k in on] + [pa.array(np.arange(t.num_rows))],
                        names=list(on) + [pos])

    hits = keyed(lt, "__l").join(keyed(rt, "__r"), list(on), join_type=how)
    return hits.sort_by([(c, "ascending") for c in ("__l", "__r")
                         if c in hits.column_names])


def _join(left, right, join_type: str, *, on: tuple,
          right_on: tuple | None = None, cols: list[str] | None = None):
    """Sort-merge join (``inner``, ``left_outer``, ``left_semi`` or
    ``left_anti``) on the key columns ``on`` / ``right_on``: left columns,
    then the right columns ``cols`` (default: all non-key); a repeated
    right key gives one row per copy; null keys match nothing.  Fields
    come from the materialized parents' schemas.

    Both sides are tagged (the right one projected and renamed there)
    under one schema (the other side's columns as typed nulls) and go
    through ONE ``keyed_map``; each block joins only its key columns plus
    a row index (``_matches``) and gathers the payload columns by index.
    A side with no rows short-circuits to the typed result: the left rows
    for a left outer or anti join, else empty."""
    import ray.data as rd

    right_on = right_on or on
    left, left_fields = _arrow_materialized(left)
    n_left = left.count()
    right, rf = _arrow_materialized(right)
    cols = [n for n in rf.names if n not in right_on] if cols is None else cols
    extra = [rf.field(c) for c in cols]
    out_schema = pa.schema(list(left_fields) + extra)
    if n_left and right.count():
        carried = [pa.field(f.name, _union_type(f.type)) for f in out_schema]
        union = pa.schema(carried + [pa.field("__right", pa.bool_())])
        renames = dict(zip(right_on, on)) | {c: c for c in cols}
        how = join_type.replace("_", " ")           # acero's spelling

        def tag(is_right: bool):
            def fn(b: pa.Table) -> pa.Table:
                if is_right:
                    b = b.select(list(renames)).rename_columns(
                        list(renames.values()))
                return _conform(b.append_column(
                    "__right", pa.array(np.full(b.num_rows, is_right))), union)
            return fn

        def merge(b: pa.Table) -> pa.Table:
            is_right = b["__right"]
            lt, rt = b.filter(pc.invert(is_right)), b.filter(is_right)
            hits = _matches(lt, rt, list(on), how)
            arrays = [lt[f.name].take(hits["__l"]).cast(f.type)
                      for f in left_fields] \
                + [rt[f.name].take(hits["__r"]).cast(f.type) for f in extra]
            return pa.Table.from_arrays(arrays, schema=out_schema)

        return keyed_map([(left, tag(False)), (right, tag(True))], list(on),
                         merge)
    if n_left and join_type in ("left_outer", "left_anti"):
        def null_fill(batch: pa.Table) -> pa.Table:
            for f in extra:
                batch = batch.append_column(f, pa.nulls(batch.num_rows, f.type))
            return batch
        return left.map_batches(null_fill, batch_format="pyarrow",
                                batch_size=None)
    return rd.from_arrow(out_schema.empty_table())


def _collect(ds) -> pa.Table:
    """Materialize a (small) Dataset to one Arrow table on the driver.

    Fetches WHOLE blocks (``to_arrow_refs``) rather than re-batching
    through ``iter_batches`` — re-batching yields sliced arrays with
    non-zero offsets, and ``combine_chunks`` over such zero-copy slices
    intermittently hits pyarrow's "buffer slice would exceed buffer
    length" bug downstream."""
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if parts:
        return pa.concat_tables(parts)
    schema = ds.schema()
    if schema is None:                 # fully-empty dataset: no blocks at all
        return pa.table({})
    return pa.Table.from_pylist([], schema=schema.base_schema)


def safe_combine(x):
    """``combine_chunks`` (Table or ChunkedArray) with a deep-copy fallback
    for the pyarrow sliced-buffer bug (rare, layout-dependent:
    "buffer slice would exceed buffer length" on zero-copy slices)."""
    import numpy as np
    try:
        return x.combine_chunks()
    except pa.lib.ArrowIndexError:
        n = x.num_rows if isinstance(x, pa.Table) else len(x)
        idx = pa.array(np.arange(n, dtype=np.int64))
        return x.take(idx).combine_chunks()
