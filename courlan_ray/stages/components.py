"""Connected components over verified pairs -> cluster assignments.

Two execution paths, chosen by the edge table's size (SURVEY.md §7.4
"union-find at scale"):

- ``driver_union_find``: edges that fit one task (``joins.fits_one_task``)
  and number at most ``cfg.driver_cc_max_pairs`` are pulled to the driver
  (two narrow string columns) and solved with path-compressed union-find.
  Dup edges are O(#duplicates), far smaller than the input.
- ``distributed_components``: star contraction (Kiveris et al.,
  "Connected Components in MapReduce and Beyond", SoCC 2014): alternating
  Large-Star and Small-Star passes, each one ``joins.keyed_map`` with a
  vectorized kernel per block, until each component is one star.

``cluster_id`` is the minimum ``image_id`` of the component — order-free
determinism (SURVEY.md §4): no dependence on arrival order or parallelism.
Both paths return the same (image_id, cluster_id, cluster_size) table,
and ``assign_clusters`` attaches it to every valid id with one left
``attach_by_key``, which also picks the one-per-cluster representative
(the minimum id, UrlStore's one-per-domain draw generalized).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import DedupConfig
from . import joins

# the table ``assign_clusters`` emits, for an input with no valid row
EMPTY_CLUSTERS = pa.table({
    "image_id": pa.array([], pa.string()),
    "cluster_id": pa.array([], pa.string()),
    "cluster_size": pa.array([], pa.int64()),
    "is_representative": pa.array([], pa.bool_())})
# the table both component paths return, for no edge
_EMPTY_COMPONENTS = EMPTY_CLUSTERS.drop_columns(["is_representative"])


def driver_union_find(edges: pd.DataFrame) -> pd.DataFrame:
    """(left_id, right_id) -> (image_id, cluster_id, cluster_size) per node.

    Fully vectorized: ids are factorized to ints sorted so that label
    order == id order, then min-label flows along edges with
    ``np.minimum.at`` + pointer-jump compression until fixpoint —
    O(E * log(diameter)) C-speed passes, no Python per-edge loop
    (the 1M+-edge driver path was a multi-second serial floor)."""
    cat = pd.concat([edges["left_id"], edges["right_id"]],
                    ignore_index=True)
    codes, uniques = pd.factorize(cat, sort=True)   # sorted: min code=min id
    m = len(edges)
    u, v = codes[:m], codes[m:]
    labels = np.arange(len(uniques), dtype=np.int64)
    while True:
        before = labels
        lu, lv = labels[u], labels[v]
        mn = np.minimum(lu, lv)
        labels = labels.copy()
        np.minimum.at(labels, u, mn)
        np.minimum.at(labels, v, mn)
        # pointer-jump until self-stable (few hops; all C-speed)
        while True:
            nxt = labels[labels]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
        if np.array_equal(labels, before):
            break
    return pd.DataFrame({
        "image_id": uniques, "cluster_id": uniques.take(labels),
        "cluster_size": np.bincount(labels, minlength=len(uniques))[labels]})


def _neighbours(b: pa.Table, node: str, nbr: str):
    """A block's distinct non-self (node, neighbour) pairs as int codes in
    (node, neighbour) order, code order being id order; and the ids."""
    m = b.num_rows
    codes, ids = pd.factorize(np.concatenate(
        [b[node].to_numpy(), b[nbr].to_numpy()]), sort=True)
    u, w = codes[:m], codes[m:]
    pair = np.unique(u[u != w].astype(np.int64) * len(ids) + w[u != w])
    return pair // len(ids), pair % len(ids), ids


def _links(ids, image, cluster, **cols) -> pa.Table:
    return pa.table({"image_id": pa.array(ids[image], pa.string()),
                     "cluster_id": pa.array(ids[cluster], pa.string()),
                     **cols})


def _large_star(b: pa.Table) -> pa.Table:
    """Per node u of the symmetric edges: every neighbour larger than u is
    linked to m, the least of u and its neighbours.  A root (every
    neighbour larger) also emits itself, and its rows carry its group's
    size; a node that is neither a root nor a leaf (exactly one neighbour,
    a smaller one) emits itself too, with null sizes that mark the pass
    unsettled."""
    u, w, ids = _neighbours(b, "image_id", "nbr")
    nodes, first, deg = np.unique(u, return_index=True, return_counts=True)
    root = w[first] > nodes                 # least neighbour above the node
    grp = np.repeat(np.arange(len(nodes)), deg)
    m, size = np.minimum(nodes, w[first]), np.where(root, deg + 1, 0)
    own, larger = root | (deg > 1), w > u
    sizes = np.concatenate([size[grp][larger], size[own]])
    return _links(ids, np.concatenate([w[larger], nodes[own]]),
                  np.concatenate([m[grp][larger], nodes[own]]),
                  cluster_size=pa.array(sizes, pa.int64(), mask=sizes == 0))


def _small_star(b: pa.Table) -> pa.Table:
    """Per node u, over the large-star links keyed by their larger end:
    u and its smaller neighbours are linked to the least of them (the
    large-star self rows hold no link)."""
    u, w, ids = _neighbours(b, "image_id", "cluster_id")
    nodes, first, deg = np.unique(u, return_index=True, return_counts=True)
    spoke = np.repeat(w[first], deg)
    lower = w != spoke
    return _links(ids, np.concatenate([w[lower], nodes]),
                  np.concatenate([spoke[lower], w[first]]))


def _large_pass(ds, a: str = "image_id", b: str = "cluster_id"):
    """The Large-Star pass over the (a, b) links of ``ds``, both ways."""
    def symmetric(t: pa.Table) -> pa.Table:
        x, y = t[a].combine_chunks(), t[b].combine_chunks()
        return pa.table({"image_id": pa.concat_arrays([x, y]),
                         "nbr": pa.concat_arrays([y, x])})

    return joins.keyed_map(ds.map_batches(symmetric, batch_format="pyarrow"),
                           ["image_id"], _large_star)


def distributed_components(edges_ds, cfg: DedupConfig):
    """Star contraction in Ray Data: (left_id, right_id) edges ->
    (image_id, cluster_id, cluster_size) for every node in a non-loop edge.

    Both passes keep every component connected, link only nodes of one
    component, and never raise the least id a node is linked to.  Their
    only common fixpoint is one star per component centred on its minimum
    id, which a large-star pass sees exactly when every node is a root
    (all neighbours larger) or a leaf (one neighbour, a smaller one): a
    leaf's neighbour has a larger neighbour, so it is a root, and a root's
    neighbours have a smaller one, so they are leaves.  That pass's rows
    (with each star's size) are the answer; later passes keep the stars.
    Rounds are small-star, large-star, large-star after one large-star
    pass: the alternation Kiveris et al. bound by O(log^2 n) rounds plus a
    pointer-jump pass, the only one tested (one Ray execution, one count)."""
    if edges_ds.count() == 0:
        return rd.from_arrow(_EMPTY_COMPONENTS)
    stars = _large_pass(edges_ds, "left_id", "right_id")
    while True:
        small = joins.keyed_map(stars, ["image_id"], _small_star)
        stars = _large_pass(_large_pass(small)).materialize()
        if stars.filter(expr="is_null(cluster_size)").count() == 0:
            return stars


def cluster_assignments(edges_ds, all_ids_ds, cfg: DedupConfig):
    """edges + all valid ids -> (image_id, cluster_id, cluster_size,
    is_representative).

    Components come from the vectorized driver union-find when the edges
    fit one task and number at most ``cfg.driver_cc_max_pairs``, and from
    distributed star contraction otherwise (or when there is no edge);
    ``assign_clusters`` then covers every valid id."""
    edges_ds = edges_ds.select_columns(["left_id", "right_id"]).materialize()
    if edges_ds.count() and joins.fits_one_task(edges_ds,
                                                cfg.driver_cc_max_pairs):
        comp = rd.from_arrow(pa.Table.from_pandas(
            driver_union_find(joins._collect(edges_ds).to_pandas()),
            schema=_EMPTY_COMPONENTS.schema, preserve_index=False))
    else:
        comp = distributed_components(edges_ds, cfg)
    return assign_clusters(all_ids_ds, comp, cfg)


def assign_clusters(all_ids_ds, components_ds, cfg: DedupConfig):
    """Every valid row gets its component's (cluster_id, cluster_size), or
    (itself, 1) for singletons; the representative is the row whose id is
    its cluster_id (the component minimum).  ``components_ds`` holds
    (image_id, cluster_id, cluster_size) for the nodes in some edge;
    broadcast when small, else partitioned join."""
    def fill(b: pa.Table) -> pa.Table:
        # a block with no component member comes back from the pandas
        # merge with null-typed columns, which coalesce rejects
        own = pc.cast(b["image_id"], pa.string())
        cid = pc.coalesce(pc.cast(b["cluster_id"], pa.string()), own)
        size = pc.coalesce(pc.cast(b["cluster_size"], pa.int64()),
                           pa.scalar(1, pa.int64()))
        return pa.table({"image_id": b["image_id"], "cluster_id": cid,
                         "cluster_size": size,
                         "is_representative": pc.equal(own, cid)})

    out = joins.attach_by_key(all_ids_ds, components_ds, ["image_id"],
                              how="left")
    return out.map_batches(fill, batch_format="pyarrow")
