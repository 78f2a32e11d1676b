"""Every Ray Data execution of the dedup chain runs a kernel or an
exchange: size checks read the materialized parents, and projections,
renames, filters and unions fuse into the next operator.  A spy on
``StreamingExecutor.execute`` records the operators of every execution."""

import pandas as pd
import pyarrow as pa
import pytest

from courlan_ray.config import DedupConfig

# perfbench's SCALE_PATH: every row cap at 0 forces the keyed side
CAPS = {"lsh_driver_link_max": 0, "verify_broadcast_max": 0,
        "driver_cc_max_pairs": 0}
# operators that only move, select or count rows
_NO_WORK = ("Project", "Filter", "Union", "AggregateNumRows",
            "InputDataBuffer")


def _spy(monkeypatch, describe):
    """Record ``describe(dag)`` of every execution's final operator."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    runs, execute = [], StreamingExecutor.execute

    def record(self, dag, *args, **kwargs):
        runs.append(describe(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", record)
    return runs


@pytest.fixture
def executions(monkeypatch):
    """The operator names of every execution."""
    def names(dag):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append(op.name if type(op).__name__ == "TaskPoolMapOperator"
                       else type(op).__name__)
            stack.extend(op.input_dependencies)
        return ops

    return _spy(monkeypatch, names)


@pytest.fixture
def dags(monkeypatch):
    """Every execution as a ``(name, inputs)`` tree of its operators."""
    def tree(op):
        return op.name, [tree(i) for i in op.input_dependencies]

    return _spy(monkeypatch, tree)


def _nodes(tree):
    yield tree
    for child in tree[1]:
        yield from _nodes(child)


def _exchange_inputs(tree) -> list:
    """What each ``Sort`` of an execution reads, as ``(name, inputs)``
    trees."""
    return [sort[1][0] for sort in _nodes(tree) if sort[0] == "Sort"]


def _no_work(ops) -> bool:
    """Whether every operator of an execution (a fused map by each of its
    parts) only projects, filters, unions or counts."""
    return all(part.startswith(_NO_WORK)
               for op in ops for part in op.split("->"))


def _docs(texts):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)}))


def test_text_scale_path_runs_eight_executions(executions, dags):
    """Text on the scale caps: sigtable, exact-dup exchange, survivors +
    LSH stars, LSH exchange, the pair count's partials (merged on the
    driver, so no ``Repartition`` runs), verify's two keyed passes +
    verify, one star-contraction round, and the final attach -- none only
    projects.  Verify reads the pairs and the signatures once each: pass
    1 (keyed on the id) tags and places each in one map, and pass 1's
    kernel, pass 2's placement (keyed on the pair) and, after pass 2,
    pass 2's kernel and the verify kernel run fused."""
    from courlan_ray.pipelines.text_dedup import text_dedup_pipeline

    texts = _NEAR_MISS + [_NEAR_MISS[0], _NEAR_MISS[1] + " extra"]
    out = text_dedup_pipeline(_docs(texts), DedupConfig(**CAPS))
    got = out["clusters"].to_pandas().set_index("image_id")["cluster_id"]
    assert got.to_dict() == {"0": "0", "1": "1", "2": "2", "3": "0",
                             "4": "1"}
    assert [r for r in executions if _no_work(r)] == []
    assert len(executions) == 8, executions
    assert not [n for d in dags for n in _nodes(d)
                if n[0].startswith("Repartition")], dags

    verify = [d for d in dags
              if any(n[0].startswith("UnionOperator") for n in _nodes(d))]
    assert len(verify) == 1, dags
    names = [n[0] for n in _nodes(verify[0])]
    assert (names.count("Sort"), names.count("Input")) == (2, 2), names
    assert verify[0][0].startswith("MapBatches(run)->"), names
    pass2, pass1 = _exchange_inputs(verify[0])
    assert pass2[0] == "MapBatches(run)->MapBatches(place)", names
    assert pass1[0].startswith("UnionOperator"), names
    assert pass1[1] == [("MapBatches(place)", [("Input", [])])] * 2, names


def test_partitioned_join_tags_and_places_each_side_in_one_map(dags):
    """``attach_by_key`` and ``filter_by_keys`` on their partitioned side:
    each input is tagged and placed in the one map that reads it, and no
    map runs between the ``Union`` and the ``Sort``."""
    import ray.data as rd
    from courlan_ray.stages import joins

    left = rd.from_arrow([pa.table({"k": [1, 2, 3], "v": list("abc")})] * 2)
    right = rd.from_arrow(
        [pa.table({"k": [2, 3, 4], "w": [1.0, 2.0, 3.0]})] * 3)
    with joins.exchanges_only():
        attached = joins.attach_by_key(left, right, ["k"]).to_pandas()
        dropped = joins.filter_by_keys(left, right, "k", keep=False)
        dropped = dropped.to_pandas()
    assert sorted(attached["k"]) == [2] * 6 + [3] * 6
    assert sorted(dropped["k"]) == [1, 1]
    inputs = [i for d in dags for i in _exchange_inputs(d)]
    assert len(inputs) == 2, dags
    for union, sides in inputs:
        assert union.startswith("UnionOperator"), inputs
        assert sides == [("MapBatches(place)", [("Input", [])])] * 2, inputs


def test_flagship_runs_six_executions(executions):
    """The flagship on the default config over a multi-block input (the
    benchmark's 2,048 rows): sigtable, the valid-row split, survivors +
    LSH stars, verify, the reject counters' partials (merged on the
    driver), and the final attach.  The valid-row split
    (``dedup_pipeline``, before the chain) is the one execution that only
    filters: the chain's size rule reads its row count."""
    import ray.data as rd
    from courlan_ray.pipelines.image_dedup import dedup_pipeline
    from courlan_ray.sources.synth import synth_parquet

    ds = rd.read_parquet(synth_parquet(2048, 42))
    executions.clear()          # a first call writes the cached input
    out = dedup_pipeline(ds, DedupConfig())
    assert out["clusters"].to_pandas()["cluster_size"].max() > 1
    idle = [r for r in executions if _no_work(r)]
    assert [[op for op in r if op != "InputDataBuffer"] for r in idle] \
        == [["Filter(NoneType)"]], idle
    assert len(executions) == 6, executions


_NEAR_MISS = [   # the middle of docs 0 and 1 is a shared 30-character run
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "the shared harbor lantern phrase lima mike november oscar papa "
    "quebec romeo sierra tango uniform victor whiskey xray yankee zulu",
    "one two three four five six seven eight nine ten eleven twelve "
    "the shared harbor lantern phrase thirteen fourteen fifteen sixteen "
    "seventeen eighteen nineteen twenty thirty forty fifty sixty ninety",
    "red orange yellow green blue indigo violet black white grey brown "
    "pink purple silver golden scarlet crimson azure teal olive maroon",
]
_EXACT = _NEAR_MISS[2:] + [
    "monday tuesday wednesday thursday friday saturday sunday january "
    "february march april may june july august september october",
    _NEAR_MISS[2]]


def _assign(texts, cfg, exchanges=False):
    from courlan_ray.pipelines.text_dedup import text_dedup_pipeline
    from courlan_ray.stages import joins

    if exchanges:
        with joins.exchanges_only():
            out = text_dedup_pipeline(_docs(texts), cfg)
            clusters = out["clusters"].to_pandas()
    else:
        out = text_dedup_pipeline(_docs(texts), cfg)
        clusters = out["clusters"].to_pandas()
    s = out["clusters"].schema()
    assert dict(zip(s.names, s.types)) == {
        "image_id": pa.string(), "cluster_id": pa.string(),
        "cluster_size": pa.int64(), "is_representative": pa.bool_()}
    pairs = out["pairs"].to_pandas()
    return clusters.sort_values("image_id").reset_index(drop=True), pairs


@pytest.mark.parametrize("cfg,exchanges", [
    (DedupConfig(), False), (DedupConfig(**CAPS), False),
    (DedupConfig(**CAPS), True)], ids=["default", "caps", "exchanges"])
def test_no_edge_gives_typed_singletons(cfg, exchanges):
    """Candidates that all fail verification and no exact duplicate: every
    row is its own typed singleton cluster, also where the empty edge
    union first meets star contraction (the exchanges-only run)."""
    clusters, pairs = _assign(_NEAR_MISS, cfg, exchanges)
    assert len(pairs) and not pairs["verified"].any()
    assert len(clusters) == len(_NEAR_MISS)
    assert (clusters["cluster_id"] == clusters["image_id"]).all()
    assert (clusters["cluster_size"] == 1).all()
    assert clusters["is_representative"].all()


@pytest.mark.parametrize("cfg,exchanges", [
    (DedupConfig(), False), (DedupConfig(**CAPS), False),
    (DedupConfig(**CAPS), True)], ids=["default", "caps", "exchanges"])
def test_only_exact_edges(cfg, exchanges):
    """Exact duplicates and no candidate pair: the exact group is one
    cluster and every other row a singleton."""
    clusters, pairs = _assign(_EXACT, cfg, exchanges)
    assert pairs.empty
    want = pd.DataFrame({"image_id": ["0", "1", "2"],
                         "cluster_id": ["0", "1", "0"],
                         "cluster_size": [2, 1, 2],
                         "is_representative": [True, True, False]})
    pd.testing.assert_frame_equal(clusters, want, check_dtype=False)
