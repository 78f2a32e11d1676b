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


@pytest.fixture
def executions(monkeypatch):
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    runs, execute = [], StreamingExecutor.execute

    def record(self, dag, *args, **kwargs):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append(op.name if type(op).__name__ == "TaskPoolMapOperator"
                       else type(op).__name__)
            stack.extend(op.input_dependencies)
        runs.append(ops)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", record)
    return runs


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


def test_text_scale_path_runs_eight_executions(executions):
    """Text on the scale caps: sigtable, exact-dup exchange, survivors +
    LSH stars, LSH exchange, pair count, both verify joins + verify, one
    star-contraction round, and the final attach -- none only projects."""
    from courlan_ray.pipelines.text_dedup import text_dedup_pipeline

    texts = _NEAR_MISS + [_NEAR_MISS[0], _NEAR_MISS[1] + " extra"]
    out = text_dedup_pipeline(_docs(texts), DedupConfig(**CAPS))
    got = out["clusters"].to_pandas().set_index("image_id")["cluster_id"]
    assert got.to_dict() == {"0": "0", "1": "1", "2": "2", "3": "0",
                             "4": "1"}
    assert [r for r in executions if _no_work(r)] == []
    assert len(executions) == 8, executions


def test_flagship_runs_six_executions(executions):
    """The flagship on the default config: sigtable, the valid-row split,
    survivors + LSH stars, verify, the reject counters, and the final
    attach.  The valid-row split (``dedup_pipeline``, before the chain) is
    the one execution that only filters: the chain's size rule reads its
    row count."""
    import ray.data as rd
    from courlan_ray.pipelines.image_dedup import dedup_pipeline
    from courlan_ray.sources.synth import synth_parquet

    ds = rd.read_parquet(synth_parquet(400, 42))
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
