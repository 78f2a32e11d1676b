"""Fault injection: a worker process SIGKILLed while it runs a map task
mid-flagship-run must not change the output — Ray Data submits its map
tasks with ``max_retries=-1``, so the killed task is retried on another
worker and the run completes with byte-identical cluster assignments.
(Between-stage crash + shard-granular resume is covered in
tests/test_manifest.py.)"""

import os
import signal
import threading
import time

import pandas as pd
import pytest

N_ROWS = 4000


def _flagship_clusters():
    import ray.data as rd

    from courlan_ray.config import DedupConfig
    from courlan_ray.pipelines.image_dedup import dedup_pipeline
    from courlan_ray.sources.synth import synth_parquet

    path = synth_parquet(N_ROWS, 42)
    out = dedup_pipeline(rd.read_parquet(path), DedupConfig())
    df = out["clusters"].to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _live_map_workers():
    """(pid, title) of every worker process running a map task now: Ray
    sets a busy worker's process title to ``ray::<task name>``, and Ray
    Data names a map task after its (fused) operator."""
    live = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        title = raw.replace(b"\0", b" ").decode(errors="replace").strip()
        if title.startswith("ray::") and "MapBatches(" in title:
            live.append((int(pid), title))
    return live


@pytest.mark.slow
def test_actor_kill_mid_run_is_invisible(ray_session):
    baseline = _flagship_clusters()

    res: dict = {}

    def run():
        try:
            res["df"] = _flagship_clusters()
        except Exception as ex:         # pragma: no cover - the failure mode
            res["err"] = repr(ex)

    t = threading.Thread(target=run)
    t.start()
    killed = []
    deadline = time.time() + 120
    while time.time() < deadline and t.is_alive():
        live = _live_map_workers()
        # prefer the signature stage; fall back to any map task (both
        # must be retry-safe on a 256-node cluster)
        live.sort(key=lambda w: "signature" not in w[1])
        if live and not killed:
            os.kill(live[0][0], signal.SIGKILL)
            killed.append(live[0][1])
            break
        time.sleep(0.02)
    t.join()

    assert killed, "no running map task observed to kill (run too fast?)"
    assert "err" not in res, f"pipeline died after worker kill: {res['err']}"
    pd.testing.assert_frame_equal(res["df"], baseline, check_exact=True)
