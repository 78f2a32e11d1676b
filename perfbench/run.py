"""Benchmark of the courlan_ray dedup engine, end to end and per layer.

    python3 perfbench/run.py --workload image_dedup --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout.  One run:

1. makes the workload's input from the seed in a separate process
   (``perfbench/gen.py``), cached under ``.perfbench/cache`` per
   (kind, rows, seed); the text workload's driver-path reference
   assignment is cached beside it once it has been computed;
2. stamps the host speed with a BLAS-pinned single-thread matmul probe,
   run beside the generator;
3. sets up ``SETUPS`` times -- Ray start at ``LOGICAL_CPUS`` logical CPUs
   plus one untimed warm-up op, the same op the run then times -- and
   reports the median as ``setup_s``; the last session is kept;
4. runs ops back to back until ``--seconds`` have passed and at least
   ``MIN_OPS`` ops have run, each under a timeout and each checked for
   correctness (a failed check counts in ``failed``); the median op sets
   ``rows_per_s``;
5. with ``--trace 1``, alternates untraced and traced ops, at least one of
   each, so the tracing overhead is measured in the same window; then
   ``image_dedup`` runs one traced checkpointed op (fresh run plus resume)
   for the ``state.manifest`` numbers, and the Ray-free kernels are timed
   on one 1,024-row batch of the input;
6. tears Ray down (``ray.shutdown()``, then ``ray stop --force``) and
   prints the run context on one line and the result as the last line.

Spans, ops and context of every run are written to ``.perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fixed logical CPU count for every run.  At num_cpus=1 (what nproc gives
# on a 1-core host) the flagship hangs: the one-actor SignatureActor pool
# holds the only logical CPU and ReadParquet never schedules.
LOGICAL_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
SETUPS = 2
MIN_OPS = 3                   # fewest untraced ops a run times, so the
                              # median drops one outlier even when a text
                              # op (~12 s) is close to --seconds
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0           # every op ends (or times out) by then
KERNEL_ROWS = 1024
KERNEL_REPS = 5
IMAGE_ROWS = 2048
TEXT_ROWS = 2000
# the text workload's scale path: keyed hash-shuffle LSH link, partitioned
# pair<->signature join, distributed label-propagation components
SCALE_PATH = {"lsh_driver_link_max": 0, "verify_broadcast_max": 0,
              "driver_cc_max_pairs": 0}

WORKLOADS = {
    "image_dedup": {"kind": "image", "rows": IMAGE_ROWS},
    "text_dedup_scale": {"kind": "text", "rows": TEXT_ROWS},
}

# span names below the op; the last is the benchmark's own collect of the
# clusters to the driver, which runs what the pipeline left lazy
LAYERS = ("stages.signatures", "stages.exact_dedup",
          "stages.joins", "stages.lsh", "stages.verify", "stages.components",
          "stages.canonicalize", "ray.data.to_pandas")
COUNTERS = ("stages.signatures.rows_out", "stages.signatures.bytes_out",
            "stages.exact_dedup.edges", "stages.lsh.candidates",
            "stages.verify.pairs_verified", "stages.verify.pass_rate",
            "stages.components.edges_in", "stages.components.clusters",
            "state.manifest.self_s", "state.manifest.bytes_written",
            "state.manifest.resume_s")
KERNELS = ("functions.imagecodec.decode_s", "functions.imagecodec.phash_s",
           "stages.signatures.pixel_hashes_s", "functions.hashing.shingle_s",
           "functions.hashing.minhash_s", "functions.hashing.simhash_s",
           "functions.hashing.winnow_s", "stages.components.union_find_s")
TRACE = ("trace.op_wall_s", "trace.overhead_s", "trace.stage_self_share")
PER_LAYER = (tuple(f"{s}.wall_s" for s in LAYERS) + COUNTERS + KERNELS
             + TRACE)


class OpTimeout(Exception):
    pass


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------- host
def start_calib() -> subprocess.Popen:
    """Single-thread matmul seconds with BLAS pinned to one thread -- the
    host-speed probe of bench.py's ``_calib_sec``, kept here verbatim so
    the stamp stays comparable across runs of this benchmark.  It runs
    beside the input generator; ``read_calib`` collects it."""
    code = ("import time, numpy as np\n"
            "a = np.random.default_rng(0).random((1200, 1200))\n"
            "t0 = time.time()\n"
            "for _ in range(6):\n"
            "    a = a @ a\n"
            "    a /= np.abs(a).max()\n"
            "print(round(time.time() - t0, 2))\n")
    env = {**os.environ, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)


def read_calib(proc: subprocess.Popen) -> float:
    try:
        return float(proc.communicate(timeout=60)[0].strip())
    except (subprocess.SubprocessError, ValueError):
        proc.kill()
        proc.wait()
        return -1.0


def nproc() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS), or -1."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
        return int(out.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return -1


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user nice system idle
    iowait irq softirq steal ...), or [] where there is none."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests: the host
    noise that no setting of this benchmark removes."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if len(d) > 7 and sum(d) else -1.0


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter (VmHWM) of this process."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    if since_reset:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- input
def prepare_input(spec: dict, seed: int) -> Path:
    out = ROOT / ".perfbench" / "cache" / f"{spec['kind']}-n{spec['rows']}-s{seed}"
    if not (out / "_SUCCESS").exists():
        out.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "gen.py"),
                        "--kind", spec["kind"], "--rows", str(spec["rows"]),
                        "--seed", str(seed), "--out", str(out)],
                       check=True, timeout=90, cwd=ROOT)
    return out


# ---------------------------------------------------------------- ray
def ray_tmp_dir() -> str | None:
    """Ray's session files go inside the checkout when the path leaves
    room for Ray's unix sockets: a socket path is the temp dir plus ~64
    bytes of session suffix, at most 107 bytes.  Else Ray's default."""
    d = ROOT / ".perfbench" / "ray"
    return str(d) if len(str(d)) <= 40 else None


def start_ray() -> None:
    import ray
    import ray.data as rd

    kw = {}
    tmp = ray_tmp_dir()
    if tmp:
        os.environ["RAY_TMPDIR"] = tmp
        kw["_temp_dir"] = tmp
    else:
        print("checkout path too long for Ray's sockets; Ray uses its "
              "default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=LOGICAL_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    rd.DataContext.get_current().enable_progress_bars = False


def stop_ray(force: bool) -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    if force:
        subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                        "--force"], capture_output=True, timeout=20)
        tmp = ray_tmp_dir()
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)


def with_timeout(fn, deadline: float):
    """Run ``fn`` on a daemon thread; raise OpTimeout if it is still
    running after OP_TIMEOUT_S seconds or at ``deadline`` (perf_counter
    time), whichever is first.  The caller then tears Ray down."""
    timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        raise OpTimeout("no time left in the run for another op")
    box = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as exc:    # re-raised on the calling thread
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise OpTimeout(f"op still running after {timeout:.1f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------- ops
@contextlib.contextmanager
def _no_span(name):
    yield None


def _read(input_dir: Path):
    # lazy: the read runs inside the first stage that materializes
    import ray.data as rd

    return rd.read_parquet(str(input_dir))


def _collect(ds, span, by: str):
    with span("ray.data.to_pandas"):
        return ds.to_pandas().sort_values(by, ignore_index=True)


def image_op(input_dir: Path, ck_root: Path | None, span) -> dict:
    """The flagship over ``input_dir``; with ``ck_root``, a fresh
    checkpointed run followed by a resume from the same root."""
    from courlan_ray.config import DedupConfig
    from courlan_ray.pipelines import image_dedup
    from courlan_ray.state.manifest import Checkpoint

    cfg = DedupConfig()

    def once():
        ck = Checkpoint(str(ck_root), cfg) if ck_root else None
        out = image_dedup.dedup_pipeline(_read(input_dir), cfg,
                                         checkpoint=ck)
        return (_collect(out["clusters"], span, "image_id"),
                _collect(out["counters"], span, "reject_reason"))

    with span("op"):
        t0 = time.perf_counter()
        res = dict(zip(("clusters", "counters"), once()))
        if ck_root:
            t1 = time.perf_counter()
            res["resumed"] = once()[0]
            res["resume_s"] = time.perf_counter() - t1
        res["wall_s"] = time.perf_counter() - t0
    return res


def text_op(input_dir: Path, scale: bool, span) -> dict:
    from courlan_ray.config import DedupConfig
    from courlan_ray.pipelines import text_dedup

    cfg = DedupConfig(**SCALE_PATH) if scale else DedupConfig()
    with span("op"):
        t0 = time.perf_counter()
        out = text_dedup.text_dedup_pipeline(_read(input_dir), cfg)
        clusters = _collect(out["clusters"], span, "image_id")
        wall = time.perf_counter() - t0
    return {"clusters": clusters, "wall_s": wall}


class Workload:
    def __init__(self, name: str, data: Path, seed: int, deadline: float):
        self.data, self.deadline = data, deadline
        self.kind = WORKLOADS[name]["kind"]
        self.rows = WORKLOADS[name]["rows"]
        self._n_ck = 0
        self.reference = None
        from courlan_ray.sources.synth import truth_tables

        self.truth = truth_tables(self.rows, seed)[0]
        if self.kind == "text":
            # gen.py's doc_id is the row index; the pipeline casts it to
            # string, while truth_tables names rows img-<index>
            import pyarrow as pa
            import pyarrow.compute as pc

            self.truth = pa.table({
                c: pc.cast(pc.cast(pc.utf8_slice_codeunits(self.truth[c], 4),
                                   "int64"), "string")
                for c in ("left_id", "right_id")})

    def ck_dir(self) -> Path:
        return ROOT / ".perfbench" / "ck" / str(os.getpid())

    def op(self, tracer=None, durable: bool = False) -> dict:
        span = tracer.span if tracer else _no_span
        data = self.data / "input"
        if self.kind == "text":
            return text_op(data, True, span)
        if not durable:
            return image_op(data, None, span)
        self._n_ck += 1
        ck = self.ck_dir() / str(self._n_ck)
        res = image_op(data, ck, span)
        res["bytes_written"] = sum(
            p.stat().st_size for p in ck.rglob("*") if p.is_file())
        return res

    def warmup(self) -> None:
        """The timed op, once and untimed, so the first timed op is not the
        first run of its code paths in the session."""
        with_timeout(self.op, self.deadline)

    def load_reference(self) -> None:
        """The text workload's driver-path cluster assignment, which the
        scale path must match: computed once per input and cached beside
        it.  Runs after set-up and before the timed ops."""
        if self.kind != "text":
            return
        import pandas as pd

        path = self.data / "reference.parquet"
        if not path.exists():
            res = with_timeout(
                lambda: text_op(self.data / "input", False, _no_span),
                self.deadline)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            res["clusters"][["image_id", "cluster_id"]].to_parquet(tmp)
            os.replace(tmp, path)
        self.reference = pd.read_parquet(path)

    def check(self, res: dict) -> None:
        import pyarrow as pa
        from courlan_ray.pipelines.image_dedup import pair_recall

        clusters = res["clusters"]
        recall = pair_recall(pa.Table.from_pandas(clusters), self.truth)
        if recall != 1.0:
            raise CheckFailed(f"dup-pair recall {recall:.4f} != 1.0")
        if self.kind == "text":
            got = clusters[["image_id", "cluster_id"]].reset_index(drop=True)
            if not got.equals(self.reference):
                raise CheckFailed("scale-path assignment differs from the "
                                  "driver path")
            return
        if int(res["counters"]["n"].sum()) != self.rows:
            raise CheckFailed("reject counters do not add up to the input")
        if "resumed" in res and not res["resumed"].equals(clusters):
            raise CheckFailed("resumed clusters differ from the fresh run")


def time_left(ops: list, deadline: float, ops_needed: int = 2) -> bool:
    """Whether ``ops_needed`` more ops of the slowest wall so far fit
    before ``deadline``."""
    slowest = max((o["wall_s"] for o in ops if "wall_s" in o), default=0.0)
    return time.perf_counter() + ops_needed * slowest < deadline


# ---------------------------------------------------------------- trace
def run_op(w: Workload, tracer, ops: list, traced: bool,
           durable: bool = False) -> dict | None:
    """One op, timed and checked, recorded in ``ops``; returns its layer
    numbers when traced and correct.  OpTimeout propagates: the caller
    stops measuring and tears Ray down."""
    rec = {"traced": traced, "durable": durable, "ok": False}
    ops.append(rec)
    gc.collect()        # garbage of the previous op stays out of this peak
    since_reset = reset_peak_rss()
    try:
        if traced:
            first = len(tracer.spans)
            with tracer.patched():
                res = with_timeout(lambda: w.op(tracer, durable=durable),
                                   w.deadline)
            calls = tracer.take_calls()
        else:
            res = with_timeout(w.op, w.deadline)
        rec["wall_s"] = res["wall_s"]
        rec["peak_rss_mb"] = peak_rss_mb(since_reset)
        w.check(res)
        rec["ok"] = True
        if traced:
            root = next(s for s in tracer.spans[first:] if s["name"] == "op")
            return layer_numbers(tracer, root["id"], calls, res)
    except OpTimeout as exc:
        rec["error"] = repr(exc)
        raise
    except Exception as exc:           # a failed op is counted, not fatal
        rec["error"] = repr(exc)
    return None


def layer_numbers(tracer, root_id: int, calls: dict, res: dict) -> dict:
    """Per-layer numbers of one traced op from its spans and the stage
    outputs the wrappers kept (counted after the op's timing ended)."""
    import pyarrow.compute as pc
    import ray

    from spans import CHECKPOINT_LAYER, self_times, subtree

    spans = subtree(tracer.spans, root_id)
    own = self_times(spans)
    root = spans[0]
    wall = root["end"] - root["start"]
    m = {f"{s}.wall_s": 0.0 for s in LAYERS}
    manifest_self = 0.0
    for s in spans[1:]:
        if s["name"] == CHECKPOINT_LAYER:
            manifest_self += own[s["id"]]
        else:
            m[f"{s['name']}.wall_s"] += s["end"] - s["start"]
    m["state.manifest.self_s"] = manifest_self
    m["trace.stage_self_share"] = sum(own[s["id"]] for s in spans[1:]) / wall
    m["trace.op_wall_s"] = wall

    def first(layer):
        return calls.get(layer, [(None, None)])[0]

    _, sig = first("stages.signatures")
    m["stages.signatures.rows_out"] = sig.count() if sig else 0
    m["stages.signatures.bytes_out"] = sig.size_bytes() if sig else 0
    _, exact = first("stages.exact_dedup")
    m["stages.exact_dedup.edges"] = exact.count() if exact else 0
    _, cands = first("stages.lsh")
    m["stages.lsh.candidates"] = cands.count() if cands else 0
    _, scored = first("stages.verify")
    verified = 0
    if scored:
        verified = sum(pc.sum(t["verified"]).as_py() or 0
                       for t in ray.get(scored.to_arrow_refs()))
    m["stages.verify.pairs_verified"] = verified
    m["stages.verify.pass_rate"] = (verified / m["stages.lsh.candidates"]
                                    if m["stages.lsh.candidates"] else 0.0)
    args, _ = first("stages.components")
    m["stages.components.edges_in"] = args[0].count() if args else 0
    m["stages.components.clusters"] = int(res["clusters"]["cluster_id"]
                                          .nunique())
    m["state.manifest.bytes_written"] = res.get("bytes_written", 0)
    m["state.manifest.resume_s"] = res.get("resume_s", 0.0)
    return m


def kernel_times(w: Workload) -> dict:
    """Ray-free kernel seconds over the first 1,024 rows of the input,
    each the median of KERNEL_REPS calls."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from courlan_ray.config import DedupConfig
    from courlan_ray.functions import hashing, imagecodec
    from courlan_ray.stages.components import driver_union_find

    cfg = DedupConfig()
    batch = pq.read_table(sorted((w.data / "input").glob("*.parquet"))[0]) \
        .slice(0, KERNEL_ROWS)

    def timed(fn):
        ts = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    out = dict.fromkeys(KERNELS, 0.0)
    if w.kind == "image":
        from courlan_ray.stages.canonicalize import canonicalize_batch
        from courlan_ray.stages.signatures import pixel_hashes_batch

        canon = canonicalize_batch(batch, cfg)
        valid = canon["valid"].to_numpy(zero_copy_only=False)
        texts = [t for t, v in zip(canon["caption_key"].to_pylist(), valid)
                 if v]
        payloads = batch["bytes"].to_pylist()

        def decode_all():
            arrs = []
            for p in payloads:
                try:
                    arrs.append(imagecodec.decode_image(p))
                except imagecodec.CodecError:
                    pass
            return arrs
        arrs = decode_all()
        out["functions.imagecodec.decode_s"] = timed(decode_all)
        out["functions.imagecodec.phash_s"] = timed(
            lambda: [imagecodec.phash64(a) for a in arrs])
        out["stages.signatures.pixel_hashes_s"] = timed(
            lambda: pixel_hashes_batch(payloads))
        ids = set(batch["image_id"].to_pylist())
    else:
        norm = pc.utf8_lower(pc.utf8_trim_whitespace(
            pc.replace_substring_regex(batch["text"], r"\s+", " ")))
        texts = norm.to_pylist()
        ids = set(pc.cast(batch["doc_id"], "string").to_pylist())
    # the planted duplicate pairs within the batch
    pairs = w.truth.to_pandas()
    edges = pairs[pairs.left_id.isin(ids) & pairs.right_id.isin(ids)]

    sh, counts = hashing.char_shingle_hashes(texts, cfg.shingle_width,
                                             seed=cfg.seed)
    out["functions.hashing.shingle_s"] = timed(
        lambda: hashing.char_shingle_hashes(texts, cfg.shingle_width,
                                            seed=cfg.seed))
    out["functions.hashing.minhash_s"] = timed(
        lambda: hashing.minhash_signatures(sh, counts, cfg.num_perm,
                                           seed=cfg.seed + 1))
    out["functions.hashing.simhash_s"] = timed(
        lambda: hashing.simhash64(sh, counts))
    out["functions.hashing.winnow_s"] = timed(
        lambda: hashing.winnowing_fingerprints(
            texts, cfg.fingerprint_k, cfg.fingerprint_window,
            seed=cfg.seed + 2))
    edges = edges[["left_id", "right_id"]].reset_index(drop=True)
    if len(edges):
        out["stages.components.union_find_s"] = timed(
            lambda: driver_union_find(edges))
    return out


# ---------------------------------------------------------------- main
def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (ROOT / "courlan_ray" / "__init__.py").is_file():
        print(f"courlan_ray package not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    # Ray workers import the package from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)

    t_run = time.perf_counter()
    deadline = t_run + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]
    calib_proc = start_calib()
    w = Workload(args.workload, prepare_input(spec, args.seed), args.seed,
                 deadline)
    calib = read_calib(calib_proc)

    import ray

    from spans import Tracer
    import courlan_ray.pipelines.image_dedup  # noqa: F401  (import outside setup)
    import courlan_ray.pipelines.text_dedup   # noqa: F401

    tracer = Tracer(t_run)
    setups, ops, layers = [], [], []
    errors, notes = [], []
    hung = False
    steal = -1.0
    manifest, kernels = {}, {}
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            start_ray()
            w.warmup()
            setups.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                stop_ray(force=False)
        w.load_reference()

        ticks = cpu_ticks()
        t_meas = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            m = run_op(w, tracer, ops, traced)
            if m:
                layers.append(m)
            done = (time.perf_counter() - t_meas >= args.seconds
                    and len(ops) >= (2 if args.trace else MIN_OPS))
            if done and (not args.trace or len(ops) % 2 == 0):
                break
            if not time_left(ops, deadline):
                notes.append("window cut short by the run time limit")
                break
        steal = steal_share(ticks, cpu_ticks())
        if args.trace:
            if w.kind == "image" and time_left(ops, deadline, ops_needed=3):
                # the checkpoint layer: one traced fresh run plus resume
                m = run_op(w, tracer, ops, traced=True, durable=True)
                manifest = {k: v for k, v in (m or {}).items()
                            if k.startswith("state.manifest.")}
            kernels = kernel_times(w)
    except OpTimeout as exc:
        errors.append(repr(exc))
        hung = True
    except Exception as exc:           # set-up or a stage outside the ops
        errors.append(repr(exc))
    finally:
        stop_ray(force=True)
        shutil.rmtree(w.ck_dir(), ignore_errors=True)

    ok_ops = [o for o in ops if o["ok"]]
    attempted = max(len(ops), 1)
    failed = attempted - len(ok_ops)
    correct = failed == 0 and not errors
    plain = [o["wall_s"] for o in ok_ops if not o["traced"]]
    if args.trace:
        med = dict.fromkeys(PER_LAYER, 0.0)      # zeros if no traced op ran
        med.update({k: statistics.median(d[k] for d in layers)
                    for k in (layers[0] if layers else {})})
        med.update(manifest)
        traced_walls = [o["wall_s"] for o in ok_ops
                        if o["traced"] and not o["durable"]]
        if plain and traced_walls:
            med["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain))
        med.update(kernels)
        metrics = {k: {"value": med[k], "unit": _unit(k)} for k in PER_LAYER}
    else:
        metrics = {
            "rows_per_s": {"value": (w.rows / statistics.median(plain)
                                     if plain else 0.0), "unit": "rows/s"},
            "setup_s": {"value": (statistics.median(setups)
                                  if setups else 0.0), "unit": "s"},
            "driver_peak_rss_mb": {"value": (statistics.median(
                o["peak_rss_mb"] for o in ok_ops if not o["traced"])
                if plain else 0.0), "unit": "MB"},
        }
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rows": w.rows, "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "logical_cpus": LOGICAL_CPUS, "ray_version": ray.__version__,
        "python": platform.python_version(), "calib_s": calib,
        "steal_share": steal,
        "setup_runs_s": setups, "ops": ops, "errors": errors,
        "notes": notes,
        "run_s": time.perf_counter() - t_run,
    }
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{args.workload}-s{args.seed}-t{args.trace}"
              f"-{os.getpid()}.json", "w") as fh:
        json.dump({"context": context, "metrics": metrics,
                   "spans": tracer.spans}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    if hung:    # the timed-out op's thread may still be blocked in Ray
        os._exit(0)
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("pass_rate") or name.endswith("share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
