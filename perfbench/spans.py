"""In-memory spans around the public stage functions of courlan_ray.

``Tracer.patched()`` swaps the module attributes the pipelines look up for
span-recording wrappers and restores them on exit; the program's modules
are not edited.  A wrapped function that returns a lazy Dataset is
materialized inside its span, so the span covers the work it started.
The traced plan therefore materializes every wrapped stage, also those the
untraced pipeline leaves lazy (image ``filter_by_keys``, text
``candidate_pairs``); the traced-minus-untraced op wall shows what that
costs.  Lazy work upstream of a wrapped stage, such as the input read, runs
inside that stage's span.  Spans are kept in memory as (id, parent, name,
start, end) and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import time

# (module, attribute, layer): every place a pipeline looks a stage up.
# Imports inside a function body (image_dedup's filter_by_keys, text_dedup's
# verify_pairs) resolve through the defining module at call time.
TARGETS = (
    ("courlan_ray.pipelines.image_dedup", "compute_signatures",
     "stages.signatures"),
    ("courlan_ray.pipelines.image_dedup", "exact_dup_edges",
     "stages.exact_dedup"),
    ("courlan_ray.stages.joins", "filter_by_keys", "stages.joins"),
    ("courlan_ray.pipelines.image_dedup", "candidate_pairs", "stages.lsh"),
    ("courlan_ray.pipelines.image_dedup", "verify_pairs", "stages.verify"),
    ("courlan_ray.pipelines.image_dedup", "cluster_assignments",
     "stages.components"),
    ("courlan_ray.pipelines.image_dedup", "reject_counters",
     "stages.canonicalize"),
    ("courlan_ray.pipelines.text_dedup", "text_signatures",
     "stages.signatures"),
    ("courlan_ray.pipelines.text_dedup", "candidate_pairs", "stages.lsh"),
    ("courlan_ray.stages.verify", "verify_pairs", "stages.verify"),
    ("courlan_ray.pipelines.text_dedup", "cluster_assignments",
     "stages.components"),
)
CHECKPOINT_LAYER = "state.manifest"


class Tracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # per layer: (args, result) of every wrapped call since the last
        # take_calls(), for counters computed after the op's timing ends
        self.calls: dict[str, list[tuple]] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter() - self.t0,
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def wrap(self, fn, layer: str):
        from ray.data import Dataset

        def traced(*args, **kwargs):
            with self.span(layer):
                out = fn(*args, **kwargs)
                if isinstance(out, Dataset):
                    out = out.materialize()
            self.calls.setdefault(layer, []).append((args, out))
            return out
        return traced

    def take_calls(self) -> dict[str, list[tuple]]:
        calls, self.calls = self.calls, {}
        return calls

    @contextlib.contextmanager
    def patched(self):
        import importlib

        from courlan_ray.state.manifest import Checkpoint

        saved = []
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, layer))
        orig_run = Checkpoint.run

        def run(ck, name, make):
            with self.span(CHECKPOINT_LAYER):
                return orig_run(ck, name, make)
        Checkpoint.run = run
        try:
            yield self
        finally:
            Checkpoint.run = orig_run
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> its duration minus the time its direct children cover
    (children of one parent run one after another on the driver)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def subtree(spans: list[dict], root: int) -> list[dict]:
    ids = {root}
    out = []
    for s in spans:                 # parents precede children
        if s["id"] in ids or s["parent"] in ids:
            ids.add(s["id"])
            out.append(s)
    return out
