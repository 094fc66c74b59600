"""Outside-in span tracer: wraps each layer's public callables at class
level, in the traced child only.

A wrapped call records a span (name, start, end, parent span, op id)
while the harness is inside a timed op; outside timed ops the wrapper
is one flag test. A layer's *self time* is its spans' duration minus
the part covered by child spans, accumulated online per (phase, name)
so a run of any length costs constant memory; the raw spans of the
first measured round are kept and written to
``out/trace-<workload>.json`` at exit.

GF kernel time is inside ``codes``: kernels are imported by name into
the codec modules, so splitting them out needs in-program spans.
"""

from __future__ import annotations

import json
import types
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = (
    "codes", "cluster.placement", "cluster.metrics", "dfs.filesystem",
    "dfs.namenode", "dfs.shards", "dfs.journal", "dfs.datanode",
    "dfs.integrity", "dfs.client", "dfs.transcoder", "dfs.recovery",
    "dfs.heartbeat", "sched",
)


def _nbytes_of_data_arg(args, kw, _result, _token):
    """Payload size of ``f(self, chunk_id, data, ...)``."""
    data = args[2] if len(args) > 2 else kw["data"]
    return data.nbytes


def _nbytes_of_result(_args, _kw, result, _token):
    return result.nbytes


def _journal_size(args, _kw):
    return args[0].byte_size


def _journal_growth(args, _kw, _result, token):
    return args[0].byte_size - token


def _merged_data_bytes(_args, _kw, result, _token):
    """User bytes under the stripes a conversion produced."""
    finals = result[0]
    if not isinstance(finals, list):
        finals = [finals]
    return sum(s.k * s.chunk_size() for s in finals)


class Tracer:
    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.op_id = -1
        self.names: List[str] = []
        self.layers: List[str] = []
        #: per phase: one ``[calls, self_s, total_s, bytes]`` cell per name
        self.by_phase: Dict[str, List[list]] = {}
        self._cells: List[list] = []
        self._stack: List[list] = []
        #: kept spans: (name index, start, end, parent span index, op id)
        self.spans: List[Optional[tuple]] = []

    # -- wiring ----------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        cells = self.by_phase.get(phase)
        if cells is None:
            cells = self.by_phase[phase] = [[0, 0.0, 0.0, 0] for _ in self.names]
        self._cells = cells

    def _wrap(self, layer: str, name: str, fn: Callable,
              before: Optional[Callable] = None,
              count: Optional[Callable] = None) -> Callable:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        tracer = self
        stack = self._stack

        def traced(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            token = before(args, kw) if before is not None else None
            sid = -1
            if tracer.keep_spans:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                cell = tracer._cells[index]
                cell[0] += 1
                cell[1] += dur - frame[0]
                cell[2] += dur
                if sid >= 0:
                    parent = stack[-1][1] if stack else -1
                    tracer.spans[sid] = (index, t0, t1, parent, tracer.op_id)
            if count is not None:
                tracer._cells[index][3] += count(args, kw, result, token)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, layer: str, cls: type, attr: str, **hooks) -> None:
        raw = cls.__dict__.get(attr)
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(layer, name, raw.__func__, **hooks)))
        else:
            setattr(cls, attr, self._wrap(layer, name, getattr(cls, attr), **hooks))

    def wrap_public(self, layer: str, cls: type) -> None:
        """Every public method and classmethod the class itself defines."""
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (types.FunctionType, classmethod)):
                self.wrap_method(layer, cls, attr)

    def install(self) -> None:
        """Wrap the layer boundaries. Imports happen here so the module
        itself imports without the program on the path."""
        from repro.cluster.metrics import IOMetrics
        from repro.cluster.placement import TranscodeAwarePlacement
        from repro.codes.base import ErasureCode
        from repro.codes.lrcc import LocallyRecoverableConvertibleCode
        from repro.dfs import transcoder as transcoder_module
        from repro.dfs.client import ClientReader
        from repro.dfs.datanode import Datanode
        from repro.dfs.filesystem import MorphFS
        from repro.dfs.heartbeat import HeartbeatMonitor
        from repro.dfs.integrity import ChecksumRegistry, Scrubber
        from repro.dfs.journal import Journal, JournaledNamenode
        from repro.dfs.namenode import Namenode
        from repro.dfs.recovery import RecoveryManager
        from repro.dfs.shards import ShardedNamenode
        from repro.dfs.transcoder import NativeTranscoder
        from repro.sched.scheduler import MaintenanceScheduler

        for attr in ("encode", "encode_stripe", "encode_batch",
                     "decode", "decode_stripe", "decode_batch"):
            self.wrap_method("codes", ErasureCode, attr)
        for attr in ("decode", "local_repair"):
            self.wrap_method("codes", LocallyRecoverableConvertibleCode, attr)
        # Conversions are module functions the transcoder imported by
        # name; rebinding its module globals is the outside seam.
        for attr in ("convert", "convert_cc_to_lrcc", "convert_lrcc_to_lrcc"):
            setattr(transcoder_module, attr, self._wrap(
                "codes", attr, getattr(transcoder_module, attr),
                count=_merged_data_bytes,
            ))
        setattr(transcoder_module, "plan_conversion", self._wrap(
            "codes", "plan_conversion", transcoder_module.plan_conversion))

        for attr in ("place_stripe", "place_replicas"):
            self.wrap_method("cluster.placement", TranscodeAwarePlacement, attr)
        for attr in ("record_disk_read", "record_disk_write", "record_disk_delete",
                     "record_transfer", "record_cpu", "record_maintenance"):
            self.wrap_method("cluster.metrics", IOMetrics, attr)
        for attr in ("write_file", "transcode", "read_file", "delete_file",
                     "capacity_used"):
            self.wrap_method("dfs.filesystem", MorphFS, attr)

        self.wrap_public("dfs.namenode", Namenode)
        self.wrap_public("dfs.shards", ShardedNamenode)
        self.wrap_public("dfs.journal", JournaledNamenode)
        self.wrap_method("dfs.journal", Journal, "__init__")
        self.wrap_method("dfs.journal", Journal, "append",
                         before=_journal_size, count=_journal_growth)
        self.wrap_method("dfs.journal", Journal, "rewrite")
        self.wrap_method("dfs.journal", Journal, "close")

        for attr in ("receive_to_memory", "receive_to_disk", "store_local"):
            self.wrap_method("dfs.datanode", Datanode, attr, count=_nbytes_of_data_arg)
        for attr in ("read", "read_range"):
            self.wrap_method("dfs.datanode", Datanode, attr, count=_nbytes_of_result)
        for attr in ("receive_many_to_disk", "store_local_many", "persist",
                     "drop_from_memory", "delete"):
            self.wrap_method("dfs.datanode", Datanode, attr)

        for attr in ("record", "verify"):
            self.wrap_method("dfs.integrity", ChecksumRegistry, attr,
                             count=_nbytes_of_data_arg)
        for attr in ("scan", "scan_and_repair"):
            self.wrap_method("dfs.integrity", Scrubber, attr)
        self.wrap_method("dfs.client", ClientReader, "read")
        for attr in ("run_pending", "execute_group"):
            self.wrap_method("dfs.transcoder", NativeTranscoder, attr)
        for attr in ("lost_chunks", "recover_all", "recover_chunks", "recover_chunk"):
            self.wrap_method("dfs.recovery", RecoveryManager, attr)
        self.wrap_method("dfs.heartbeat", HeartbeatMonitor, "tick")
        for attr in ("submit", "run_tick", "run_until_drained"):
            self.wrap_method("sched", MaintenanceScheduler, attr)

    # -- results ----------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, list]]:
        """``{phase: {name: [calls, self_s, total_s, bytes]}}`` for names
        that were called."""
        return {
            phase: {self.names[i]: cell for i, cell in enumerate(cells) if cell[0]}
            for phase, cells in self.by_phase.items()
        }

    def layer_of(self) -> Dict[str, str]:
        return dict(zip(self.names, self.layers))

    def write_spans(self, path, ops: List[tuple]) -> None:
        """Kept spans in columnar form; ``ops[op id]`` is the
        (round, phase, subject) of the timed op a span belongs to."""
        doc = {
            "names": self.names,
            "layers": self.layers,
            "ops": ops,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
