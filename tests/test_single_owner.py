"""One cluster model: each fact about a server has one owner.

Source scans that pin the structure — a second liveness flag, victim
sampler, slowdown table or inline reachability test is how the DFS, the
latency simulator and the burst simulator drifted apart before — plus
the check that moving Fig 14d's failures onto the shared injector did
not move its victims.  The same for the namenode: its state has one
write path, ``Namenode.apply``, and the journal and the shard router
own nothing but their ``apply``; where a chunk lives changes only inside
a handler, which is what keeps the per-node chunk index exact; and a
registered file's layout changes only there too — append, close and seal
stage, publish through ``relayout_file``, then discard.  And for
the codec: one multiply plan
for both fields, one recovery routine for every code.  And for the write
path: a chunk enters, moves and leaves through three ``_BaseDFS`` doors
that own its checksum, and a hybrid stripe has one writer, one sealer
and one transcode commit.  And for stored bytes: a store never copies,
nothing makes an array writable again, and a datanode's disk map is
assigned by the datanode — and by the one helper that damages it.  And
for the read path: one function reads a datanode on behalf of a reader,
one decodes, and "which stripe / replica block holds data chunk i" is
``FileMeta``'s to answer.  And for the bench: ``repro bench`` times
nothing ``benchmarks/e2e`` already times.  And for the field: GF(2^8)
and GF(2^16) are two values of one type, every algorithm over a field
is written once, and the wide code is a convertible code that names
only its point family.  And for the event engine: one place schedules
an event and one resumes a process.  And for the source as a whole:
nothing under ``src/repro`` is reached only by its own tests.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.cluster.failure import FailureInjector
from repro.dfs import journal, namenode
from repro.dfs.journal import JournaledNamenode, Op
from repro.dfs.namenode import Namenode
from repro.dfs.shards import ShardedNamenode
from repro.sim.cluster import SimCluster

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}


def files_matching(pattern: str, under: str = "") -> list:
    regex = re.compile(pattern)
    return sorted(
        name for name, text in SOURCES.items()
        if name.startswith(under) and regex.search(text)
    )


def test_one_class_stores_liveness():
    owners = set()
    for name, text in SOURCES.items():
        for klass in ast.walk(ast.parse(text)):
            if not isinstance(klass, ast.ClassDef):
                continue
            for node in ast.walk(klass):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(getattr(t, "attr", getattr(t, "id", None)) == "is_alive" for t in targets):
                    owners.add(f"{name}:{klass.name}")
    assert owners == {"cluster/topology.py:Node"}


def test_one_victim_sampler():
    assert files_matching(r"def fail_fraction\(") == ["cluster/failure.py"]
    assert SOURCES["cluster/failure.py"].count("def fail_fraction(") == 1


def test_mask_consulted_only_through_the_seam():
    assert files_matching(r"\.reachable\(") == ["dfs/filesystem.py"]
    assert not files_matching(r"getattr\(\s*(self\.)?fs,\s*\"partition\"")


@pytest.mark.parametrize("package", ["dfs/", "sched/"])
def test_no_inline_readable_test(package):
    # "up and holds the chunk" is spelled once, in MorphFS.chunk_readable.
    assert not files_matching(r"is_alive\s+and\s+\w+(\.\w+)*\.has_chunk", under=package)
    assert not files_matching(r"not\s+\w+\.is_alive\s+or\s+not\s+\w+\.has_chunk", under=package)


def test_duplicates_stay_deleted():
    assert "cluster/latency.py" not in SOURCES
    assert not files_matching(r"SimNode")
    assert not files_matching(r"net_multiplier")
    assert not files_matching(r"node_disk_multipliers")
    assert '"sim0' not in SOURCES["cluster/scenarios.py"]


def test_slowdown_read_from_the_node():
    for name in ("dfs/client.py", "sim/cluster.py", "sched/simulate.py"):
        assert re.search(r"\.disk_multiplier\b(?!\()", SOURCES[name]), name


# Victims (in draw order) and the simulation rng's next draw after
# ``SimCluster(seed=s).fail_fraction(0.10)`` at the commit that deleted it.
FIG14D_VICTIMS = {
    0: (["dn018", "dn014"], 0.04097352393619469),
    1: (["dn010", "dn011"], 0.14415961271963373),
    2: (["dn006", "dn018"], 0.8142257405942803),
    3: (["dn001", "dn017"], 0.8012744652063969),
    4: (["dn015", "dn021"], 0.9762437057077041),
}


@pytest.mark.parametrize("seed", sorted(FIG14D_VICTIMS))
def test_injector_on_sim_rng_reproduces_fig14d_victims(seed):
    sim = SimCluster(seed=seed)
    victims = FailureInjector(sim, seed=sim.rng).fail_fraction(0.10)
    expected, next_draw = FIG14D_VICTIMS[seed]
    assert victims == expected
    assert [n.node_id for n in sim.nodes if not n.is_alive] == sorted(expected)
    assert sim.rng.random() == next_draw


# -- one write path for namenode state ----------------------------------------

MUTATORS = (
    "register_file", "register_files", "unregister_file", "rename", "note_chunk",
    "place_chunks", "relayout_file", "drop_replicas", "next_chunk_id", "next_chunk_ids",
    "enqueue_transcode", "record_new_stripe", "try_finalize",
)
OP_TYPES = {
    namenode.Register, namenode.RegisterBatch, namenode.Unregister, namenode.Rename,
    namenode.Note, namenode.Place, namenode.Relayout, namenode.DropReplicas, namenode.Mint,
    namenode.Enqueue, namenode.NewStripe, namenode.Finalize,
}


def class_def(source: str, name: str) -> ast.ClassDef:
    return next(
        node for node in ast.walk(ast.parse(SOURCES[source]))
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def functions(klass: ast.ClassDef) -> dict:
    return {node.name: node for node in klass.body if isinstance(node, ast.FunctionDef)}


def calls(node: ast.AST) -> set:
    """Names of the attributes called anywhere under ``node``."""
    return {
        call.func.attr for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
    }


def named_calls(node: ast.AST) -> set:
    """Names of the plain functions called anywhere under ``node``."""
    return {
        call.func.id for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_no_replay_flag_and_no_opcode_chain():
    assert not files_matching(r"_suspended")
    assert not files_matching(r"if op is Op\.|elif op is Op\.")


def test_the_op_tables_are_closed_in_both_directions():
    assert set(Namenode._HANDLERS) == OP_TYPES
    assert set(journal._RECORD) == OP_TYPES
    assert set(journal._DECODE) == set(Op)
    opcodes = [row[0] for row in journal._RECORD.values()]
    assert sorted(opcodes) == sorted(set(Op) - {Op.SNAPSHOT})  # one opcode each
    assert (len(journal._RECORD), len(journal._DECODE)) == (12, 13)
    assert len(MUTATORS) == 13


def test_journal_and_router_own_apply_and_no_mutator_body():
    for source, name in (("dfs/journal.py", "JournaledNamenode"),
                         ("dfs/shards.py", "ShardedNamenode")):
        defined = functions(class_def(source, name))
        assert "apply" in defined, name
        assert not set(defined) & set(MUTATORS), name
    for mutator in MUTATORS:
        # Defined on both classes (the benchmark's tracer wraps what a
        # class itself defines), and the very same function.
        assert vars(ShardedNamenode)[mutator] is vars(Namenode)[mutator], mutator
        assert mutator not in vars(JournaledNamenode), mutator


def test_public_mutators_only_build_an_op_and_handlers_never_call_apply():
    defined = functions(class_def("dfs/namenode.py", "Namenode"))
    state = {"files", "utm", "_chunk_seq", "_node_files", "_file_order", "_file_seq"}
    for mutator in MUTATORS:
        body = defined[mutator]
        assert "apply" in calls(body), mutator
        touched = {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
        assert not touched & state, mutator
    handlers = {fn.__name__ for fn in Namenode._HANDLERS.values()}
    assert len(handlers) == len(OP_TYPES) and all(h.startswith("_") for h in handlers)
    for name in handlers | {"_check_new"}:
        assert "apply" not in calls(defined[name]), name


def test_only_namenode_py_assigns_namenode_state():
    assignment = (
        r"\._chunk_seq\s*[-+]?=(?!=)|\.utm\[[^\]]*\]\s*=(?!=)"
        r"|del\s+\w+(\.\w+)*\.utm\[|\.utm\.(pop|clear|update)"
    )
    assert files_matching(assignment) == ["dfs/namenode.py"]


def test_one_record_of_transcode_progress_one_intake_one_crash_model():
    # The staged final stripes are the record: no queue, no bitmap, no
    # abort, no second persistence path beside the journal.
    gone = (
        r"\batq\b|poll_work|complete_parity|pending_bits|abort_transcode"
        r"|\.snapshot\(|\.restore\(|include_transcode|run_transcode_heartbeats"
    )
    assert files_matching(gone) == []
    # One intake rule, ``intake``, which the heartbeat (through
    # ``submit_pending``) and the inline path (``run_pending``) both call.
    assert files_matching(r"(?<!class )ConversionGroupTask\(") == ["dfs/transcoder.py"]
    assert files_matching(r"\.submit_pending\(") == ["dfs/heartbeat.py"]
    assert files_matching(r"def intake\(") == ["dfs/transcoder.py"]
    assert files_matching(r"(?<!def )\bintake\(") == ["dfs/transcoder.py"]
    transcoder = functions(class_def("dfs/transcoder.py", "NativeTranscoder"))
    assert {
        name for name, fn in transcoder.items() if "intake" in named_calls(fn)
    } == {"submit_pending", "run_pending"}


def test_an_inline_transcode_is_a_call_and_a_task_is_metered_by_what_it_touched():
    # The inline path runs each group on the caller: under dfs/ only the
    # filesystem builds a scheduler (its one shared queue, anew at a
    # restart), so there is no private one to tick.
    assert files_matching(r"MaintenanceScheduler\(", under="dfs/") == ["dfs/filesystem.py"]
    # A task is charged from the metering window around it, which holds
    # only the nodes it touched: nothing under sched/ walks every node's
    # counters.
    assert files_matching(r"metrics(\(\))?\.nodes\b", under="sched/") == []
    assert files_matching(r"\.metering\(", under="sched/") == ["sched/scheduler.py"]


def test_replay_goes_through_the_base_apply_and_one_forget_site():
    replay = next(
        node for node in ast.parse(SOURCES["dfs/journal.py"]).body
        if isinstance(node, ast.FunctionDef) and node.name == "replay"
    )
    assert ast.unparse(replay).count("Namenode.apply(nn, op)") == 1
    recover = functions(class_def("dfs/journal.py", "JournaledNamenode"))["recover"]
    assert "replay" in {c.func.id for c in ast.walk(recover)
                        if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
    # Fragment entries die in one place, driven by the record table's
    # "forgets" column.
    assert len(re.findall(r"frags\.pop\(", SOURCES["dfs/journal.py"])) == 1
    assert not files_matching(r"frags\.pop\(|_frags\b", under="dfs/shards")


def test_the_journal_has_one_record_encoder():
    # Every body, splice and digest has one byte form because it comes
    # out of one encoder: no JSON beside it, and marshal's dumps called
    # once — at version 2, inside ``_encode``.
    tree = ast.parse(SOURCES["dfs/journal.py"])
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" not in modules and "marshal" in modules

    def dumps_calls(root):
        return [ast.unparse(node) for node in ast.walk(root) if isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith("dumps")]

    encode = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_encode")
    assert dumps_calls(tree) == dumps_calls(encode) == ["marshal.dumps(doc, 2)"]


# -- chunk placement changes inside the namenode only --------------------------

def test_only_the_namenode_rehomes_a_chunk():
    # ``chunk.node_id = ...`` / ``chunk.chunk_id = ...`` behind the
    # namenode's back is how the index used to go stale (a datanode's
    # own ``self.node_id`` is not a chunk's).  The journal decodes ops;
    # it merges nothing into live metadata.
    assignment = r"(?<!self)\.(node_id|chunk_id)\s*=(?!=)"
    assert files_matching(assignment) == ["dfs/namenode.py"]
    assert not files_matching(r"merge_file|\b_merge_|_decode_note")
    # One decoder is more than a constructor call: NEW_STRIPE's re-link.
    decoders = [
        node.name for node in ast.parse(SOURCES["dfs/journal.py"]).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_decode_")
    ]
    assert decoders == ["_decode_new_stripe"]


def test_the_index_is_written_in_namenode_py_only():
    assert files_matching(r"_node_files") == ["dfs/namenode.py"]
    # ... by handlers and ``load``; the query does not write.
    defined = functions(class_def("dfs/namenode.py", "Namenode"))
    query = defined["chunks_on_node"]
    assert not calls(query) & {"pop", "popitem", "setdefault", "update", "clear"}
    assert not any(
        isinstance(node, ast.Delete)
        or isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)
        for node in ast.walk(query)
    )
    writers = {
        name for name, fn in defined.items()
        if name != "chunks_on_node" and "_node_files" in ast.unparse(fn)
    }
    handlers = {fn.__name__ for fn in Namenode._HANDLERS.values()}
    helpers = {"_index", "_unindex", "_unindex_chunk"}
    assert writers <= handlers | helpers | {"__init__", "load"}
    for name, fn in defined.items():  # the helpers are the handlers' own
        if helpers & calls(fn):
            assert name in handlers | {"load"}, name


def test_the_only_note_builder_is_the_harness_shim_and_nothing_calls_it():
    # 34 note call sites kept the index and the journal honest by
    # convention; none is left.  ``Note`` stays for the benchmark
    # harness: built by ``note_chunk`` (and decoded by the journal).
    assert not files_matching(r"\.note_chunk\(|\.note_file\(|def note_file")
    built = {name: len(re.findall(r"\bNote\(", text)) for name, text in SOURCES.items()}
    assert {name: n for name, n in built.items() if n} == {
        "dfs/journal.py": 1, "dfs/namenode.py": 2,  # the class, and note_chunk
    }
    defined = functions(class_def("dfs/namenode.py", "Namenode"))
    assert "Note(" in ast.unparse(defined["note_chunk"])
    assert len(OP_TYPES) == 12 and not hasattr(namenode.Note, "nodes")


# -- a registered file's layout changes inside the namenode only ----------------

def written_through(fn: ast.FunctionDef, name: str) -> set:
    """What ``fn`` assigns, deletes or grows in place under local ``name``."""
    targets = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            targets.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("append", "extend", "insert", "pop", "remove", "clear")):
            targets.append(node.func.value)
    paths = {ast.unparse(target) for target in targets}
    return {path for path in paths if path.split(".")[0] == name}


def test_append_close_and_seal_stage_then_publish_through_one_op():
    appends = SOURCES["dfs/appends.py"]
    for pattern in (
        r"meta\.stripes\s*=", r"\.stripes\.extend", r"\.replica_blocks(\s*=|\.extend)",
        r"meta\.size\s*=", r"\.parities\.extend", r"del copies\[",
    ):
        assert not re.search(pattern, appends), pattern
    assert not files_matching(r"_drop_open_region")
    # A layout list grows only while its file is being built.
    growers = {
        fn.name
        for fn in ast.walk(ast.parse(SOURCES["dfs/filesystem.py"]))
        if isinstance(fn, ast.FunctionDef)
        and re.search(r"\.(stripes|replica_blocks)\.append\(", ast.unparse(fn))
    }
    assert growers == {"_store_stripe", "_write_replica_pipeline"}
    layout_write = (
        r"\.(stripes|replica_blocks)(\[[^\]]*\])?\s*=(?!=)"
        r"|\.(stripes|replica_blocks)\.(extend|pop|clear|insert)\("
    )
    assert files_matching(layout_write, under="dfs/") == ["dfs/namenode.py"]
    # The sealer returns the stripe sealed; it writes nothing of its own.
    morph = functions(class_def("dfs/filesystem.py", "MorphFS"))
    assert written_through(morph["_seal_stripe"], "stripe") == set()
    assert written_through(morph["_free_transition"], "meta") == set()
    # Stage -> switch -> discard: each caller publishes once, and hands
    # what the op stopped listing to the door.
    appenders = functions(class_def("dfs/appends.py", "AppendSupport"))
    publishers = (appenders["append_file"], appenders["close_file"], morph["_free_transition"])
    for fn in publishers:
        assert ast.unparse(fn).count("relayout_file(") == 1, fn.name
        assert "discard_chunks" in calls(fn), fn.name
    assert "_seal_stripe" in calls(appenders["close_file"]) & calls(morph["_free_transition"])
    # ... and nobody else does.
    assert sum(len(re.findall(r"\.relayout_file\(", text)) for text in SOURCES.values()) == 3
    # The handler finds the blocks under the kept stripes by asking.
    handler = functions(class_def("dfs/namenode.py", "Namenode"))["_relayout"]
    assert "blocks_under" in calls(handler)


# -- one way in, one way out ----------------------------------------------------

def test_sums_and_stores_change_through_the_doors_only():
    # 18 call sites in 5 files kept ``fs.checksums`` honest by convention;
    # ``verify`` reads, and ``quarantine`` deliberately keeps the sum.
    mutation = r"checksums\.(record|record_concat|rekey|forget)\("
    assert files_matching(mutation) == ["dfs/filesystem.py"]
    assert len(re.findall(mutation, SOURCES["dfs/filesystem.py"])) <= 6
    store = r"\.(receive_to_disk|receive_to_memory|store_local)\("
    callers = [name for name in files_matching(store) if name != "dfs/datanode.py"]
    assert callers == ["dfs/filesystem.py"]
    base = functions(class_def("dfs/filesystem.py", "_BaseDFS"))
    assert {"store_chunk", "discard_chunks", "rehome_chunks"} <= set(base)
    assert "record" in calls(base["store_chunk"])
    assert "forget" in calls(base["discard_chunks"])
    assert "rekey" in calls(base["rehome_chunks"]) and "record" not in calls(base["rehome_chunks"])


def test_a_store_never_copies_and_nothing_thaws_a_stored_array():
    assert ".copy()" not in SOURCES["dfs/datanode.py"]
    assert not files_matching(r"setflags\(\s*(write\s*=\s*)?(True|1)|writeable\s*=\s*True")
    # A stored array is replaced, never rewritten, and only the datanode
    # replaces one — bar ``corrupt_chunk``, the sanctioned, copy-on-write
    # way to damage stored bytes.
    assignment = r"\._disk\[[^\]]*\]\s*=(?!=)"
    assert files_matching(assignment) == ["dfs/datanode.py", "dfs/integrity.py"]
    writers = [
        node.name for node in ast.walk(ast.parse(SOURCES["dfs/integrity.py"]))
        if isinstance(node, ast.FunctionDef) and re.search(assignment, ast.unparse(node))
    ]
    assert writers == ["corrupt_chunk"]


def test_one_hybrid_writer_one_sealer_one_commit():
    for name in ("_write_hybrid_region", "_trim_extra_replica", "_write_ec_planned"):
        assert not files_matching(rf"\b{name}\b"), name
    assert sum(len(re.findall(r"def _write_ec", text)) for text in SOURCES.values()) == 1
    assert sum(len(re.findall(r"def _write_hybrid", text)) for text in SOURCES.values()) == 1
    assert sum(len(re.findall(r"def _seal_stripe", text)) for text in SOURCES.values()) == 1
    # The sealer encodes with what reads and repairs decode with.
    seal = functions(class_def("dfs/filesystem.py", "MorphFS"))["_seal_stripe"]
    assert "codec_for_stripe" in calls(seal) and "codec_for" not in calls(seal)
    transcoder = SOURCES["dfs/transcoder.py"]
    assert len(re.findall(r"record_new_stripe\(", transcoder)) == 1
    # Every parity home passes the reachability rule, in one function.
    assert len(re.findall(r"home_for\(", transcoder)) == 2


# -- one rule for where a chunk goes after ingest ---------------------------------

def test_placement_owns_every_home():
    # Seven deciders of "which node", with three ideas of occupied, were
    # one rule plus its callers' candidates: the merge's three helpers,
    # the BWO branch's inline try/except, the seal's and striper's
    # ``_usable_node``, and a policy cache kept by name.
    for name in (
        "_parity_homes", "_lrcc_homes", "_usable_targets", "_placements",
        "_usable_node", "_new_placement", "parity_targets", "parity_peers",
    ):
        assert not files_matching(rf"\b{name}\b"), name
    assert "delete_file" not in functions(class_def("dfs/filesystem.py", "MorphFS"))
    # One function picks a fresh node, and these are all its callers.
    assert files_matching(r"def home_for\(") == ["cluster/placement.py"]
    callers = {}
    for name, text in SOURCES.items():
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef) and fn.name != "home_for":
                hits = len(re.findall(r"\bhome_for\(", ast.unparse(fn)))
                if hits:
                    callers[f"{name}:{fn.name}"] = hits
    assert callers == {
        "dfs/recovery.py:_pick_target": 1,
        "dfs/transcoder.py:_homes": 1,
        "dfs/transcoder.py:_relocate_collisions": 1,
        "dfs/filesystem.py:_seal_stripe": 2,
    }
    # A co-located parity's preference is the policy's ``reserved`` for
    # a merge, a seal and a repair alike; under dfs/ only the function
    # that builds the policy knows its k*-windows.
    assert files_matching(r"\.reserved\(") == [
        "dfs/filesystem.py", "dfs/recovery.py", "dfs/transcoder.py",
    ]
    assert files_matching(r"\bk_star\b", under="dfs/") == ["dfs/filesystem.py"]
    # One plan decides a native conversion — which path runs, what it
    # reads, what it costs: ``plan_conversion``. No cost function, parity
    # table or executor mirrors it, no codec is mapped back to a plan;
    # its ``io()`` is the one ConversionIO.
    assert files_matching(r"def plan_conversion\(") == ["codes/convertible.py"]
    for name in (
        "access_optimal_read_chunks", "lrcc_from_cc_cost", "lrcc_merge_cost",
        "conversion_read_chunks", "merge_sources", "_cc_cost", "for_merge",
        "plan_for_codes", "_scheme_of",
    ):
        assert not files_matching(rf"\b{name}\b"), name
    sites = [
        (name, match.group()) for name, text in SOURCES.items()
        for match in re.finditer(r"\bConversionIO\(", text)
    ]
    assert sites == [("codes/convertible.py", "ConversionIO(")], sites
    transcoder = functions(class_def("dfs/transcoder.py", "NativeTranscoder"))
    assert [name for name in transcoder if name.startswith("_execute")] == [
        "_execute_group_impl"
    ]
    for name in ("_homes", "_load_stripes", "_commit_final_stripe"):
        assert "plan" in [a.arg for a in transcoder[name].args.args], name
    # The e2e tracer rebinds these four as the transcoder's globals: the
    # executor must reach each by that name.
    from repro.dfs import transcoder as module

    traced = ("plan_conversion", "convert", "convert_cc_to_lrcc", "convert_lrcc_to_lrcc")
    names = {
        node.id for node in ast.walk(transcoder["_execute_group_impl"])
        if isinstance(node, ast.Name)
    }
    for name in traced:
        assert callable(getattr(module, name)) and name in names, name
    # Both LRCC conversions share the one combine, and the plan's
    # parity table drives it.
    lrcc = {
        fn.name: fn for fn in ast.walk(ast.parse(SOURCES["codes/lrcc.py"]))
        if isinstance(fn, ast.FunctionDef)
    }
    for name in ("convert_cc_to_lrcc", "convert_lrcc_to_lrcc"):
        assert named_calls(lrcc[name]) & {"_merge", "gf_scale_xor"} == {"_merge"}, name
    assert "parity_reads" in {
        node.attr for node in ast.walk(lrcc["_merge"]) if isinstance(node, ast.Attribute)
    }
    assert not files_matching(r"parity_reads\.add\(")


# -- one way to read a slot -------------------------------------------------------

def test_datanodes_are_read_by_the_reader_the_scrubber_and_relocation_only():
    # 11 call sites in 5 files each spelled "can I reach it, read it,
    # meter the transfer"; four of them went on to decode.
    sites = {}
    for name, text in SOURCES.items():
        if not name.startswith("dfs/") or name == "dfs/datanode.py":
            continue
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                hits = len(re.findall(r"(?<!\.reader)\.read(_range)?\(", ast.unparse(fn)))
                if hits:
                    sites[f"{name}:{fn.name}"] = hits
    assert sites == {
        "dfs/filesystem.py:fetch_chunk": 2,
        "dfs/integrity.py:_scan_impl": 1,
        "dfs/transcoder.py:_relocate_collisions": 1,
    }
    reader = functions(class_def("dfs/filesystem.py", "_BaseDFS"))
    assert {"chunk_readable", "record_transfer"} <= calls(reader["fetch_chunk"])
    # ... and every other way to a slot's bytes goes through it.
    for name in ("fetch_block_range", "fetch_slot"):
        assert "fetch_chunk" in calls(reader[name]), name
    assert "fetch_block_range" in calls(reader["fetch_replica_range"])
    assert {"fetch_replica_range", "fetch_slot"} <= calls(reader["rebuild_slots"])


def test_one_decode_and_one_local_peers_first_rule_under_dfs():
    assert files_matching(r"\.decode\(", under="dfs/") == ["dfs/filesystem.py"]
    assert files_matching(r"group_members", under="dfs/") == ["dfs/filesystem.py"]
    for pattern in (r"\.decode\(", r"group_members"):
        assert len(re.findall(pattern, SOURCES["dfs/filesystem.py"])) == 1, pattern
    assert not files_matching(r"group_members", under="sched/")
    for name in (
        "_read_or_reconstruct", "_read_stripe_data_degraded", "_block_covering",
        "_stripe_of", "_first_data_index", "_replica_pieces", "_survivors",
        "charge_client_decode",
    ):
        assert not files_matching(rf"\b{name}\b"), name
    # The sealer no longer borrows repair's private reader.
    assert "RecoveryManager" not in SOURCES["dfs/filesystem.py"]


def test_layout_walks_live_on_filemeta():
    walk = r"first_chunk\s*<=|(?:passed|first)\s*\+=|stripe_index\s*\*|stripes\[\s*:"
    assert files_matching(walk, under="dfs/") == ["dfs/blocks.py"]
    assert not files_matching(walk, under="sched/")
    meta = functions(class_def("dfs/blocks.py", "FileMeta"))
    assert {
        "stripe_spans", "first_data_index", "stripe_of", "block_covering", "blocks_under",
    } <= set(meta)
    # One walk of the stripe widths; the lookups are built on it.
    assert len(re.findall(r"\+=", ast.unparse(class_def("dfs/blocks.py", "FileMeta")))) == 1


def test_one_protection_group_and_one_rank_rule():
    # ``FileMeta`` pairs a stripe with the replica blocks covering it: no
    # other code compares a block's span with a stripe's, or builds the
    # group itself.
    overlap = r"\.first_chunk\s*[<>+]|[<>]=?\s*[\w.]+\.first_chunk\b"
    assert files_matching(overlap) == ["dfs/blocks.py"]
    assert files_matching(r"\bHybridBlockMeta\(") == ["dfs/blocks.py"]
    assert "hybrid_blocks" in functions(class_def("dfs/blocks.py", "FileMeta"))
    for name in ("replicas_cover", "_has_fast_alternative"):
        assert not files_matching(rf"\b{name}\b"), name
    # Whether what is left suffices is the code's to say (``decodable``),
    # never a count of survivors against ``n - k`` or ``k``.
    survivors = re.compile(r"\bn\s*-\s*[\w.]*\bk\b|>=\s*[\w.]*\bk\b")
    code = {name: ast.unparse(ast.parse(text)) for name, text in SOURCES.items()}
    assert not [
        name for name, text in code.items()
        if (name.startswith("sched/") or name == "dfs/client.py") and survivors.search(text)
    ]
    for name, owner in (
        ("sched/policies.py", "classify_repair"), ("dfs/client.py", "_hedges_past"),
    ):
        fn = next(
            f for f in ast.walk(ast.parse(SOURCES[name]))
            if isinstance(f, ast.FunctionDef) and f.name == owner
        )
        assert {"hybrid_blocks", "rank_rule"} <= calls(fn), owner
    # ... at most one question per node, no search over node subsets.
    for under in ("dfs/", "sched/"):
        assert not files_matching(r"\bcombinations\b", under=under), under


def test_one_map_of_codecs_per_process():
    # A codec is a value of its scheme: the filesystem keeps no codec and
    # no cache of its own, and never builds one ...
    base = class_def("dfs/filesystem.py", "_BaseDFS")
    caches = {
        target.attr
        for node in ast.walk(base) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and re.search(r"cache|codec", target.attr)
    }
    assert not caches
    constructed = r"\b(ConvertibleCode|LocallyRecoverableConvertibleCode|ReedSolomon)\("
    assert not files_matching(constructed, under="dfs/")
    # ... the scheme hands out the process's one, asked by the scheme alone ...
    make_code = functions(class_def("core/schemes.py", "ECScheme"))["make_code"]
    assert [a.arg for a in make_code.args.args] == ["self"]
    # ... and one function under dfs/ decodes with it.
    decoders = {
        f"{name}:{fn.name}"
        for name, text in SOURCES.items() if name.startswith("dfs/")
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, ast.FunctionDef) and "decode" in calls(fn)
    }
    assert decoders == {"dfs/filesystem.py:rebuild_slots"}


def test_sharded_namenode_takes_no_shard_factory():
    assert not files_matching(r"shard_factory")
    with pytest.raises(TypeError):
        ShardedNamenode(2, shard_factory=lambda i: Namenode())


# -- one codec path ------------------------------------------------------------

RETIRED_CODEC_NAMES = (
    "MulPlan8", "MulPlan16", "FusedDecode8", "FusedDecode16", "gf16_scale_xor",
    "plan_for_matrix16", "_plan8_cache", "_plan16_cache", "_packed_tables",
    "_apply_packed", "PACK_MAX_ROWS", "_apply_rows8", "_apply_rows16", "apply_rows",
    "_decode_cache", "_decode_inverse", "_find_invertible_subset", "_DECODE_CACHE_MAX",
    "_combined_tables", "_apply_combined",
)


def test_retired_codec_paths_stay_deleted():
    for name in RETIRED_CODEC_NAMES:
        assert not files_matching(rf"\b{name}\b"), name


def test_the_codec_bench_measures_nothing_the_e2e_bench_owns():
    # Metadata throughput, journal and shard overhead and failure-burst
    # enumeration are read from benchmarks/e2e on a journaled sharded
    # namenode; a scenario's durability and p99 from `scenarios --check`.
    built = r"\b(ShardedNamenode|JournaledNamenode|Journal)\(|\brun_scenarios\b"
    assert not files_matching(built, under="bench/")
    assert '"--target"' not in SOURCES["bench/profile.py"]


def test_temporary_replicas_are_dropped_by_id_not_by_scanning_a_buffer_cache():
    # The prefix scan never matched an appended stripe's ids: every such
    # stripe leaked k chunks of buffer cache.
    assert not files_matching(r"\b_drop_temp_replica\b")
    assert files_matching(r"\._memory\b") == ["dfs/datanode.py"]


def test_one_plan_class_and_one_place_that_sizes_the_work():
    kernels = ast.parse(SOURCES["gf/kernels.py"])
    appliers = [
        klass.name for klass in kernels.body
        if isinstance(klass, ast.ClassDef) and "apply" in functions(klass)
    ]
    assert appliers == ["MulPlan"]
    # The kernel threshold is tested where the kernels are — by the plan
    # and by the scale-xor — and no caller repeats it.
    assert files_matching(r"KERNEL_MIN_BYTES") == ["gf/kernels.py"]
    compared = re.findall(
        r"[<>]=?\s*KERNEL_MIN_BYTES|KERNEL_MIN_BYTES\s*[<>]", SOURCES["gf/kernels.py"]
    )
    assert 1 <= len(compared) <= 2
    # Nothing a caller passes selects a field or a strategy.
    plan = class_def("gf/kernels.py", "MulPlan")
    assert [a.arg for a in functions(plan)["__init__"].args.args] == ["self", "coeffs"]
    assert [a.arg for a in functions(plan)["apply"].args.args] == ["self", "b"]


def test_one_recovery_routine_and_one_set_of_entry_points():
    assert files_matching(r"matinv\(|_reduce\(", under="codes/") == ["codes/base.py"]
    per_code = ("_decode_impl", "_recovery", "encode_batch", "decode_batch", "group_of")
    for source in ("codes/lrc.py", "codes/lrcc.py", "codes/wide.py"):
        defined = {
            node.name for node in ast.walk(ast.parse(SOURCES[source]))
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & set(per_code), source
    for name in ("encode", "decode", "encode_batch", "decode_batch", "_recovery"):
        owners = files_matching(rf"def {name}\(", under="codes/")
        # BWO's piggybacked chunks are not generator products: it keeps
        # its own per-stripe encode/decode (``generator_encoded = False``).
        assert set(owners) <= {"codes/base.py", "codes/bandwidth.py"}, name
    assert files_matching(r"def _recovery\(") == ["codes/base.py"]


# -- one Galois field ------------------------------------------------------------

#: What is written once, against the field value, with the pattern that
#: finds each copy: the exp/log builder's shift, the pivot search of a
#: Gauss-Jordan elimination, the definitions of the batched determinant,
#: the Vandermonde power matrix and the superregularity check, and the
#: power matrix's log-space outer product.
WRITTEN_ONCE = {
    "exp/log table builder": r"<<=\s*1\b",
    "Gauss-Jordan elimination": r"nonzero\(\w+\[\w+:, \w+\]\)",
    # a row XORed with a multiple of another: an elimination step
    "elimination row update": r"\^=?\s*[\w.]*\bmul\(\w+\[\w+\]",
    "batched determinant": r"def (\w+_)?det\(",
    "Vandermonde power matrix": r"def \w*vandermonde\w*\(",
    "Vandermonde outer product": r"\[:, None\] \* [\w.]*(?i:log)\w*\[",
    "superregularity check": r"def \w*superregular\w*\(",
}


def test_one_galois_field_written_once():
    for what, pattern in WRITTEN_ONCE.items():
        hits = [
            (name, match.group())
            for name, text in SOURCES.items()
            for match in re.finditer(pattern, text)
        ]
        assert len(hits) == 1, (what, hits)
    # No second field module, no field-specific copies of the scalar
    # arithmetic, no per-field handle beside the field value, and the
    # wide code merges through the one convert.
    assert "gf/field16.py" not in SOURCES
    retired = (
        r"\bfield16\b|\bgf16_\w+\(|\bGF256\b|class Field\b|merge_parities"
        r"|def gf_(add|div|solve|matvec|inv|pow|mul|matinv|rank|matmul_reference)\("
    )
    assert not files_matching(retired)
    assert files_matching(r"= GaloisField\(") == ["gf/field.py"]


def test_the_wide_code_names_only_its_family():
    from repro.codes.convertible import ConvertibleCode
    from repro.codes.wide import WideConvertibleCode

    wide = class_def("codes/wide.py", "WideConvertibleCode")
    assert not functions(wide)
    assert [
        target.id for node in wide.body if isinstance(node, ast.Assign)
        for target in node.targets
    ] == ["family"]
    for cls in (ConvertibleCode, WideConvertibleCode):
        init = cls.__init__.__code__
        assert init.co_varnames[: init.co_argcount] == ("self", "k", "n", "family_width")
        assert cls.__init__.__defaults__ == (None,)


def test_one_rrw_price_and_one_rule_for_a_transition():
    # A rewrite was priced five times — two rrw_cost signatures, the
    # planner's own, the trace analyzer's and a strategy dispatch — and
    # ingest twice. Now one function of the target prices every RRW and
    # ``storage_overhead`` is the ingest footprint.
    for name in (
        "lrc_rrw_cost", "transcode_cost", "_rrw", "_ec_of", "_baseline_transition_io",
        "_ingest_multiplier", "ingest_disk_multiplier",
    ):
        assert not files_matching(rf"\b{name}\b"), name
    assert not files_matching(r"class Strategy\b|\bStrategy\.")
    assert files_matching(r"def rrw_cost\(target: ") == ["codes/costmodel.py"]
    assert files_matching(r"\brrw_cost\(") == [
        "bench/experiments.py", "codes/costmodel.py", "core/adaptive.py",
        "core/advisor.py", "core/planner.py", "traces/analyzer.py",
    ]
    # The planner decides a transition's kind; the DFS asks it in one
    # place, inline and scheduled alike, and only downgrades to RRW.
    assert files_matching(r"\.plan\(", under="dfs/") == ["dfs/filesystem.py"]
    morph = functions(class_def("dfs/filesystem.py", "MorphFS"))
    askers = [name for name, fn in morph.items() if ".plan(" in ast.unparse(fn)]
    assert askers == ["_open_transcode"]
    for name in ("transcode", "schedule_transcode"):
        assert "_open_transcode" in calls(morph[name]), name


def test_the_event_engine_schedules_and_advances_in_one_place():
    # The engine once carried a copy of its scheduler inside ``timeout``,
    # a copy of ``_advance`` inside ``run`` ("keep the two in sync") and a
    # refcount-guarded timeout free-list.  One push onto the timestamp
    # heap, one generator send, no refcount.
    engine = SOURCES["cluster/engine.py"]
    assert len(re.findall(r"heappush\(", engine)) == 1
    assert len(re.findall(r"\._send\(", engine)) == 1
    assert "getrefcount" not in engine


def test_the_scheduler_prices_nothing():
    # Each DFS task once carried a hand-written worst-case model of what
    # its executor moves, and the scheduler admitted against it; no
    # workload ever did. A task is charged what its window metered, and
    # admission is one bucket rule over listed or unbounded charges.
    assert files_matching(r"\bdef estimated_cost\b|\badmits_everywhere\b") == []
    assert len(re.findall(r"budgets\.admits\(", SOURCES["sched/scheduler.py"])) == 1


# -- nothing under src is reached only by its own tests ---------------------------

REPO = SRC.parent.parent
#: a string literal that names code: an identifier or a dotted path (how
#: the e2e tracer wraps a method by name)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

#: Definitions kept although nothing outside ``tests/`` names them.
REACHED_ONLY_BY_TESTS = {
    # Appendability (paper §4.2): a hybrid file grows, then seals.
    "append_file": "appendability, paper §4.2",
    "close_file": "appendability, paper §4.2: seals an appended tail",
    # The one crash model: a recovered namenode takes the filesystem over.
    "restart": "the crash-recovery seam",
    "is_mds": "the MDS verification of every code family",
    # Seams that tests observe through or isolate with.
    "erase": "a stripe with chunks erased, the decode tests' input",
    "memory_used": "the buffer-cache oracle: 0 between operations",
    "clear_plan_caches": "cold decode caches for a test that counts misses",
    "shard_index": "which shard owns a name",
    # Reference implementations that tests compare against.
    "matinv": "the inverse a batched decode is checked against",
    "exact_percentile": "the exact percentile the histogram is held to",
}


def referenced_names(tree: ast.AST) -> set:
    """Every name a module's code uses: ``Name``, ``Attribute``, keyword
    arguments and string literals that name code; docstrings excluded."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and DOTTED.fullmatch(node.value)
        ):
            names.update(node.value.split("."))
    return names


def definitions(sources: dict) -> list:
    """``(module, node)`` for every non-dunder function, method and class."""
    return [
        (name, node)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreached(sources: dict, used: set) -> list:
    """Definitions in ``sources`` that ``used`` does not name and that
    no exemption covers."""
    return sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, node in definitions(sources)
        if node.name not in used and node.name not in REACHED_ONLY_BY_TESTS
    )


def test_nothing_under_src_is_reached_only_by_tests():
    # Every function, method and class under src/repro is named by code
    # outside tests/: src/repro itself (an __init__ re-export does not
    # count), benchmarks/ or examples/. A name two definitions share can
    # only hide a dead one, never flag a live one.
    users = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    users += [*(REPO / "benchmarks").rglob("*.py"), *(REPO / "examples").rglob("*.py")]
    used = set().union(*(referenced_names(ast.parse(path.read_text())) for path in users))
    assert unreached(SOURCES, used) == []
    # An exemption that code outside tests/ now names is no longer needed.
    assert not set(REACHED_ONLY_BY_TESTS) & used


@pytest.mark.parametrize("name", sorted(REACHED_ONLY_BY_TESTS))
def test_every_exemption_names_a_definition_that_still_exists(name):
    # An exemption that outlives its code would wave through a new
    # test-only helper that happens to share its name.
    assert name in {node.name for _module, node in definitions(SOURCES)}


#: a module with one live class, one dunder, one helper nothing calls and
#: one function the cases below call or not
HELPER_MODULE = '''"""orphan() named in a docstring does not count."""


class Live:
    def used(self):
        return self.__repr__()

    def __repr__(self):
        return "Live"


def orphan():
    """Only a test calls this."""


def caller():
    return Live().used()
'''


@pytest.mark.parametrize(
    "user, flagged",
    [
        ("", ["helper.py:12 orphan", "helper.py:16 caller"]),
        ("caller()", ["helper.py:12 orphan"]),
        ("caller(); run(orphan)", []),
        ("caller(); wrap(module, 'helper.orphan')", []),
        ("caller(); call(orphan=1)", []),
        ("caller()  # orphan()", ["helper.py:12 orphan"]),
        ("caller(); print('orphan() is prose, not a name')", ["helper.py:12 orphan"]),
    ],
    ids=["unused", "called", "named", "dotted-literal", "keyword", "comment", "prose-literal"],
)
def test_the_scan_flags_a_helper_that_only_tests_call(user, flagged):
    # The module's own code counts as a user, the way src/repro does.
    used = referenced_names(ast.parse(HELPER_MODULE)) | referenced_names(ast.parse(user))
    assert unreached({"helper.py": HELPER_MODULE}, used) == flagged


# -- no option without a setter -------------------------------------------------

#: Classes whose defaulted fields are initial state, not options: the
#: owner builds one empty, or at zero, and fills it in as it runs.
INITIAL_STATE = {
    "NodeMetrics": "a node's IO counters, from 0",
    "MaintenanceClassMetrics": "a task class's maintenance counters, from 0",
    "IOMetrics": "the ledger: no node and no task class until one is metered",
    "CodecStats": "codec odometers, empty until a codec runs",
    "TickReport": "what one heartbeat round did, counted as it runs",
    "ScrubReport": "what one scrub sweep found, counted as it runs",
    "SchedulerTickReport": "what one scheduler tick did, counted as it runs",
    "ScenarioResult": "one scenario's outcome, filled in as it runs",
    "ReplayResult": "a replay's hourly ledger, filled in hour by hour",
    "ClosedLoopResult": "a workload's latencies, appended as its ops finish",
    "TraceAnalysis": "a service's series, filled in by analyze_service",
    "AdaptivePlan": "a cohort's schedule, appended month by month",
}


def base_names(klass) -> tuple:
    return tuple(ast.unparse(base).split(".")[-1] for base in klass.bases) if klass else ()


def decorators(klass: ast.ClassDef) -> set:
    return {ast.unparse(getattr(dec, "func", dec)).split(".")[-1] for dec in klass.decorator_list}


def parameters(fn: ast.FunctionDef) -> list:
    """``(node, defaulted, positional)`` for each parameter of ``fn``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return [(arg, default is not None, True) for arg, default in zip(positional, defaults)] + [
        (arg, default is not None, False) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
    ]


def own_options(klass: ast.ClassDef):
    """``(node, defaulted, positional)`` for each parameter of the class's
    own ``__init__`` after ``self``, or for each field its dataclass or
    NamedTuple constructor takes; ``None`` when it takes its base's."""
    init = functions(klass).get("__init__")
    if init is not None:
        return parameters(init)[1:]
    if "dataclass" not in decorators(klass) and "NamedTuple" not in base_names(klass):
        return None
    fields = []
    for stmt in klass.body:
        if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1] == "field":
            given = {kw.arg: kw.value for kw in value.keywords}
            if getattr(given.get("init"), "value", True) is False:
                continue
            fields.append((stmt.target, "default" in given or "default_factory" in given, True))
        else:
            fields.append((stmt.target, value is not None, True))
    return fields


def option_name(node: ast.AST) -> str:
    return node.arg if isinstance(node, ast.arg) else node.id


def class_defs(sources: dict) -> dict:
    return {
        node.name: (module, node)
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    }


def signature(name: str, classes: dict) -> list:
    """``(class, option, positional)`` for what calling class ``name``
    takes: its own ``__init__``, its dataclass fields after its base's, or
    else what its first base that takes anything takes."""
    if name not in classes:
        return []
    klass = classes[name][1]
    inherited = next((sig for base in base_names(klass) if (sig := signature(base, classes))), [])
    own = own_options(klass)
    if own is None:
        return inherited
    mine = [(name, option_name(node), positional) for node, _defaulted, positional in own]
    if "dataclass" not in decorators(klass):
        return mine
    return [entry for entry in inherited if entry[1] not in {m[1] for m in mine}] + mine


def option_calls(tree: ast.AST) -> tuple:
    """Every call in ``tree`` as ``(callees, positional count, keywords)``
    — ``callees`` the names it may construct, in order: for
    ``super().__init__`` the class's bases, for ``cls(...)`` the class —
    and the forwards: a function (an ``__init__`` under its class's name)
    that hands its ``**kwargs``, or a defaulted parameter ``x`` as
    ``x=x``, to a call, as ``(callees, keyword or None for all, position
    of the parameter)``. A forwarded default sets nothing by itself."""
    found, forwards = [], {}

    def callees(func: ast.AST, klass) -> tuple:
        """The names a call may construct, and how many of its positional
        arguments are ``self``."""
        if isinstance(func, ast.Name):
            return ((klass.name,) if func.id == "cls" and klass else (func.id,)), 0
        if not isinstance(func, ast.Attribute):
            return (), 0
        if func.attr != "__init__":
            return (func.attr,), 0
        if isinstance(func.value, ast.Call) and ast.unparse(func.value.func) == "super":
            return base_names(klass), 0
        return (ast.unparse(func.value).split(".")[-1],), 1

    def record(call: ast.Call, klass, function) -> None:
        names, skip = callees(call.func, klass)
        init = function is not None and function.name == "__init__" and klass is not None
        forwarder = klass.name if init else getattr(function, "name", None)
        params = parameters(function)[init:] if function else []
        positions = {option_name(arg): i for i, (arg, _, positional) in enumerate(params) if positional}
        defaulted = {option_name(arg) for arg, has_default, _ in params if has_default}
        kwargs = function.args.kwarg.arg if function and function.args.kwarg else None
        keywords = set()
        for kw in call.keywords:
            if kw.arg in defaulted and isinstance(kw.value, ast.Name) and kw.value.id == kw.arg:
                forwards.setdefault(forwarder, []).append((names, kw.arg, positions.get(kw.arg)))
            elif kw.arg:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Dict):
                keywords.update(key.value for key in kw.value.keys if isinstance(key, ast.Constant))
            elif kwargs and ast.unparse(kw.value) == kwargs:
                forwards.setdefault(forwarder, []).append((names, None, None))
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        found.append((names, len(call.args) * (1000 if starred else 1) - skip, keywords))

    def visit(node: ast.AST, klass, function) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                record(child, klass, function)
            if isinstance(child, ast.ClassDef):
                visit(child, child, function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, klass, child)
            else:
                visit(child, klass, function)

    visit(tree, None, None)
    return found, forwards


def unset_options(sources: dict, users: list) -> list:
    """Defaulted options of the classes in ``sources`` that no call in
    ``users`` (parsed modules) passes, and no exemption covers."""
    classes = class_defs(sources)
    found, forwards = [], {}
    for tree in users:
        calls_here, forwards_here = option_calls(tree)
        found += calls_here
        for name, targets in forwards_here.items():
            forwards.setdefault(name, []).extend(targets)
    passed = set()

    def mark(names: tuple, positional: int, keywords: set, depth: int = 0) -> None:
        takes = next((sig for name in names if (sig := signature(name, classes))), [])
        passed.update((owner, option) for owner, option, _ in [e for e in takes if e[2]][:positional])
        passed.update((owner, option) for owner, option, _ in takes if option in keywords)
        for name in names if depth < 4 else ():
            for target, keyword, position in forwards.get(name, []):
                if keyword is None:
                    mark(target, 0, keywords, depth + 1)
                elif keyword in keywords or (position is not None and position < positional):
                    mark(target, 0, {keyword}, depth + 1)

    for names, positional, keywords in found:
        mark(names, positional, keywords)
    return sorted(
        f"{module}:{node.lineno} {name}.{option_name(node)}"
        for name, (module, klass) in classes.items()
        if name not in INITIAL_STATE
        for node, defaulted, _ in own_options(klass) or []
        if defaulted and (name, option_name(node)) not in passed
    )


def test_every_option_has_a_setter():
    # Every defaulted __init__ parameter or dataclass field of a class
    # under src/repro is passed by some call in src/, benchmarks/,
    # examples/ or tests/; one no call passes is a constant.
    users = [*SRC.rglob("*.py")]
    users += [path for part in ("benchmarks", "examples", "tests") for path in (REPO / part).rglob("*.py")]
    assert unset_options(SOURCES, [ast.parse(path.read_text()) for path in users]) == []


@pytest.mark.parametrize("name", sorted(INITIAL_STATE))
def test_every_state_record_names_a_class_that_still_exists(name):
    # An entry that outlives its class would wave through a new class of
    # the same name whose defaults are options.
    assert name in class_defs(SOURCES)


#: three classes, each with one defaulted option: one nothing passes, one
#: passed only by a subclass's ``super().__init__``, one only through a
#: ``**`` dict literal
OPTIONS_MODULE = '''"""Unset(width=2) in a docstring does not count."""
from dataclasses import dataclass


class Unset:
    def __init__(self, width=4):
        self.width = width


class Base:
    def __init__(self, depth=2):
        self.depth = depth


class Child(Base):
    def __init__(self):
        super().__init__(depth=3)


@dataclass
class Spread:
    size: int = 1


def build():
    return Unset(), Child(), Spread(**{"size": 2})
'''


@pytest.mark.parametrize(
    "user, flagged",
    [
        ("", ["options.py:6 Unset.width"]),
        ("Unset(width=1)", []),
        ("Unset(1)", []),
        ("def make(width=4):\n    return Unset(width=width)", ["options.py:6 Unset.width"]),
        ("def make(width=4):\n    return Unset(width=width)\nmake(width=1)", []),
        ("def make(**kw):\n    return Unset(**kw)\nmake(width=1)", []),
    ],
    ids=["unset", "keyword", "position", "forwarded-default", "forwarded-set", "forwarded-kwargs"],
)
def test_the_scan_flags_an_option_no_call_passes(user, flagged):
    # The module's own calls count, the way src/repro's do: they pass
    # Base's option through super().__init__ and Spread's through a **
    # dict literal, and construct Unset with its default.
    users = [ast.parse(OPTIONS_MODULE), ast.parse(user)]
    assert unset_options({"options.py": OPTIONS_MODULE}, users) == flagged
