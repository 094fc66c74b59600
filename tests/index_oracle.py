"""The per-node chunk index against its oracle, a full namespace scan —
the checksum registry against the namespace, and the stored bytes
against the registry.

Not a test module: the helpers the invariant tests share.
"""

import zlib


def full_scan(namenode, node_id):
    """``chunks_on_node`` the slow way: every chunk of every file, files
    in registration order, a file's chunks in layout order."""
    return [
        (meta, chunk)
        for meta in namenode.files.values()
        for chunk in meta.all_chunks()
        if chunk.node_id == node_id
    ]


def _image(shard):
    """The index as plain data, dict order included."""
    return [
        (node_id, [
            (name, [id(c) for c in entry] if type(entry) is list else id(entry))
            for name, entry in index.items()
        ])
        for node_id, index in shard._node_files.items()
    ]


def assert_index_exact(namenode):
    """For every node, ``chunks_on_node`` is the full scan — the same
    pairs, the same objects, the same order; no entry names a file that
    is not registered; a lone chunk is stored bare; and asking changed
    nothing.  Takes a plain, journaled or sharded namenode."""
    for shard in getattr(namenode, "shards", [namenode]):
        before = _image(shard)
        files_before = list(shard.files)
        nodes = set(shard._node_files)
        nodes.update(c.node_id for m in shard.files.values() for c in m.all_chunks())
        for node_id in sorted(nodes):
            got = shard.chunks_on_node(node_id)
            want = full_scan(shard, node_id)
            assert [(id(m), id(c)) for m, c in got] == [(id(m), id(c)) for m, c in want], (
                f"{node_id}: index lists {[(m.name, c.chunk_id) for m, c in got]}, "
                f"a scan finds {[(m.name, c.chunk_id) for m, c in want]}"
            )
        for node_id, index in shard._node_files.items():
            for name, entry in index.items():
                assert name in shard.files, f"{node_id}: entry for unregistered {name}"
                assert type(entry) is not list or len(entry) > 1, (node_id, name)
        assert _image(shard) == before and list(shard.files) == files_before, (
            "chunks_on_node changed the namenode"
        )
    if hasattr(namenode, "shards"):
        # The facade's answer is the shards', concatenated in shard order
        # — which is the order its ``files`` view iterates in.
        nodes = {c.node_id for m in namenode.files.values() for c in m.all_chunks()}
        for node_id in sorted(nodes):
            got = namenode.chunks_on_node(node_id)
            assert [(id(m), id(c)) for m, c in got] == [
                (id(m), id(c)) for m, c in full_scan(namenode, node_id)
            ], node_id


def assert_sums_exact(fs):
    """The checksum registry holds a sum for exactly the chunks the
    namenode answers for: those listed by registered files, plus the
    final stripes a transcode in flight has stored and not yet switched
    to.  Chunks enter, move and leave through ``store_chunk``,
    ``rehome_chunks`` and ``discard_chunks``, which is what makes it so."""
    listed = {c.chunk_id for meta in fs.namenode.files.values() for c in meta.all_chunks()}
    for job in fs.namenode.utm.values():
        for stripe in job.new_stripes.values():
            listed.update(c.chunk_id for c in stripe.all_chunks())
    recorded = set(fs.checksums._sums)
    assert recorded == listed, (
        f"sums without a listed chunk: {sorted(recorded - listed)}; "
        f"listed chunks without a sum: {sorted(listed - recorded)}"
    )


def assert_bytes_exact(fs, rotten=()):
    """Every array a datanode holds, on disk or buffered, is read-only,
    and every recorded sum is the CRC of the bytes stored under its id.
    A store copies nothing, so this — not the flag alone — is what shows
    that no producer wrote to a buffer after handing it over.  ``rotten``
    names chunks a test damaged where no scrub can reach them yet (a
    down node): their sums are expected to disagree."""
    for node_id, datanode in fs.datanodes.items():
        for held in (datanode._disk, datanode._memory):
            for chunk_id, data in held.items():
                assert data.flags.writeable is False, f"{node_id}: {chunk_id} is writeable"
                expected = fs.checksums.expected(chunk_id)
                if expected is not None and chunk_id not in rotten:
                    assert zlib.crc32(data.tobytes()) == expected, (
                        f"{node_id}: {chunk_id} no longer carries its recorded sum"
                    )
