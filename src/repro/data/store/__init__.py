"""Out-of-core sharded dataset plane: format, lazy reducer, registry.

See :mod:`repro.data.store.format` for the on-disk layout,
:mod:`repro.data.store.sharded` for :class:`ShardedDataset` (a
``Dataset`` whose chunks are disk shards), and :mod:`repro.data.store.registry`
for the named cache behind the ``repro data`` CLI.
"""

from repro.data.store.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    file_sha256,
    manifest_digest,
    read_manifest,
    schema_digest,
)
from repro.data.store.registry import (
    Registry,
    default_root,
    iter_chunks,
    synth_chunks,
    verify_store,
    write_store,
)
from repro.data.store.sharded import (
    ShardedDataset,
    StoreRef,
    clear_ref_cache,
    open_store_ref,
)

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "file_sha256",
    "manifest_digest",
    "read_manifest",
    "schema_digest",
    "Registry",
    "default_root",
    "iter_chunks",
    "synth_chunks",
    "verify_store",
    "write_store",
    "ShardedDataset",
    "StoreRef",
    "clear_ref_cache",
    "open_store_ref",
]
