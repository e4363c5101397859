// Package wal implements the mutation write-ahead log behind durable
// ocad restarts: an append-only file of length-prefixed, CRC-protected
// records, one per accepted /v1/edges batch, written (and optionally
// fsynced) before the batch is acknowledged. Between snapshot segments
// the WAL is the only durable copy of accepted mutations, and of what
// each published generation did to the cover; on startup the tail with
// sequence numbers beyond the latest segment is read back on top of it
// — folded from the logged cover patches, replayed through the
// incremental rebuild engine only where there are none — so recovery
// costs O(batch) per record instead of a cold OCA run.
//
// The package owns only the format — record framing, the edge batch,
// publish-marker and cover-patch payloads, and the torn-tail read
// semantics — which a shard server also ships its mirrors a chain of
// publishes in (Stream, Scan).
// File placement, rotation and retention live in internal/persist;
// the normative format specification is docs/PERSISTENCE.md, which a
// doc-sync test locks to this package's constants.
package wal
