// Package persist is the durability layer under ocad: it writes each
// published snapshot generation to an mmap-able segment file (graph,
// cover, translation table and generation metadata, each section
// CRC-protected), keeps a mutation write-ahead log (internal/wal)
// between segments — every accepted edge batch, and beside every
// publish marker what that publish did to the cover — and on startup
// recovers the latest valid segment plus the WAL tail: folded from the
// logged cover patches where the log describes a generation (no OCA,
// the cover that was served, id for id), replayed through the
// incremental engine where it does not. Either way a restart costs
// O(mutations since last segment) instead of a cold OCA run over the
// whole graph.
//
// The package owns file placement, rotation, retention and the
// recovery scan; the WAL record framing lives in internal/wal and the
// graph payload reuses internal/graph's binary CSR wire format
// verbatim. docs/PERSISTENCE.md is the normative on-disk
// specification; TestPersistenceDocSync fails when it and the
// constants here diverge.
//
// Crash-safety model: segments become visible only by atomic rename
// after an fsync, and carry a terminating ENDS section, so a partial
// segment write is never mistaken for a valid one — recovery skips it
// and falls back to the previous segment. A WAL tail torn by a crash
// mid-write is truncated at the last intact record (wal.ErrTorn). A
// batch is acknowledged to the client only after its WAL record is
// written (and fsynced, with -wal-fsync), so acknowledged mutations
// survive kill -9.
package persist
