package transport

import (
	"repro/internal/refresh"
	"repro/internal/shard"
)

// Protocol constants. The wire protocol is versioned as a whole: a
// server answers only its own major version (the Ocad-Shard-Protocol
// header), and any schema change that is not purely additive bumps
// Version. Version 2 — the snapshot transfer in the durable encodings —
// is still served under /shard/v1/: the paths name the endpoint set,
// which did not change, and the version header, not the path, is what
// every peer checks. docs/PROTOCOL.md is the normative description;
// TestProtocolDocSync keeps the two in lockstep.
const (
	// Version is the protocol major version spoken by this build.
	Version = 2

	// HeaderProtocol is the header both sides stamp with Version.
	HeaderProtocol = "Ocad-Shard-Protocol"

	// HeaderDeadline carries the caller's remaining time budget in
	// integer milliseconds. Optional and additive (no version bump):
	// clients with a context deadline stamp it on every request, servers
	// that understand it shed work the caller has already abandoned. A
	// missing header means "no deadline"; a malformed one is rejected
	// with 400/bad_request.
	HeaderDeadline = "Ocad-Deadline-Ms"

	// ContentTypeSnapshot is the full transfer's media type: the
	// generation as a segment (internal/segment), its table the full
	// translation table.
	ContentTypeSnapshot = "application/x-ocad-snapshot"

	// ContentTypeSnapshotChain is the chain transfer's media type: the
	// publishes between the client's generation and the head as a WAL
	// excerpt based at the client's generation (shard.EncodeChain). A
	// client asks for it with Accept on a ?since request, and a server
	// that cannot (or does not) answer it sends the full transfer
	// instead, labelled as such.
	ContentTypeSnapshotChain = "application/x-ocad-snapshot-chain"

	// HeaderPartitionMap accompanies a chain: the partition map the
	// head's ownership was evaluated under, in its binary encoding
	// (shard.PartitionMap.Encode), base64. A full transfer carries its map
	// in the segment's META instead.
	HeaderPartitionMap = "Ocad-Partition-Map"

	// HeaderSnapshotInstance names the server instance whose generation
	// numbering a snapshot response belongs to: a random token a shard
	// server draws at start (a replica passes on its primary's). Every
	// 200 snapshot response carries it; a chain request quotes the one
	// its mirror came with, and is answered with a chain only when it
	// matches — generation g of another instance (a restart, a fresh
	// data directory) may be another graph and cover, and a chain onto
	// it would be applied to the wrong base. Additive: in a response
	// header, so the full stream's body is unchanged.
	HeaderSnapshotInstance = "Ocad-Snapshot-Instance"

	PathHealth   = "/shard/v1/health"
	PathSnapshot = "/shard/v1/snapshot"
	PathApply    = "/shard/v1/apply"
	PathFlush    = "/shard/v1/flush"
	PathLookup   = "/shard/v1/lookup"
	// PathMap reads (GET) and installs (POST) the shard's partition
	// map. Additive v1 extension — see docs/PROTOCOL.md "Partition map
	// & rebalancing".
	PathMap = "/shard/v1/map"
	// PathIngest is the slice-transfer endpoint: Apply semantics on a
	// dedicated path, so migration traffic is distinguishable from
	// normal writes (access logs, fault injection).
	PathIngest = "/shard/v1/ingest"
)

// Routes is the manifest of every (method, pattern) a shard server
// registers — the list docs/PROTOCOL.md must stay in sync with.
var Routes = []string{
	"GET " + PathHealth,
	"GET " + PathSnapshot,
	"POST " + PathApply,
	"POST " + PathFlush,
	"POST " + PathLookup,
	"GET " + PathMap,
	"POST " + PathMap,
	"POST " + PathIngest,
}

// ReplicaRoutes is the manifest a replica server registers: the same
// surface as a primary so routers and tooling need no special casing —
// apply, flush, map installs and ingest answer, but always with
// 503/not_primary.
var ReplicaRoutes = []string{
	"GET " + PathHealth,
	"GET " + PathSnapshot,
	"POST " + PathApply,
	"POST " + PathFlush,
	"POST " + PathLookup,
	"GET " + PathMap,
	"POST " + PathMap,
	"POST " + PathIngest,
}

// Role values carried in Health.Role. An empty Role (pre-replication
// servers) means primary.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Machine-readable error codes carried in errorResponse.Code so clients
// branch on semantics, not message strings.
const (
	// CodeBacklogFull: the shard's mutation backlog is at capacity;
	// nothing was queued, retry the whole batch later.
	CodeBacklogFull = "backlog_full"
	// CodeClosed: the shard is shutting down (draining) and refuses new
	// mutations; reads keep serving.
	CodeClosed = "closed"
	// CodeTableConflict: the shipped translation-table update
	// contradicts the shard's table — a second writer grew it, which
	// the protocol forbids. Not retryable.
	CodeTableConflict = "table_conflict"
	// CodeProtocolMismatch: the request's Ocad-Shard-Protocol header
	// names a version this server does not speak.
	CodeProtocolMismatch = "protocol_mismatch"
	// CodeBadRequest: malformed request body or parameters.
	CodeBadRequest = "bad_request"
	// CodeInterrupted: a flush wait was cancelled (the client's request
	// deadline elapsed or it disconnected). The applied mutations stay
	// queued and will still publish; re-flushing is safe.
	CodeInterrupted = "interrupted"
	// CodeNotPrimary: a mutation (apply/flush) was sent to a replica.
	// Replicas are read-only mirrors; route writes to the primary. Not
	// retryable against the same server.
	CodeNotPrimary = "not_primary"
	// CodeDeadlineExceeded: the caller's Ocad-Deadline-Ms budget ran out
	// while the server was still working; the work was shed. For flush,
	// queued mutations stay queued and will still publish — identical
	// recovery to interrupted.
	CodeDeadlineExceeded = "deadline_exceeded"
)

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Health is the GET /shard/v1/health body: the generation/liveness
// probe plus the identity facts a router handshake validates.
type Health struct {
	Protocol int `json:"protocol"`
	// Shard and Shards identify this server's slice of the K-way
	// partition.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// GlobalNodes is the global node count of the graph the shard was
	// split from; MaxNodes the global growth ceiling. All K servers of
	// one deployment must agree on both.
	GlobalNodes int `json:"global_nodes"`
	MaxNodes    int `json:"max_nodes"`
	// TableLen is the current translation-table length, including
	// entries pending publication.
	TableLen int `json:"table_len"`
	// Epoch is the partition-map epoch the shard currently evaluates
	// ownership under; Map is the map itself in its binary encoding
	// (base64 in JSON). Additive: pre-rebalancing servers omit both,
	// which routers read as the epoch-0 modulo-K map.
	Epoch uint64 `json:"epoch,omitempty"`
	Map   []byte `json:"map,omitempty"`
	// Draining reports a shutdown in progress: mutations are refused,
	// reads still answer.
	Draining bool `json:"draining"`
	// DeadlineShed counts requests abandoned because the caller's
	// Ocad-Deadline-Ms budget expired before the server finished.
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
	// ChainMisses counts chain requests this server answered with the
	// full stream because it no longer held the links they needed.
	ChainMisses uint64 `json:"chain_misses,omitempty"`
	// Role distinguishes a writable primary from a read-only replica
	// mirror; empty (pre-replication builds) means primary. Primary is
	// the upstream a replica follows, set only when Role is "replica".
	Role    string `json:"role,omitempty"`
	Primary string `json:"primary,omitempty"`
	// Snapshot summarizes the published generation; Status is the
	// refresh worker's point-in-time state.
	Snapshot refresh.SnapshotInfo `json:"snapshot"`
	Status   shard.WorkerStatus   `json:"status"`
}

// MapRequest is the POST /shard/v1/map body: a partition map to
// install, in its binary encoding. Pending marks a transfer-window
// install (the receiver's map during a migration): the shard adopts it
// for ownership evaluation but must NOT persist it, so a crash during
// the window recovers at the old epoch. Final installs (Pending false)
// are flushed and persisted before the response — the server's 200 is
// the durability acknowledgment the flip relies on.
type MapRequest struct {
	Protocol int    `json:"protocol"`
	Map      []byte `json:"map"`
	Pending  bool   `json:"pending,omitempty"`
}

// MapResponse answers both GET and POST /shard/v1/map with the shard's
// (now) active map.
type MapResponse struct {
	Epoch uint64 `json:"epoch"`
	Map   []byte `json:"map"`
}

// ApplyRequest is the POST /shard/v1/apply body: one shard's slice of a
// mutation fan-out, local-id operations plus the translation-table
// entries appended since the router's last successful ship (see
// shard.Batch for the reconciliation rules; re-shipping is idempotent,
// so retrying a failed apply is safe).
type ApplyRequest struct {
	Protocol int `json:"protocol"`
	shard.Batch
}

// ApplyResponse reports the accepted batch: Generation is the
// generation current at enqueue time (any strictly larger published
// generation includes the batch), Queued the operations accepted.
type ApplyResponse struct {
	Generation uint64 `json:"generation"`
	Queued     int    `json:"queued"`
}

// FlushRequest is the POST /shard/v1/flush body. The server blocks
// until every previously applied mutation is reflected in a published
// generation — bounded by the client's request deadline, never by the
// server.
type FlushRequest struct {
	Protocol int `json:"protocol"`
}

// FlushResponse quotes the generation that includes everything applied
// before the flush.
type FlushResponse struct {
	Generation uint64 `json:"generation"`
}

// LookupRequest is the POST /shard/v1/lookup body: a batch membership
// lookup answered directly from the shard's current snapshot — the
// query path for clients that do not mirror snapshots (and the
// replication read path the ROADMAP plans to ride on this seam).
type LookupRequest struct {
	Protocol int `json:"protocol"`
	// IDs are global node ids; ids this shard does not own still answer
	// (ghost memberships are the shard's own view, see PROTOCOL.md).
	IDs []int32 `json:"ids"`
	// Members includes each community's member list (global ids).
	Members bool `json:"members,omitempty"`
}

// LookupResult is one id's answer.
type LookupResult struct {
	Node  int32 `json:"node"`
	Count int   `json:"count"`
	// Communities lists the shard-scoped communities containing the
	// node; member lists are global ids.
	Communities []LookupCommunity `json:"communities,omitempty"`
	// Error is set per id (unknown here / out of range) instead of
	// failing the batch.
	Error string `json:"error,omitempty"`
}

// LookupCommunity is one community reference in a lookup answer.
type LookupCommunity struct {
	ID      int32   `json:"id"`
	Size    int     `json:"size"`
	Members []int32 `json:"members,omitempty"`
}

// LookupResponse is the POST /shard/v1/lookup body: all results from
// one snapshot load, Generation its consistency token.
type LookupResponse struct {
	Generation uint64         `json:"generation"`
	Results    []LookupResult `json:"results"`
}
