package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/shard"
)

// Options tunes Dial.
type Options struct {
	// Client tunes every shard client (timeouts, poll cadence).
	Client ClientConfig
	// ConnectTimeout bounds the whole handshake — health probes are
	// retried until every shard answers, so the router may start before
	// slow shard covers finish building. Default 60s.
	ConnectTimeout time.Duration
	// MaxPending is the per-shard backlog bound the router's admission
	// check assumes; it should match the shard servers' worker
	// configuration (0 uses refresh.Config's default).
	MaxPending int
	// Replicas lists each shard's replica servers (`ocad -follow`
	// processes mirroring that shard's primary): Replicas[i] belongs to
	// addrs[i]. When non-nil it must have one entry per shard (empty
	// lists are fine) and every backend becomes a shard.ReplicaSet — the
	// router mirrors every member and answers reads from a sufficiently
	// fresh one, so a dead or broken primary keeps its shard readable;
	// writes go to the primary only. Nil keeps the plain
	// one-backend-per-shard topology.
	Replicas [][]string
}

// DeployInfo is what a successful handshake learned about the
// deployment: the live global id bound (graph nodes plus growth already
// replicated to the shards), the growth ceiling, and the agreed
// partition map (nil when every shard advertised the epoch-0 base).
type DeployInfo struct {
	CurN     int
	MaxNodes int
	Map      *shard.PartitionMap
}

// Dial connects to K shard servers (addrs[i] must host shard i of a
// K-way split), validates that they form one consistent deployment,
// mirrors every shard's published snapshot, and assembles a
// shard.Router over remote backends — a drop-in
// server.SnapshotProvider, so the HTTP serving layer works unchanged
// over processes. With Options.Replicas set, each shard's backend is a
// replica set over the primary and its replicas. The returned router's
// Close stops the mirror pollers; the shard processes keep running.
func Dial(ctx context.Context, addrs []string, opt Options) (*shard.Router, error) {
	backends, info, err := DialBackends(ctx, addrs, opt)
	if err != nil {
		return nil, err
	}
	r, err := shard.NewRouterBackends(backends, info.CurN, info.MaxNodes, opt.MaxPending)
	if err == nil && info.Map != nil {
		err = r.AdoptPartitionMap(info.Map)
	}
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	return r, nil
}

// DialBackends is Dial up to (but not including) router assembly: it
// returns the validated, polling per-shard backends plus the deployment
// facts a router needs, for callers that build the router themselves.
func DialBackends(ctx context.Context, addrs []string, opt Options) ([]shard.Backend, DeployInfo, error) {
	if len(addrs) == 0 {
		return nil, DeployInfo{}, fmt.Errorf("transport: no shard addresses")
	}
	if opt.Replicas != nil && len(opt.Replicas) != len(addrs) {
		return nil, DeployInfo{}, fmt.Errorf("transport: %d replica lists for %d shards", len(opt.Replicas), len(addrs))
	}
	if opt.ConnectTimeout <= 0 {
		opt.ConnectTimeout = 60 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, opt.ConnectTimeout)
	defer cancel()

	k := len(addrs)
	clients := make([]*Client, k)
	healths := make([]Health, k)
	errs := make([]error, k)
	rclients := make([][]*Client, k)
	rhealths := make([][]Health, k)
	rerrs := make([][]error, k)
	var wg sync.WaitGroup
	for i, addr := range addrs {
		clients[i] = newClient(normalizeAddr(addr), i, k, opt.Client)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			healths[i], errs[i] = clients[i].handshake(ctx, addr, false)
		}(i)
		if opt.Replicas == nil {
			continue
		}
		rclients[i] = make([]*Client, len(opt.Replicas[i]))
		rhealths[i] = make([]Health, len(opt.Replicas[i]))
		rerrs[i] = make([]error, len(opt.Replicas[i]))
		for j, raddr := range opt.Replicas[i] {
			rclients[i][j] = newClient(normalizeAddr(raddr), i, k, opt.Client)
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				rhealths[i][j], rerrs[i][j] = rclients[i][j].handshake(ctx, raddr, true)
			}(i, j)
		}
	}
	wg.Wait()
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, rs := range rclients {
			for _, c := range rs {
				c.Close()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			closeAll()
			return nil, DeployInfo{}, dialErr(err, "transport: shard %d at %s: %w", i, addrs[i], err)
		}
	}
	// The K servers must describe one deployment: same partition width
	// and global dimensions (each one's identity and role were checked
	// by its handshake).
	for i, h := range healths {
		if h.GlobalNodes != healths[0].GlobalNodes || h.MaxNodes != healths[0].MaxNodes {
			closeAll()
			return nil, DeployInfo{}, fmt.Errorf("transport: shard %d disagrees on deployment dimensions (%d/%d nodes vs %d/%d)",
				i, h.GlobalNodes, h.MaxNodes, healths[0].GlobalNodes, healths[0].MaxNodes)
		}
		if h.Epoch != healths[0].Epoch {
			closeAll()
			return nil, DeployInfo{}, fmt.Errorf(
				"transport: shards disagree on the partition epoch (shard %d at epoch %d, shard 0 at epoch %d) — "+
					"a shard likely crashed around a rebalance flip; re-install the newer map on the lagging shard "+
					"(POST %s with the map from the shard at the higher epoch) and retry",
				i, h.Epoch, healths[0].Epoch, PathMap)
		}
	}
	// Decode the agreed map once (nil when everyone runs the epoch-0
	// base — pre-rebalancing servers omit the field entirely).
	var deployMap *shard.PartitionMap
	if len(healths[0].Map) > 0 {
		var err error
		if deployMap, err = shard.DecodePartitionMap(healths[0].Map); err != nil {
			closeAll()
			return nil, DeployInfo{}, fmt.Errorf("transport: shard 0 advertises an invalid partition map: %w", err)
		}
	}
	// Replicas must mirror the shard they are listed under and belong to
	// the same deployment; a primary listed as a replica is a second
	// writer and is refused.
	for i := range rclients {
		for j, rerr := range rerrs[i] {
			if rerr != nil {
				closeAll()
				return nil, DeployInfo{}, dialErr(rerr, "transport: shard %d replica %s: %w", i, opt.Replicas[i][j], rerr)
			}
			if rh := rhealths[i][j]; rh.GlobalNodes != healths[0].GlobalNodes || rh.MaxNodes != healths[0].MaxNodes {
				closeAll()
				return nil, DeployInfo{}, fmt.Errorf("transport: shard %d replica %s disagrees on deployment dimensions",
					i, opt.Replicas[i][j])
			}
		}
	}
	// The valid global id range must cover growth already applied by a
	// previous router: every replicated table entry is a live global id.
	curN := healths[0].GlobalNodes
	backends := make([]shard.Backend, k)
	for i, c := range clients {
		c.tabMu.RLock()
		for _, gv := range c.locals {
			if int(gv) >= curN {
				curN = int(gv) + 1
			}
		}
		c.tabMu.RUnlock()
		if opt.Replicas == nil {
			backends[i] = c
			continue
		}
		reps := make([]shard.Backend, len(rclients[i]))
		for j, rc := range rclients[i] {
			reps[j] = rc
		}
		backends[i] = shard.NewReplicaSet(c, reps)
	}
	for _, c := range clients {
		c.startPolling()
	}
	for _, rs := range rclients {
		for _, c := range rs {
			c.startPolling()
		}
	}
	return backends, DeployInfo{CurN: curN, MaxNodes: healths[0].MaxNodes, Map: deployMap}, nil
}

// handshake probes the shard until it answers (covers may still be
// building when the router starts) and mirrors its first snapshot. A
// server that answers as something other than shard c.shardID of c.k in
// the wanted role (a primary, or with replica a `-follow` mirror) fails
// at once: no retry can change what it hosts.
func (c *Client) handshake(ctx context.Context, addr string, replica bool) (Health, error) {
	var lastErr error
	for {
		hctx, cancel := context.WithTimeout(ctx, c.reqTO)
		h, err := c.health(hctx)
		cancel()
		if err == nil {
			if err := c.misaddressed(h, addr, replica); err != nil {
				return Health{}, err
			}
			if err = c.syncSnapshotCtx(ctx); err == nil {
				c.draining.Store(h.Draining)
				return h, nil
			}
		}
		lastErr = err
		select {
		case <-ctx.Done():
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			return Health{}, fmt.Errorf("handshake: %w", lastErr)
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// misaddressedError is a handshake's verdict that the server at an
// address is not the one the router was told it is. Dial reports it
// as is, without the per-address prefix of its other handshake errors.
type misaddressedError struct{ error }

// misaddressed checks h against what addr must be — protocol Version,
// shard c.shardID of c.k, and a primary or (with replica) a replica —
// and says in Dial's words what is wrong, or returns nil.
func (c *Client) misaddressed(h Health, addr string, replica bool) error {
	var err error
	switch {
	case replica && h.Protocol != Version:
		err = fmt.Errorf("transport: shard %d replica %s speaks protocol %d, this router speaks %d", c.shardID, addr, h.Protocol, Version)
	case replica && h.Role != RoleReplica:
		err = fmt.Errorf("transport: %s is not a replica; only `ocad -follow` servers may be listed as replicas", addr)
	case replica && (h.Shard != c.shardID || h.Shards != c.k):
		err = fmt.Errorf("transport: %s mirrors shard %d of %d, want shard %d of %d", addr, h.Shard, h.Shards, c.shardID, c.k)
	case replica:
		return nil
	case h.Protocol != Version:
		err = fmt.Errorf("transport: shard %d speaks protocol %d, this router speaks %d", c.shardID, h.Protocol, Version)
	case h.Shard != c.shardID || h.Shards != c.k:
		err = fmt.Errorf("transport: %s hosts shard %d of %d, want shard %d of %d", addr, h.Shard, h.Shards, c.shardID, c.k)
	case h.Role == RoleReplica:
		err = fmt.Errorf("transport: %s is a read-only replica (of %s); shard addresses must name primaries", addr, h.Primary)
	}
	if err != nil {
		return misaddressedError{err}
	}
	return nil
}

// dialErr returns a handshake's misaddressed verdict as is, and wraps
// any other handshake error with format and args.
func dialErr(err error, format string, args ...any) error {
	var mis misaddressedError
	if errors.As(err, &mis) {
		return mis.error
	}
	return fmt.Errorf(format, args...)
}

// normalizeAddr accepts host:port or a full URL.
func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}
