package transport

import (
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
)

// routesFromDoc extracts the fenced route list following the given
// marker comment in docs/PROTOCOL.md.
func routesFromDoc(t *testing.T, doc, marker string) []string {
	t.Helper()
	_, after, found := strings.Cut(doc, marker)
	if !found {
		t.Fatalf("docs/PROTOCOL.md: marker %q missing", marker)
	}
	_, after, found = strings.Cut(after, "```")
	if !found {
		t.Fatalf("docs/PROTOCOL.md: no fenced block after %q", marker)
	}
	block, _, found := strings.Cut(after, "```")
	if !found {
		t.Fatalf("docs/PROTOCOL.md: unterminated fenced block after %q", marker)
	}
	var routes []string
	for _, line := range strings.Split(block, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			routes = append(routes, line)
		}
	}
	return routes
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestProtocolDocSync is the documentation lint: the endpoint lists in
// docs/PROTOCOL.md must equal the route manifests the binaries
// register. Adding, renaming or removing an endpoint without updating
// the protocol document fails here.
func TestProtocolDocSync(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading docs/PROTOCOL.md: %v", err)
	}
	doc := string(raw)

	for _, tc := range []struct {
		marker string
		want   []string
	}{
		{"<!-- routes:shard -->", Routes},
		{"<!-- routes:replica -->", ReplicaRoutes},
		{"<!-- routes:public -->", server.Routes()},
	} {
		got := sortedCopy(routesFromDoc(t, doc, tc.marker))
		want := sortedCopy(tc.want)
		if len(got) != len(want) {
			t.Errorf("%s: doc lists %d routes, binaries register %d\n doc: %v\n reg: %v",
				tc.marker, len(got), len(want), got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: doc route %q != registered route %q", tc.marker, got[i], want[i])
			}
		}
	}

	// The snapshot media types and headers, and every record the chain
	// body carries, are named where the chain is described.
	_, chain, found := strings.Cut(doc, "#### Chains:")
	if !found {
		t.Fatal("docs/PROTOCOL.md: no \"#### Chains:\" section")
	}
	chain, _, _ = strings.Cut(chain, "\n### ")
	for _, name := range []string{ContentTypeSnapshot, ContentTypeSnapshotChain, HeaderSnapshotInstance, HeaderPartitionMap,
		"edge-batch", "cover-patch", "publish"} {
		if !strings.Contains(chain, "`"+name) {
			t.Errorf("docs/PROTOCOL.md chain section does not name %s", name)
		}
	}
	if !strings.Contains(doc, `"chain_misses"`) {
		t.Error("docs/PROTOCOL.md does not document health chain_misses")
	}
}

// TestManifestsMatchMuxes proves the manifests aren't themselves stale:
// every listed route is actually served by the corresponding mux
// (anything unregistered would answer 404/405).
func TestManifestsMatchMuxes(t *testing.T) {
	g := twoCliques(t)
	cl, _ := startCluster(t, g, 2, 0, testOCA())

	check := func(h http.Handler, routes []string) {
		t.Helper()
		for _, rt := range routes {
			method, path, ok := strings.Cut(rt, " ")
			if !ok {
				t.Fatalf("malformed manifest entry %q", rt)
			}
			path = strings.ReplaceAll(path, "{id}", "0")
			req := httptest.NewRequest(method, path, strings.NewReader("{}"))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
				t.Errorf("manifest route %q answers %d — not registered on the mux", rt, rec.Code)
			}
		}
	}
	check(cl.shards[0].Handler(), Routes)

	rs, _, _ := startReplica(t, cl.addrs[0])
	check(rs.Handler(), ReplicaRoutes)

	srv, err := server.New(twoCliques(t), server.Config{OCA: testOCA()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	check(srv.Handler(), server.Routes())
}
