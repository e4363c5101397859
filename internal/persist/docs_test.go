package persist

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

// linesFromDoc extracts the non-empty lines of the fenced block
// following the given marker comment in docs/PERSISTENCE.md.
func linesFromDoc(t *testing.T, doc, marker string) []string {
	t.Helper()
	_, after, found := strings.Cut(doc, marker)
	if !found {
		t.Fatalf("docs/PERSISTENCE.md: marker %q missing", marker)
	}
	_, after, found = strings.Cut(after, "```")
	if !found {
		t.Fatalf("docs/PERSISTENCE.md: no fenced block after %q", marker)
	}
	block, _, found := strings.Cut(after, "```")
	if !found {
		t.Fatalf("docs/PERSISTENCE.md: unterminated fenced block after %q", marker)
	}
	var lines []string
	for _, line := range strings.Split(block, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

// metaKeys lists segMeta's JSON keys in field order the way the spec
// writes them: the key, then "optional" when it is omitted at zero.
func metaKeys() []string {
	var keys []string
	rt := reflect.TypeOf(segMeta{})
	for i := 0; i < rt.NumField(); i++ {
		name, opts, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if opts == "omitempty" {
			name += " optional"
		}
		keys = append(keys, name)
	}
	return keys
}

// TestPersistenceDocSync is the documentation lint: the normative
// constants in docs/PERSISTENCE.md (magics, format versions, record
// types, patch modes, section tags, file-name patterns, META keys) must
// equal the ones the code ships. Changing the on-disk format without
// updating the spec — or vice versa — fails here.
func TestPersistenceDocSync(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PERSISTENCE.md")
	if err != nil {
		t.Fatalf("reading docs/PERSISTENCE.md: %v", err)
	}
	doc := string(raw)

	for _, tc := range []struct {
		marker string
		want   []string
	}{
		{"<!-- persist:magics -->", []string{
			fmt.Sprintf("%s %d", wal.MagicLog[:], wal.VersionLog),
			fmt.Sprintf("%s %d", MagicSegment[:], VersionSegment),
		}},
		{"<!-- persist:records -->", []string{
			fmt.Sprintf("%d edge-batch", wal.RecEdgeBatch),
			fmt.Sprintf("%d publish", wal.RecPublish),
			fmt.Sprintf("%d cover-patch", wal.RecCoverPatch),
		}},
		{"<!-- persist:patch-modes -->", []string{
			fmt.Sprintf("%d %s", wal.PatchFull, patchModes[wal.PatchFull]),
			fmt.Sprintf("%d %s", wal.PatchIncremental, patchModes[wal.PatchIncremental]),
			fmt.Sprintf("%d %s", wal.PatchFastpath, patchModes[wal.PatchFastpath]),
		}},
		{"<!-- persist:sections -->", []string{
			string(SecMeta[:]), string(SecGraph[:]), string(SecCover[:]),
			string(SecTable[:]), string(SecEnd[:]),
		}},
		{"<!-- persist:filenames -->", []string{
			SegmentPattern,
			WALPattern,
		}},
		{"<!-- persist:meta-keys -->", metaKeys()},
	} {
		if got := linesFromDoc(t, doc, tc.marker); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: doc lists %q, code ships %q", tc.marker, got, tc.want)
		}
	}

	// The prose states the parser limits; keep the numbers honest too.
	for _, want := range []string{"16 MiB", "1<<24", "2^36"} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/PERSISTENCE.md: parser limit %q no longer mentioned", want)
		}
	}
}
