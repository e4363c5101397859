package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readEdgeListReference is the edge-list reader as it stood before the
// allocation-free rewrite — a string and a strings.Fields slice per
// line, strconv on every field — kept verbatim as the oracle: the
// shipped reader must accept exactly what this accepts, build the same
// graph from it, and fail with the same message on everything else.
func readEdgeListReference(r io.Reader, lim ReadLimits) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var pairs [][2]int32
	maxID := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn int
			var hm int64
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &hm); err == nil {
				if lim.MaxNodes > 0 && hn > lim.MaxNodes {
					return nil, fmt.Errorf("graph: line %d: declared node count %d exceeds limit %d", lineNo, hn, lim.MaxNodes)
				}
				n = hn
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two node ids, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		if lim.MaxNodes > 0 && (u >= int64(lim.MaxNodes) || v >= int64(lim.MaxNodes)) {
			return nil, fmt.Errorf("graph: line %d: node id exceeds limit %d", lineNo, lim.MaxNodes)
		}
		if lim.MaxEdges > 0 && int64(len(pairs)) >= lim.MaxEdges {
			return nil, fmt.Errorf("graph: line %d: edge count exceeds limit %d", lineNo, lim.MaxEdges)
		}
		iu, iv := int32(u), int32(v)
		if iu > maxID {
			maxID = iu
		}
		if iv > maxID {
			maxID = iv
		}
		pairs = append(pairs, [2]int32{iu, iv})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %v", err)
	}
	if n < 0 {
		n = int(maxID) + 1
	}
	if int(maxID) >= n {
		return nil, fmt.Errorf("graph: node id %d exceeds declared node count %d", maxID, n)
	}
	return FromEdges(n, pairs), nil
}

// checkedInCorpus decodes the []byte entries of a `go test fuzz v1`
// corpus directory.
func checkedInCorpus(t *testing.T, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files in %s (err %v)", dir, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			out = append(out, []byte(s))
		}
	}
	return out
}

// TestReadEdgeListMatchesReference is the differential test for the
// reader rewrite: over FuzzReadAuto's corpus, the forms the fast path
// must hand to strconv (signs, ten-digit and overflowing ids, leading
// zeros), Unicode and invalid-UTF-8 separators, and a seeded stream of
// lines spliced from those tokens, the shipped reader and the reference
// agree on the graph or on the error text, under loose and tight limits.
func TestReadEdgeListMatchesReference(t *testing.T) {
	inputs := append(readAutoSeeds(t), checkedInCorpus(t, filepath.Join("testdata", "fuzz", "FuzzReadAuto"))...)
	for _, s := range []string{
		"", "\n\n", "7\n", "7 \n", " 7 8 9 \n", "0 1 # trailing\n",
		"+1 2\n", "-0 3\n", "1 -0\n", "-1 -1\n", "+ 1\n", "- 1\n", "1 +\n",
		"007 0000000000000000000000000000008\n", "1_0 2\n", "0x1 2\n", "1e1 2\n", "1. 2\n",
		"999999999 0\n", "1000000000 0\n", "2147483647 0\n", "2147483648 0\n", "0 99999999999999999999\n",
		"1\t2\r\n3\v4\n5\f6\n", "1\u00a02\n", "1\u20032\n", "1\u00852\n", "\u3000 1 2 \u3000\n",
		"1\xff2\n", "1 \xff 2\n", "\xc21 2\n", "1\xc2 2\n", "1\x002\n", "1 2\x00\n",
		"#\n# nodes 3 edges\n# nodes 3 edges 1\n0 1\n", "# nodes -4 edges 0\n", " # nodes 2 edges 0\n0 1\n",
		"# nodes 2 edges 9\n0 5\n", "#nodes 9 edges 0\n0 1\n", "0 1\n# nodes 1 edges 0\n",
		"0 1\n1 2\n2 3\n3 4\n", "0 8\n", "0 7\n",
		"0 1\n1", "0 1\r", "\ufeff0 1\n",
	} {
		inputs = append(inputs, []byte(s))
	}
	tokens := []string{
		"0", "1", "7", "12", "1023", "1024", "999999999", "1000000000", "2147483647", "2147483648",
		"+3", "-0", "-2", "003", "4x", "x", "#", "# nodes 9 edges 1", "1.5", "",
		" ", "  ", "\t", "\r", "\v", "\u00a0", "\u2003", "\xff", "\n", "\n", "\n",
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		for j := rng.Intn(12); j >= 0; j-- {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			if rng.Intn(3) > 0 {
				sb.WriteByte(' ')
			}
		}
		inputs = append(inputs, []byte(sb.String()))
	}

	accepted := 0
	for _, lim := range []ReadLimits{{MaxNodes: 1024, MaxEdges: 64}, {MaxNodes: 8, MaxEdges: 3}} {
		for _, in := range inputs {
			got, gotErr := ReadEdgeListLimits(bytes.NewReader(in), lim)
			want, wantErr := readEdgeListReference(bytes.NewReader(in), lim)
			switch {
			case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Errorf("%q under %+v: error %v, reference %v", in, lim, gotErr, wantErr)
			case gotErr == nil:
				accepted++
				if !graphsEqual(got, want) {
					t.Errorf("%q under %+v: graph differs from the reference's", in, lim)
				}
			}
		}
	}
	if accepted < 100 {
		t.Errorf("only %d inputs parsed: the comparison is mostly of error paths", accepted)
	}
}
