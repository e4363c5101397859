package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// WriteEdgeList writes the graph as a plain text edge list: a header line
// "# nodes <n> edges <m>" followed by one "u v" pair per line with u < v.
// The format round-trips through ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.N(), g.M()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// ReadLimits bound what an edge-list parse will materialize. A text
// file is tiny compared to the graph it can declare ("# nodes 2000000000"
// or a single edge naming node 2^31-1 both demand a multi-gigabyte
// offsets array), so parsers fed from untrusted input should cap both
// dimensions. Zero fields mean unlimited.
type ReadLimits struct {
	// MaxNodes rejects inputs whose declared or implied node count
	// exceeds it.
	MaxNodes int
	// MaxEdges rejects inputs with more edge lines than it.
	MaxEdges int64
}

// ReadEdgeList parses the format written by WriteEdgeList. Lines starting
// with '#' other than the header, and blank lines, are ignored. If no
// header is present the node count is inferred as max id + 1.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimits(r, ReadLimits{})
}

// ReadEdgeListLimits is ReadEdgeList with hard caps on the declared or
// implied graph size, for parsing untrusted input with bounded memory.
func ReadEdgeListLimits(r io.Reader, lim ReadLimits) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []uint64 // packEdge keys
	maxID := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// The line stays a slice of the scanner's buffer: an edge line
		// costs no allocation.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			var hn int
			var hm int64
			if _, err := fmt.Sscanf(string(line), "# nodes %d edges %d", &hn, &hm); err == nil {
				if lim.MaxNodes > 0 && hn > lim.MaxNodes {
					return nil, fmt.Errorf("graph: line %d: declared node count %d exceeds limit %d", lineNo, hn, lim.MaxNodes)
				}
				n = hn
				if edges == nil {
					edges = make([]uint64, 0, edgeHint(hm, lim))
				}
			}
			continue
		}
		f0, rest := cutField(line)
		f1, _ := cutField(rest)
		if len(f1) == 0 {
			return nil, fmt.Errorf("graph: line %d: want two node ids, got %q", lineNo, line)
		}
		u, err := parseNodeID(f0)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, f0, err)
		}
		v, err := parseNodeID(f1)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, f1, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		if lim.MaxNodes > 0 && (u >= int64(lim.MaxNodes) || v >= int64(lim.MaxNodes)) {
			return nil, fmt.Errorf("graph: line %d: node id exceeds limit %d", lineNo, lim.MaxNodes)
		}
		if lim.MaxEdges > 0 && int64(len(edges)) >= lim.MaxEdges {
			return nil, fmt.Errorf("graph: line %d: edge count exceeds limit %d", lineNo, lim.MaxEdges)
		}
		iu, iv := int32(u), int32(v)
		if iu > maxID {
			maxID = iu
		}
		if iv > maxID {
			maxID = iv
		}
		edges = append(edges, packEdge(iu, iv))
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
	return buildCSR(n, edges), nil
}

// edgeHint turns a header's declared edge count into an initial
// capacity. The header is untrusted, so it is only a hint: clamped to
// the edge limit and to 4M edges (32 MB of address space), beyond which
// append growth takes over.
func edgeHint(declared int64, lim ReadLimits) int64 {
	hint := min(max(declared, 0), 1<<22)
	if lim.MaxEdges > 0 {
		hint = min(hint, lim.MaxEdges)
	}
	return hint
}

// cutField returns the first whitespace-delimited field of b and the
// bytes after it — strings.Fields' splitting (Unicode white space,
// invalid UTF-8 is not space), one field at a time and without its
// slice. The field is empty when b holds only white space.
func cutField(b []byte) (field, rest []byte) {
	start := fieldEdge(b, 0, true)
	end := fieldEdge(b, start, false)
	return b[start:end], b[end:]
}

// fieldEdge returns the index of the first rune at or after i that is
// not white space (space true) or is white space (space false);
// len(b) when there is none.
func fieldEdge(b []byte, i int, space bool) int {
	for i < len(b) {
		c, w := b[i], 1
		isSpace := c == ' ' || c-'\t' <= '\r'-'\t'
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(b[i:])
			isSpace = unicode.IsSpace(r)
		}
		if isSpace != space {
			return i
		}
		i += w
	}
	return i
}

// parseNodeID is strconv.ParseInt(string(f), 10, 32) with a fast path
// for what edge lists hold: up to nine plain digits, which cannot
// overflow. Signs, longer runs and every malformed field take strconv's
// path, so its values and its error texts are the contract.
func parseNodeID(f []byte) (int64, error) {
	if len(f) == 0 || len(f) > 9 {
		return strconv.ParseInt(string(f), 10, 32)
	}
	var v int64
	for _, c := range f {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(f), 10, 32)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}
