package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// apiClient is one closed-loop client: one connection to the front, one
// request in flight. Not safe for concurrent use.
type apiClient struct {
	hc   *http.Client
	base string
	body bytes.Buffer // the last response body; reused across requests
	req  bytes.Buffer // request body scratch
	// received is when the last response's final byte had been read:
	// where a request's latency ends. Decoding and checking the answer
	// are the harness's work, not the daemon's, and come after it.
	received time.Time
}

func newAPIClient(addr string) *apiClient {
	return &apiClient{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do issues one request and leaves the body in c.body. A transport
// error or a non-2xx status is an error: the operation failed.
func (c *apiClient) do(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	c.received = time.Now()
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.body.Bytes())
	}
	return nil
}

func (c *apiClient) doJSON(method, path string, reqBody, out any) error {
	var body []byte
	if reqBody != nil {
		c.req.Reset()
		if err := json.NewEncoder(&c.req).Encode(reqBody); err != nil {
			return err
		}
		body = c.req.Bytes()
	}
	if err := c.do(method, path, body); err != nil {
		return err
	}
	if err := json.Unmarshal(c.body.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// communityRef identifies one community in a lookup answer.
type communityRef struct {
	ID    int32 `json:"id"`
	Shard *int  `json:"shard,omitempty"`
	Size  int   `json:"size"`
}

// key flattens (shard, id) for comparisons; unsharded answers use
// shard 0.
func (r communityRef) key() [2]int32 {
	if r.Shard == nil {
		return [2]int32{0, r.ID}
	}
	return [2]int32{int32(*r.Shard), r.ID}
}

type shardGen struct {
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
}

type lookupResp struct {
	Node        int32          `json:"node"`
	Generation  uint64         `json:"generation"`
	Count       int            `json:"count"`
	Communities []communityRef `json:"communities"`
	Shards      []shardGen     `json:"shards"`
}

func (c *apiClient) lookup(id int32, out *lookupResp) error {
	*out = lookupResp{Communities: out.Communities[:0], Shards: out.Shards[:0]}
	return c.doJSON("GET", "/v1/node/"+strconv.Itoa(int(id))+"/communities", nil, out)
}

type batchResp struct {
	Generation uint64 `json:"generation"`
	Count      int    `json:"count"`
	Results    []struct {
		Node        int32          `json:"node"`
		Count       int            `json:"count"`
		Communities []communityRef `json:"communities"`
		Error       string         `json:"error"`
	} `json:"results"`
}

func (c *apiClient) batch(ids []int32, out *batchResp) error {
	*out = batchResp{}
	return c.doJSON("POST", "/v1/nodes/communities", struct {
		IDs []int32 `json:"ids"`
	}{ids}, out)
}

type searchResp struct {
	Seed       int32   `json:"seed"`
	Size       int     `json:"size"`
	Fitness    float64 `json:"fitness"`
	Members    []int32 `json:"members"`
	Generation uint64  `json:"generation"`
	Cached     bool    `json:"cached"`
}

func (c *apiClient) search(seed int32, rngSeed int64, out *searchResp) error {
	*out = searchResp{Members: out.Members[:0]}
	return c.doJSON("POST", "/v1/search", struct {
		Seed    int32 `json:"seed"`
		RNGSeed int64 `json:"rng_seed,omitempty"`
	}{seed, rngSeed}, out)
}

type edgesResp struct {
	Queued     int        `json:"queued"`
	Generation uint64     `json:"generation"`
	Applied    bool       `json:"applied"`
	Shards     []shardGen `json:"shards"`
}

func (c *apiClient) edges(add, remove [][2]int32, wait bool, out *edgesResp) error {
	*out = edgesResp{}
	return c.doJSON("POST", "/v1/edges", struct {
		Add    [][2]int32 `json:"add,omitempty"`
		Remove [][2]int32 `json:"remove,omitempty"`
		Wait   bool       `json:"wait,omitempty"`
	}{add, remove, wait}, out)
}
