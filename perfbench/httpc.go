package main

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"viewmap/internal/geo"
	"viewmap/internal/server"
	"viewmap/internal/vd"
)

// token is the authority token every prepared system is opened with.
const token = "perfbench"

// endpoint serves one System over loopback HTTP for the length of a run.
type endpoint struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	base string
}

func serve(sys *server.System) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &endpoint{
		srv:  &http.Server{Handler: server.Handler(sys)},
		ln:   ln,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return e, nil
}

// stop closes the listener and every connection and waits for the
// serving goroutine to return.
func (e *endpoint) stop() {
	_ = e.srv.Close() // Serve's return is the only outcome that matters
	<-e.done
}

// conn is the benchmark's HTTP client. It posts pre-built bodies
// straight to the API (the onion-routing wrapper of internal/client
// is a client-side cost the benchmark leaves out) and retries 429s a
// bounded number of times; a 429 left after that is an error, which
// the caller counts as a failed operation.
type conn struct {
	base string
	hc   *http.Client
	// sessions numbers the requests, which also gives evidence
	// requests their single-use X-Session ids.
	sessions atomic.Int64
	name     string
	tr       *tracer // nil: requests are not traced
}

func newConn(base, name string, tr *tracer) *conn {
	return &conn{
		base: base,
		name: name,
		tr:   tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

const maxRetries = 4

// do sends one request and decodes a JSON reply into out (nil skips
// decoding). A 429 is retried after a short pause, up to maxRetries.
func (c *conn) do(method, path string, body []byte, authority bool, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if authority {
			req.Header.Set("X-Viewmap-Authority", token)
		}
		seq := c.sessions.Add(1)
		req.Header.Set("X-Session", c.name+"-"+strconv.FormatInt(seq, 10))
		id, sampled := c.tr.beginRequest(path, seq)
		t0 := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			c.tr.stop(id)
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.tr.endRequest(id, path, sampled, time.Since(t0))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries {
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
			continue
		}
		if resp.StatusCode/100 != 2 {
			return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
}

// batchReply mirrors the /v1/vp/batch response.
type batchReply struct {
	Stored     int `json:"stored"`
	Duplicates int `json:"duplicates"`
	Rejected   int `json:"rejected"`
}

func (c *conn) uploadBatch(body []byte) (batchReply, error) {
	var r batchReply
	err := c.do("POST", "/v1/vp/batch", body, false, &r)
	return r, err
}

func (c *conn) uploadTrusted(body []byte) error {
	return c.do("POST", "/v1/vp/trusted", body, true, nil)
}

type siteJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func siteOf(r geo.Rect) siteJSON {
	return siteJSON{MinX: r.Min.X, MinY: r.Min.Y, MaxX: r.Max.X, MaxY: r.Max.Y}
}

// report is the part of an investigation reply the checks compare.
type report struct {
	Members    int      `json:"members"`
	Edges      int      `json:"edges"`
	Legitimate []string `json:"legitimate"`
}

func (c *conn) investigate(site geo.Rect, minute int64) (*report, error) {
	body, _ := json.Marshal(map[string]any{"site": siteOf(site), "minute": minute})
	var r report
	if err := c.do("POST", "/v1/investigate", body, true, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func (c *conn) period(site geo.Rect, first, last int64) ([]*report, error) {
	body, _ := json.Marshal(map[string]any{"site": siteOf(site), "firstMinute": first, "lastMinute": last})
	var r struct {
		Minutes []*report `json:"minutes"`
	}
	if err := c.do("POST", "/v1/investigate/period", body, true, &r); err != nil {
		return nil, err
	}
	return r.Minutes, nil
}

func (c *conn) solicit(site geo.Rect, minute int64, units int) (listed int, err error) {
	body, _ := json.Marshal(map[string]any{"site": siteOf(site), "minute": minute, "units": units})
	var r struct {
		Listed int `json:"listed"`
	}
	err = c.do("POST", "/v1/evidence/solicit", body, true, &r)
	return r.Listed, err
}

func (c *conn) deliver(id vd.VPID, q vd.Secret, chunks [][]byte) (int, error) {
	enc := make([]string, len(chunks))
	for i, ch := range chunks {
		enc[i] = base64.StdEncoding.EncodeToString(ch)
	}
	body, _ := json.Marshal(map[string]any{
		"id": hex.EncodeToString(id[:]), "secret": hex.EncodeToString(q[:]), "chunks": enc,
	})
	var r struct {
		Units int `json:"units"`
	}
	err := c.do("POST", "/v1/evidence/deliver", body, false, &r)
	return r.Units, err
}

func (c *conn) payout(id vd.VPID, q vd.Secret, blinded []*big.Int) ([]*big.Int, error) {
	enc := make([]string, len(blinded))
	for i, b := range blinded {
		enc[i] = b.String()
	}
	body, _ := json.Marshal(map[string]any{
		"id": hex.EncodeToString(id[:]), "secret": hex.EncodeToString(q[:]), "blinded": enc,
	})
	var r struct {
		Signatures []string `json:"signatures"`
	}
	if err := c.do("POST", "/v1/evidence/payout", body, false, &r); err != nil {
		return nil, err
	}
	sigs := make([]*big.Int, len(r.Signatures))
	for i, s := range r.Signatures {
		v, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return nil, fmt.Errorf("payout signature %d is not decimal", i)
		}
		sigs[i] = v
	}
	return sigs, nil
}

func (c *conn) redeem(m []byte, sig *big.Int) error {
	body, _ := json.Marshal(map[string]string{"m": base64.StdEncoding.EncodeToString(m), "sig": sig.String()})
	return c.do("POST", "/v1/evidence/redeem", body, false, nil)
}

// release fetches the redacted copy of a delivery and returns its
// chunk and redacted-frame counts.
func (c *conn) release(id vd.VPID) (chunks, frames int, err error) {
	var r struct {
		Chunks         []string `json:"chunks"`
		RedactedFrames int      `json:"redactedFrames"`
	}
	err = c.do("GET", "/v1/evidence/video?id="+hex.EncodeToString(id[:]), nil, true, &r)
	return len(r.Chunks), r.RedactedFrames, err
}
