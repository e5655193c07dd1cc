package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/server"
)

// The request and response bodies below name only JSON fields of the
// server's session API, so the benchmark does not depend on the Go
// types behind them.

type solveBody struct {
	Solver         string `json:"solver"`
	ComponentSolve bool   `json:"componentSolve,omitempty"`
	Delta          bool   `json:"delta,omitempty"`
}

// componentSolve is the incremental exact per-component MLN solve that
// durable-ingest's catch-up and restart solves request.
var componentSolve = &solveBody{Solver: "mln", ComponentSolve: true, Delta: true}

type createBody struct {
	TQuads string `json:"tquads"`
	Rules  string `json:"rules"`
}

type batchBody struct {
	Add    string     `json:"add,omitempty"`
	Remove string     `json:"remove,omitempty"`
	Solve  *solveBody `json:"solve,omitempty"`
}

type sessionInfo struct {
	ID     string `json:"id"`
	Facts  int    `json:"facts"`
	Epoch  uint64 `json:"epoch"`
	Memory *struct {
		BytesPerFact float64 `json:"bytes_per_fact"`
	} `json:"memory"`
}

type solveResp struct {
	Stats   solveStats `json:"stats"`
	Epoch   uint64     `json:"epoch"`
	Kept    []string   `json:"kept"`
	Removed []string   `json:"removed"`
}

type batchResp struct {
	Added   int        `json:"added"`
	Removed int        `json:"removed"`
	Facts   int        `json:"facts"`
	Epoch   uint64     `json:"epoch"`
	Solve   *solveResp `json:"solve"`
}

type outcomeResp struct {
	solveResp
	Solved bool `json:"solved"`
}

// client is one HTTP client of the in-process server. It makes no
// retries: every non-2xx status is returned as an error.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 150 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx response.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do sends one request and decodes a 2xx response body into out.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(msg))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// countFailure records a failed request: a 429 also counts as
// rejected.
func (p *pass) countFailure(what string, err error) {
	if se, ok := err.(*statusError); ok && se.code == http.StatusTooManyRequests {
		p.reject()
	}
	p.op(false, "%s: %v", what, err)
}

// fullOutcome reads a session's committed outcome with every fact
// listed. The HTTP API caps lists at srv.MaxFactsInResponse, so the
// cap is lifted for this one read, served by the handler directly on
// the calling goroutine while no client is active.
func fullOutcome(srv *server.Server, id string) (*outcomeResp, error) {
	prev := srv.MaxFactsInResponse
	srv.MaxFactsInResponse = 1 << 30
	defer func() { srv.MaxFactsInResponse = prev }()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/sessions/"+id+"/outcome", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("outcome of %s: status %d: %s", id, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var out outcomeResp
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return nil, err
	}
	if !out.Solved {
		return nil, fmt.Errorf("outcome of %s: session not solved", id)
	}
	return &out, nil
}
