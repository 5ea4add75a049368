package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a reply later than this is a
// failure.
const requestTimeout = 30 * time.Second

// client posts requests to a specd base URL over at most `senders`
// keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: senders,
				MaxConnsPerHost:     senders,
				DisableCompression:  true,
			},
			Timeout: requestTimeout,
		},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// post sends r and returns the reply. A reply to a request with a
// verified set-up response must equal it byte for byte.
func (c *client) post(ctx context.Context, r *request) ([]byte, error) {
	data, err := c.do(ctx, http.MethodPost, r.path, r.body)
	if err != nil {
		return nil, err
	}
	if r.want != nil && !bytes.Equal(data, *r.want) {
		return nil, fmt.Errorf("POST %s %s: reply differs from the verified set-up reply", r.path, r.body)
	}
	return data, nil
}

// sample is one request's outcome.
type sample struct {
	kind kind
	ok   bool
	// latency runs from when the request was due (open loop) or sent
	// (closed loop) to the full reply; service from when it was sent.
	latency, service time.Duration
	// lag is how late an open-loop sender sent the request.
	lag time.Duration
	// end is when the reply was complete.
	end time.Time
}

// coldReply keeps an eval-cold reply for the post-window reference check.
type coldReply struct {
	r    *request
	body []byte
}

// outcome is what one load phase observed.
type outcome struct {
	samples []sample
	colds   []coldReply
	errs    []error
}

func (o *outcome) record(r *request, due, sent time.Time, body []byte, err error) {
	now := time.Now()
	o.samples = append(o.samples, sample{
		kind: r.kind, ok: err == nil,
		latency: now.Sub(due), service: now.Sub(sent), lag: sent.Sub(due), end: now,
	})
	if err != nil {
		o.errs = append(o.errs, err)
	} else if r.kind == evalCold {
		o.colds = append(o.colds, coldReply{r, body})
	}
}

func merge(parts []*outcome) *outcome {
	all := &outcome{}
	for _, p := range parts {
		all.samples = append(all.samples, p.samples...)
		all.colds = append(all.colds, p.colds...)
		all.errs = append(all.errs, p.errs...)
	}
	return all
}

// closedLoop runs `closedClients` clients for d, each sending its next
// request from st as soon as its previous reply arrives.
func closedLoop(ctx context.Context, c *client, st *stream, d time.Duration) *outcome {
	end := time.Now().Add(d)
	parts := make([]*outcome, closedClients)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &outcome{}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				r := st.next()
				sent := time.Now()
				body, err := c.post(ctx, r)
				o.record(r, sent, sent, body, err)
			}
		}(parts[i])
	}
	wg.Wait()
	return merge(parts)
}

// openLoop sends reqs[i] at due[i] after the start from `senders`
// goroutines. A sender still waiting on a reply sends its next request
// late; latency counts from the due time, so a stall shows in every
// request queued behind it.
func openLoop(ctx context.Context, c *client, reqs []*request, due []time.Duration) *outcome {
	start := time.Now()
	var next atomic.Int64
	parts := make([]*outcome, senders)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &outcome{}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				sent := time.Now()
				body, err := c.post(ctx, reqs[i])
				o.record(reqs[i], at, sent, body, err)
			}
		}(parts[i])
	}
	wg.Wait()
	return merge(parts)
}

// errSummary renders the first few failures of a phase.
func errSummary(errs []error) error {
	if len(errs) > 3 {
		errs = append(errs[:3:3], fmt.Errorf("... and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}
