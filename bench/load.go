package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/tasti"
)

// newClient returns a keep-alive HTTP client capped at conns connections to
// the child, so "c2" means two sockets and never more.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 90 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	req    request
	start  time.Time
	took   time.Duration
	status int
	body   []byte
	err    error // transport error
}

func post(client *http.Client, url string, body []byte) (status int, out []byte, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runReaders drives the schedule closed-loop on conns connections: each
// connection sends its next request only when the previous answer arrived.
// It deals requests until stop reports true (checked before each send) and
// returns the replies in schedule order.
func runReaders(client *http.Client, base string, sched *schedule, conns int, stop func(dealt int) bool) []reply {
	var (
		mu    sync.Mutex
		dealt int
		out   []reply
		wg    sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stop(dealt) {
					mu.Unlock()
					return
				}
				dealt++
				req := sched.next()
				mu.Unlock()

				r := reply{req: req, start: time.Now()}
				r.status, r.body, r.err = post(client, base+"/query/"+sched.pool[req.Shape].Route, req.Body)
				r.took = time.Since(r.start)

				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Completion order differs from deal order on two connections.
	sort.Slice(out, func(i, j int) bool { return out[i].req.Seq < out[j].req.Seq })
	return out
}

// ingestRecord mirrors tastiserve's POST /ingest record schema.
type ingestRecord struct {
	Features   []float64                `json:"features"`
	Annotation tasti.AnnotationEnvelope `json:"annotation"`
}

// ingestBodies pre-marshals batches of `per` records from src, so the writer
// spends its time on the wire, not in the encoder.
func ingestBodies(src *tasti.Dataset, batches, per int) ([][]byte, error) {
	out := make([][]byte, batches)
	for b := range out {
		recs := make([]ingestRecord, per)
		for i := range recs {
			id := b*per + i
			env, err := tasti.AnnotationEnvelopeOf(src.Truth[id])
			if err != nil {
				return nil, err
			}
			recs[i] = ingestRecord{Features: src.Records[id].Features, Annotation: env}
		}
		body, err := json.Marshal(map[string]interface{}{"records": recs})
		if err != nil {
			return nil, err
		}
		out[b] = body
	}
	return out, nil
}

// ack is one POST /ingest outcome. took runs from the batch's due time, so a
// stall delays — and is charged to — every batch queued behind it; lag is
// how late the generator itself sent the batch.
type ack struct {
	batch  int
	took   time.Duration
	lag    time.Duration
	status int
	body   []byte
	err    error
}

// runWriter posts the bodies on one connection. With interval > 0 it is an
// open loop: batch i is due at start + i*interval whatever the server does.
// With interval 0 it is a closed loop and each batch is due when the
// previous ack arrived. A cancelled ctx ends it early.
func runWriter(ctx context.Context, client *http.Client, base string, bodies [][]byte, interval time.Duration) []ack {
	out := make([]ack, 0, len(bodies))
	start := time.Now()
	for i, body := range bodies {
		if ctx.Err() != nil {
			break
		}
		due := time.Now()
		if interval > 0 {
			due = start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
		}
		a := ack{batch: i, lag: time.Since(due)}
		a.status, a.body, a.err = post(client, base+"/ingest", body)
		a.took = time.Since(due)
		out = append(out, a)
	}
	return out
}

// failure describes why a reply counts against fail_share.
func (r reply) failure() error {
	if r.err != nil {
		return fmt.Errorf("transport: %w", r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}
