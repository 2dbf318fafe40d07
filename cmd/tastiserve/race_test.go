package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/tasti"
)

// readOnlyQueries is what the readers of the concurrency test ask, over and
// over: one request of every type, none of which writes.
var readOnlyQueries = []struct{ route, body string }{
	{"aggregate", `{"class":"car","err":0.3}`},
	{"select", `{"class":"car","count":1,"budget":120,"recall":0.9}`},
	{"limit", `{"class":"car","count":1,"k":5}`},
}

// versionLog is every index version a server published, in order. Writers
// append to it (the test serializes them while it is being relied on), so it
// is complete once they have stopped.
type versionLog struct {
	mu       sync.Mutex
	versions []*tasti.IndexVersion
}

// record appends the published version unless it is already the newest one (a
// write that changed nothing publishes nothing).
func (l *versionLog) record(v *tasti.IndexVersion) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.versions) == 0 || l.versions[len(l.versions)-1] != v {
		l.versions = append(l.versions, v)
	}
}

// span returns the versions published from first through last, inclusive.
func (l *versionLog) span(first, last *tasti.IndexVersion) []*tasti.IndexVersion {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, j := slices.Index(l.versions, first), slices.Index(l.versions, last)
	if i < 0 || j < i {
		return nil
	}
	return l.versions[i : j+1]
}

// observedRead is one read-only request as a reader saw it: the versions
// published just before it was sent and just after its response arrived, and
// the response.
type observedRead struct {
	query         int
	before, after *tasti.IndexVersion
	body          []byte
}

// serialAnswers computes the answer a server gives to a read-only query when
// nothing else is going on and the index is exactly version v: it asks a
// private server whose whole index is a deep copy of v. An answer depends on
// the index state and the corpus alone — the label store only changes who
// pays — so this is the byte-exact reference for any request that pinned v.
type serialAnswers struct {
	srv   *server
	cache map[*tasti.IndexVersion][][]byte
}

func (sa *serialAnswers) of(t *testing.T, v *tasti.IndexVersion) [][]byte {
	t.Helper()
	if got, ok := sa.cache[v]; ok {
		return got
	}
	probe := newServerShell(serverOptions{dataset: sa.srv.name, seed: sa.srv.seed, parallelism: sa.srv.opts.parallelism})
	probe.corpus.Store(sa.srv.corpus.Load())
	probe.dim = sa.srv.dim
	probe.target = sa.srv.target
	probe.breaker = sa.srv.breaker
	probe.index = v.Clone()
	probe.ready.Store(true)
	h := probe.handler()
	answers := make([][]byte, len(readOnlyQueries))
	for q, query := range readOnlyQueries {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/"+query.route, strings.NewReader(query.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("serial %s over a pinned version: status %d: %s", query.route, rec.Code, rec.Body)
		}
		answers[q] = rec.Body.Bytes()
	}
	if sa.cache == nil {
		sa.cache = map[*tasti.IndexVersion][][]byte{}
	}
	sa.cache[v] = answers
	return answers
}

// runReaders starts n readers cycling through readOnlyQueries until stop is
// closed; the returned function waits for them and hands back what they saw.
func runReaders(t *testing.T, srv *server, url string, n int, stop <-chan struct{}) func() []observedRead {
	var wg sync.WaitGroup
	seen := make([][]observedRead, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := i % len(readOnlyQueries)
				before := srv.index.Pin()
				resp, err := http.Post(url+"/query/"+readOnlyQueries[q].route, "application/json",
					strings.NewReader(readOnlyQueries[q].body))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: /query/%s: status %d, %v: %s", g, readOnlyQueries[q].route, resp.StatusCode, err, body)
					return
				}
				seen[g] = append(seen[g], observedRead{query: q, before: before, after: srv.index.Pin(), body: body})
			}
		}(g)
	}
	return func() []observedRead {
		wg.Wait()
		return slices.Concat(seen...)
	}
}

// post sends one writer request and returns its status.
func post(t *testing.T, url, path string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	resp.Body.Close()
	return resp.StatusCode
}

// crackingLimit is a limit query that promotes what it labels. It asks for
// more matches than there are representatives, so the scan is forced past the
// already-annotated records and non-representatives get labeled and cracked
// in; k varies so that repeats keep reaching records the last pass did not.
func crackingLimit(i int) []byte {
	return []byte(fmt.Sprintf(`{"class":"car","count":1,"k":%d,"crack":true}`, 45+5*(i%4)))
}

// TestServeQueriesConcurrentWithCracking is the regression test for the
// serving concurrency contract: reads take no lock, writers publish immutable
// versions. Four readers run flat out beside every kind of writer the server
// has — cracking limits, and /ingest with /admin/refresh (WAL on) or
// /admin/reload, plain and naming a shard, which reloads the whole index too
// (WAL off, where reload is allowed).
//
// Phase one issues the writes one at a time (readers still overlap them), so
// the test can log every version published; every read-only response must
// then be byte-equal to the serial answer for one of the versions that were
// live during that request — a crack, append, reload or refresh never lands
// under a pinned request, and no request sees a state that was never
// published. Phase two issues the writes all at once. Run under -race (CI
// does), this fails if any writer ever touches memory a published version
// reads, or two writers stop being serialized.
func TestServeQueriesConcurrentWithCracking(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	for _, mode := range []string{"ingest+refresh", "reload+shard"} {
		t.Run(mode, func(t *testing.T) {
			opts := serverOptions{
				dataset: "night-street", size: 400, train: 30, reps: 40, seed: 1, parallelism: 2,
				shards: 2, snapshotPath: filepath.Join(dir, mode+".snap"),
			}
			ingest := mode == "ingest+refresh"
			if ingest {
				opts.walDir = filepath.Join(dir, "wal")
			}
			srv, err := newServer(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.closeIngest)
			ts := httptest.NewServer(srv.handler())
			defer ts.Close()
			fresh, err := tasti.GenerateDataset("night-street", 64, 99)
			if err != nil {
				t.Fatal(err)
			}
			appended := 0 // records sent to /ingest so far
			// ingestBatch appends the next 4 fresh records and waits until
			// they are queryable (apply follows the ack).
			ingestBatch := func() {
				if code := post(t, ts.URL, "/ingest", ingestPayload(t, fresh, appended, 4)); code != http.StatusOK {
					t.Errorf("/ingest: status %d", code)
					return
				}
				appended += 4
				for deadline := time.Now().Add(10 * time.Second); srv.index.NumRecords() < opts.size+appended; {
					if time.Now().After(deadline) {
						t.Fatalf("index serves %d records, want %d", srv.index.NumRecords(), opts.size+appended)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// otherWrites are the mode's two non-crack writers.
			otherWrites := []func(){
				func() {
					if code := post(t, ts.URL, "/admin/reload", nil); code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("/admin/reload: status %d", code)
					}
				},
				func() {
					if code := post(t, ts.URL, "/admin/reload?shard=1", nil); code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("/admin/reload?shard=1: status %d", code)
					}
				},
			}
			if ingest {
				otherWrites = []func(){
					ingestBatch,
					func() {
						if code := post(t, ts.URL, "/admin/refresh", nil); code != http.StatusOK && code != http.StatusConflict {
							t.Errorf("/admin/refresh: status %d", code)
						}
					},
				}
			}

			// Phase one: writes one at a time, each version logged.
			var log versionLog
			log.record(srv.index.Pin())
			stop := make(chan struct{})
			wait := runReaders(t, srv, ts.URL, 4, stop)
			for i := 0; i < 6; i++ {
				if code := post(t, ts.URL, "/query/limit", crackingLimit(i)); code != http.StatusOK {
					t.Errorf("cracking limit: status %d", code)
				}
				log.record(srv.index.Pin())
				otherWrites[i%2]()
				log.record(srv.index.Pin())
			}
			close(stop)
			reads := wait()
			if len(log.versions) < 6 {
				t.Errorf("only %d versions published by 12 writes", len(log.versions))
			}
			serial := serialAnswers{srv: srv}
			for _, rd := range reads {
				live := log.span(rd.before, rd.after)
				if live == nil {
					t.Fatalf("a reader saw a version the writers never logged")
				}
				if !slices.ContainsFunc(live, func(v *tasti.IndexVersion) bool {
					return bytes.Equal(serial.of(t, v)[rd.query], rd.body)
				}) {
					t.Errorf("/query/%s answered %s — not the serial answer for any of the %d versions live during the request",
						readOnlyQueries[rd.query].route, rd.body, len(live))
				}
			}
			if len(reads) < 8 {
				t.Errorf("only %d reads overlapped 12 writes", len(reads))
			}
			t.Logf("%d reads checked against %d published versions", len(reads), len(log.versions))

			// Phase two: the same writers all at once, readers beside them.
			stop = make(chan struct{})
			wait = runReaders(t, srv, ts.URL, 4, stop)
			var writers sync.WaitGroup
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < 3; i++ {
						if code := post(t, ts.URL, "/query/limit", crackingLimit(2*i+w)); code != http.StatusOK {
							t.Errorf("cracking limit: status %d", code)
						}
					}
				}(w)
			}
			for _, write := range otherWrites {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for i := 0; i < 3; i++ {
						write()
						resp, err := http.Get(ts.URL + "/index")
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					}
				}()
			}
			writers.Wait()
			close(stop)
			wait()

			// The tables must still satisfy their invariants after all that,
			// and every record that was acked must be there.
			v := srv.index.Pin()
			for i := 0; i < v.NumShards(); i++ {
				if err := v.Shard(i).Table.Validate(); err != nil {
					t.Errorf("shard %d invariants violated after concurrent serve+write: %v", i, err)
				}
			}
			if v.NumRecords() != opts.size+appended {
				t.Errorf("index serves %d records after %d appends to %d", v.NumRecords(), appended, opts.size)
			}
			if waits := srv.reg.Histogram("tasti_index_writer_wait_seconds", nil).Count(); waits == 0 {
				t.Error("no index write observed its wait")
			}
		})
	}
}
