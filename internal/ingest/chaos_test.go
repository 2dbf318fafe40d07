package ingest

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
)

// chaosEnvDir gates the re-exec helper: when set, the test binary runs the
// ingest child loop instead of the test suite.
const chaosEnvDir = "TASTI_CHAOS_WAL_DIR"

// chaosFeature derives record id's feature vector deterministically, so the
// parent can verify replayed bytes without any side channel. 52 dims matches
// the night-street corpus, so replayed records append onto a real index.
func chaosFeature(id int) []float64 {
	row := make([]float64, 52)
	for j := range row {
		row[j] = float64(id*31+j) / 7
	}
	return row
}

func chaosAnnotation(id int) dataset.Annotation {
	return dataset.VideoAnnotation{Boxes: []dataset.Box{{Class: "car", X: float64(id)}}}
}

// TestChaosIngestKill9Child is the re-exec helper for TestChaosIngestKill9:
// it replays whatever the WAL holds, reopens it, and submits one-record
// batches forever — printing each record's ID to stdout strictly AFTER its
// Submit acked (i.e. after the WAL fsync). The parent kills it with SIGKILL
// mid-stream.
func TestChaosIngestKill9Child(t *testing.T) {
	dir := os.Getenv(chaosEnvDir)
	if dir == "" {
		t.Skip("re-exec helper; driven by TestChaosIngestKill9")
	}
	count := 0
	if _, err := Replay(dir, 0, func(b Batch) error { count = b.End(); return nil }); err != nil {
		t.Fatalf("child replay: %v", err)
	}
	w, err := OpenWAL(dir, count, WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	g, err := New(Config{WAL: w, Apply: func(Batch) error { return nil }})
	if err != nil {
		t.Fatalf("child ingester: %v", err)
	}
	g.Start()
	// Announce the resume point, then stream acks. Writes to os.Stdout are
	// unbuffered syscalls, so a printed ID implies the fsync completed.
	fmt.Printf("start %d\n", count)
	for id := count; ; id++ {
		ids, err := g.Submit(context.Background(),
			[][]float64{chaosFeature(id)}, []dataset.Annotation{chaosAnnotation(id)})
		if err != nil {
			t.Fatalf("child submit: %v", err)
		}
		if len(ids) != 1 || ids[0] != id {
			t.Fatalf("child got ids %v, want [%d]", ids, id)
		}
		fmt.Printf("%d\n", id)
	}
}

// spawnChaosChild re-execs the test binary as the ingest child and returns
// once the parent has watched it ack at least minAcks records, killing it
// with SIGKILL at that instant. Returns the highest acked record ID.
func spawnChaosChild(t *testing.T, dir string, minAcks int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestChaosIngestKill9Child$", "-test.v")
	cmd.Env = append(os.Environ(), chaosEnvDir+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait() //nolint:errcheck // killed on purpose
	defer cmd.Process.Kill()

	maxAcked := -1
	acks := 0
	sc := bufio.NewScanner(out)
	deadline := time.After(30 * time.Second)
	lines := make(chan string, 64)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for acks < minAcks {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("child exited after %d acks (max id %d)", acks, maxAcked)
			}
			var id int
			if _, err := fmt.Sscanf(line, "start %d", &id); err == nil {
				continue
			}
			id, err := strconv.Atoi(line)
			if err != nil {
				continue // go test chatter (=== RUN etc.)
			}
			if id != maxAcked+1 && maxAcked != -1 {
				t.Fatalf("child acked %d after %d", id, maxAcked)
			}
			maxAcked = id
			acks++
		case <-deadline:
			t.Fatalf("child produced %d acks in 30s, want %d", acks, minAcks)
		}
	}
	// Kill -9 at an arbitrary instant relative to the child's next append.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// Acks the child printed before it died but this process had not read yet
	// (it lags under load) are acks all the same: drain the pipe, or replay
	// would seem to surface frames nobody acked.
	for line := range lines {
		if id, err := strconv.Atoi(line); err == nil && id == maxAcked+1 {
			maxAcked = id
		}
	}
	return maxAcked
}

// TestChaosIngestKill9 is the headline durability contract, run across two
// crash epochs: kill -9 the ingesting process at an arbitrary instant; on
// restart, replay recovers every acked record (at most the one unacked
// in-flight frame is lost), the replayed bytes are exactly what was
// submitted, and applying them to an index yields a state bitwise identical
// to a never-crashed run over the same prefix.
func TestChaosIngestKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	dir := t.TempDir()

	// Epoch 1: crash mid-stream, then verify the acked prefix.
	acked1 := spawnChaosChild(t, dir, 40)
	records := verifyChaosReplay(t, dir, acked1)

	// Epoch 2: restart over the survivor WAL, crash again, verify again —
	// proving the torn tail from epoch 1 doesn't poison later replay.
	acked2 := spawnChaosChild(t, dir, 40)
	if acked2 < records {
		t.Fatalf("epoch 2 acked through %d, below epoch 1 recovery %d", acked2, records)
	}
	verifyChaosReplay(t, dir, acked2)
}

// verifyChaosReplay replays dir and checks the chaos contract against the
// highest acked ID, returning the recovered record count.
func verifyChaosReplay(t *testing.T, dir string, maxAcked int) int {
	t.Helper()
	var features [][]float64
	next := 0
	st, err := Replay(dir, 0, func(b Batch) error {
		if b.Base != next {
			t.Fatalf("replay out of order: batch at %d, expected %d", b.Base, next)
		}
		features = append(features, b.Features...)
		for i, ann := range b.Anns {
			want := chaosAnnotation(b.Base + i)
			got, ok := ann.(dataset.VideoAnnotation)
			if !ok || len(got.Boxes) != 1 || got.Boxes[0] != want.(dataset.VideoAnnotation).Boxes[0] {
				t.Fatalf("record %d annotation %+v, want %+v", b.Base+i, ann, want)
			}
		}
		next = b.End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every acked record survives; at most one in-flight (unacked) single-
	// record frame may additionally have reached disk.
	if next < maxAcked+1 {
		t.Fatalf("replay recovered %d records, child acked through %d — acked data lost (stats %+v)",
			next, maxAcked, st)
	}
	if next > maxAcked+2 {
		t.Fatalf("replay recovered %d records for %d acks — more than one unacked frame surfaced",
			next, maxAcked+1)
	}
	// The bytes are exactly what was submitted.
	for id, row := range features {
		want := chaosFeature(id)
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("record %d dim %d = %v, want %v", id, j, row[j], want[j])
			}
		}
	}

	// Bitwise-identical index contract: appending the replayed prefix to a
	// deterministic base index equals a never-crashed run appending the same
	// features directly.
	build := func() *core.Index {
		ds, err := dataset.Generate("night-street", 120, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(core.PretrainedConfig(15, 2), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	crashed, reference := build(), build()
	if _, err := crashed.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	if _, err := reference.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	for id := 120; id < crashed.NumRecords(); id++ {
		a, b := crashed.Embeddings.Row(id), reference.Embeddings.Row(id)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("record %d dim %d differs after replay", id, j)
			}
		}
		na, nb := crashed.Table.Neighbors[id], reference.Table.Neighbors[id]
		for j := range na {
			if na[j] != nb[j] {
				t.Fatalf("record %d neighbor %d differs after replay", id, j)
			}
		}
	}
	if _, err := crashed.Propagate(core.CountScore("car")); err != nil {
		t.Fatalf("replayed index does not serve: %v", err)
	}
	return next
}
