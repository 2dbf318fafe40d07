package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoadLabelStore feeds arbitrary bytes to the label-store loader and
// requires termination with a store or an error — no panic, no hang, no
// unbounded allocation (the snapshot layer caps declared frame lengths
// before allocating). An accepted store must be clean and consistent: Len
// counts exactly what Annotations lists, and a re-save reloads to the same
// annotations. The seeds carry the loader's corpus, another corpus and none,
// so mutations reach both sides of the corpus check.
func FuzzLoadLabelStore(f *testing.F) {
	anns := sampleStore().Annotations()
	for _, corpus := range []Corpus{testCorpus, {Dataset: "night-street", Size: 120, Seed: 2}, {}} {
		var buf bytes.Buffer
		if err := save(&buf, corpus, anns); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var valid, empty bytes.Buffer
	if err := sampleStore().Save(&valid); err != nil {
		f.Fatal(err)
	}
	if err := New(Options{Corpus: testCorpus}).Save(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data), Options{Corpus: testCorpus})
		if err != nil {
			return
		}
		// Accepted stores must behave: readable, clean, and re-saveable.
		if s.Dirty() != 0 {
			t.Fatal("freshly loaded store reports dirty entries")
		}
		anns := s.Annotations()
		if s.Len() != len(anns) {
			t.Fatalf("Len() = %d, Annotations() holds %d", s.Len(), len(anns))
		}
		var out bytes.Buffer
		if err := s.Save(&out); err != nil {
			t.Fatalf("accepted store failed to re-save: %v", err)
		}
		again, err := Load(&out, Options{Corpus: testCorpus})
		if err != nil {
			t.Fatalf("re-saved store failed to reload: %v", err)
		}
		if got := again.Annotations(); !reflect.DeepEqual(got, anns) {
			t.Fatalf("re-save changed the annotations: %v, want %v", got, anns)
		}
	})
}
