// Package dataset defines the record and annotation types shared by the
// whole repository and implements the three synthetic data generators that
// stand in for the paper's video, text, and speech corpora.
//
// A Dataset pairs unstructured Records (raw feature vectors, the analog of
// pixels or audio samples) with hidden ground-truth Annotations (the analog
// of what Mask R-CNN or a crowd worker would produce). Query-processing code
// never reads Truth directly; it goes through a labeler.Labeler so that every
// target-labeler invocation is counted and billed.
package dataset

import "fmt"

// Record is one unstructured data record: a frame of video, a natural
// language question, or a speech snippet, represented by the raw feature
// vector a DNN would consume.
type Record struct {
	// ID is the record's position in the dataset, used as its stable key.
	ID int
	// Features is the raw high-dimensional representation.
	Features []float64
}

// Annotation is the structured output of a target labeler for one record.
// The concrete types are VideoAnnotation, TextAnnotation, and
// SpeechAnnotation.
type Annotation interface {
	// Kind identifies the schema ("video", "text", or "speech").
	Kind() string
}

// Box is one detected object in a frame: class plus normalized center
// position and size in [0,1].
type Box struct {
	Class string
	X, Y  float64
	W, H  float64
}

// VideoAnnotation is the induced schema of an object-detection labeler.
type VideoAnnotation struct {
	Boxes []Box
}

// Kind implements Annotation.
func (VideoAnnotation) Kind() string { return "video" }

// Count returns the number of boxes of the given class; an empty class
// counts every box.
func (a VideoAnnotation) Count(class string) int {
	if class == "" {
		return len(a.Boxes)
	}
	n := 0
	for _, b := range a.Boxes {
		if b.Class == class {
			n++
		}
	}
	return n
}

// AvgX returns the mean x-position of boxes of the given class and whether
// any such box exists. This backs the paper's Section 6.4 position queries.
func (a VideoAnnotation) AvgX(class string) (float64, bool) {
	s, n := 0.0, 0
	for _, b := range a.Boxes {
		if class == "" || b.Class == class {
			s += b.X
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}

// TextAnnotation is the induced schema of the WikiSQL-style crowd labeler:
// the SQL operator a question parses to and its predicate count.
type TextAnnotation struct {
	Operator      string
	NumPredicates int
}

// Kind implements Annotation.
func (TextAnnotation) Kind() string { return "text" }

// SpeechAnnotation is the induced schema of the Common Voice-style crowd
// labeler: speaker gender and age in years.
type SpeechAnnotation struct {
	Gender   string
	AgeYears int
}

// Kind implements Annotation.
func (SpeechAnnotation) Kind() string { return "speech" }

// AgeBucket discretizes age into decade buckets, matching the paper's
// closeness function ("gender and discretized age bucket").
func (a SpeechAnnotation) AgeBucket() int { return a.AgeYears / 10 }

// Dataset is a fully materialized synthetic corpus.
type Dataset struct {
	// Name identifies the corpus (e.g. "night-street").
	Name string
	// Records are the unstructured records in order.
	Records []Record
	// Truth holds the ground-truth annotation per record. Only labelers and
	// evaluation code may read it; query processing must go through a
	// labeler.Labeler.
	Truth []Annotation
	// Corpus is the Generate call that made the dataset; the zero value for
	// one built any other way. Appending records keeps it: the generated
	// records keep their IDs.
	Corpus Corpus
}

// Corpus identifies a generated corpus by the arguments of its Generate
// call. Record IDs only mean something within one corpus, so an artifact
// keyed by them — an index snapshot, a label store — names the corpus it
// describes and is read back only into the same one.
type Corpus struct {
	Dataset string
	Size    int
	Seed    int64
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// FeatureDim returns the dimensionality of the raw features, or 0 for an
// empty dataset.
func (d *Dataset) FeatureDim() int {
	if len(d.Records) == 0 {
		return 0
	}
	return len(d.Records[0].Features)
}

// Validate checks internal consistency: matching lengths, sequential IDs,
// and uniform feature dimension. Generators call it before returning.
func (d *Dataset) Validate() error {
	if len(d.Records) != len(d.Truth) {
		return fmt.Errorf("dataset %s: %d records but %d annotations", d.Name, len(d.Records), len(d.Truth))
	}
	dim := d.FeatureDim()
	for i, r := range d.Records {
		if r.ID != i {
			return fmt.Errorf("dataset %s: record %d has ID %d", d.Name, i, r.ID)
		}
		if len(r.Features) != dim {
			return fmt.Errorf("dataset %s: record %d has dim %d, want %d", d.Name, i, len(r.Features), dim)
		}
		if d.Truth[i] == nil {
			return fmt.Errorf("dataset %s: record %d has nil annotation", d.Name, i)
		}
	}
	return nil
}
