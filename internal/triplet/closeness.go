// Package triplet implements the training side of TASTI's index
// construction: domain-specific closeness functions over target-labeler
// outputs, bucketing, FPF training-data mining, and the margin triplet-loss
// trainer that fine-tunes the embedding MLP.
package triplet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// BucketKey maps an annotation to a discrete bucket label so that records in
// the same bucket are close — the user-provided closeness heuristic of the
// paper's Section 2, in the form the trainer samples triplets by ("TASTI will
// first bucket records by the closeness function").
type BucketKey func(a dataset.Annotation) string

// VideoBucketKey is the paper's video heuristic: frames are close when they
// have the same number of objects per class and the boxes of one pair up with
// same-class boxes of the other in the same cell of a position grid with the
// given cell size.
func VideoBucketKey(cell float64) BucketKey {
	if cell <= 0 {
		panic(fmt.Sprintf("triplet: video bucket cell must be positive, got %v", cell))
	}
	return func(a dataset.Annotation) string {
		va, ok := a.(dataset.VideoAnnotation)
		if !ok {
			return "non-video"
		}
		cells := make([]string, 0, len(va.Boxes))
		for _, b := range va.Boxes {
			cells = append(cells, fmt.Sprintf("%s@%d,%d", b.Class, int(b.X/cell), int(b.Y/cell)))
		}
		sort.Strings(cells)
		return strings.Join(cells, "|")
	}
}

// TextBucketKey is the paper's text heuristic: questions are close when
// they share the SQL operator and predicate count.
func TextBucketKey() BucketKey {
	return func(a dataset.Annotation) string {
		ta, ok := a.(dataset.TextAnnotation)
		if !ok {
			return "non-text"
		}
		return fmt.Sprintf("%s/%d", ta.Operator, ta.NumPredicates)
	}
}

// SpeechBucketKey is the paper's speech heuristic: snippets are close when
// the speakers share gender and age decade.
func SpeechBucketKey() BucketKey {
	return func(a dataset.Annotation) string {
		sa, ok := a.(dataset.SpeechAnnotation)
		if !ok {
			return "non-speech"
		}
		return fmt.Sprintf("%s/%d", sa.Gender, sa.AgeBucket())
	}
}
