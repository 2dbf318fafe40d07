package labeler

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func videoDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOracle(t *testing.T) {
	ds := videoDataset(t, 50)
	o := NewOracle(ds, "mask-rcnn", MaskRCNNCost)
	ann, err := o.Label(7)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Kind() != "video" {
		t.Errorf("kind = %s", ann.Kind())
	}
	if _, err := o.Label(-1); err == nil {
		t.Error("negative id should error")
	}
	if _, err := o.Label(50); err == nil {
		t.Error("out-of-range id should error")
	}
	if o.Name() != "mask-rcnn" || o.Cost() != MaskRCNNCost {
		t.Error("metadata wrong")
	}
}

func TestCounting(t *testing.T) {
	ds := videoDataset(t, 20)
	c := NewCounting(NewOracle(ds, "o", MaskRCNNCost))
	for i := 0; i < 5; i++ {
		if _, err := c.Label(3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Label(4); err != nil {
		t.Fatal(err)
	}
	if c.Calls() != 6 {
		t.Errorf("Calls = %d", c.Calls())
	}
	// Failed labels do not count.
	if _, err := c.Label(99); err == nil {
		t.Fatal("expected error")
	}
	if c.Calls() != 6 {
		t.Errorf("failed call counted: %d", c.Calls())
	}
	c.Reset()
	if c.Calls() != 0 {
		t.Error("reset did not clear")
	}
}

func TestCountingConcurrent(t *testing.T) {
	ds := videoDataset(t, 100)
	c := NewCounting(NewOracle(ds, "o", MaskRCNNCost))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Label((w*100 + i) % 100) //nolint:errcheck
			}
		}(w)
	}
	wg.Wait()
	if c.Calls() != 800 {
		t.Errorf("Calls = %d, want 800", c.Calls())
	}
}

func TestBudgeted(t *testing.T) {
	ds := videoDataset(t, 20)
	b := NewBudgeted(NewOracle(ds, "o", MaskRCNNCost), 3)
	for i := 0; i < 3; i++ {
		if _, err := b.Label(i); err != nil {
			t.Fatal(err)
		}
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d", b.Remaining())
	}
	if _, err := b.Label(4); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{Seconds: 2}.Mul(3).Add(CostModel{Seconds: 1, Dollars: 5})
	if c.Seconds != 7 || c.Dollars != 5 {
		t.Errorf("cost = %+v", c)
	}
	if (CostModel{Dollars: 3}).String() != "$3" {
		t.Errorf("dollar string = %s", CostModel{Dollars: 3})
	}
	if (CostModel{Seconds: 4}).String() != "4 s" {
		t.Errorf("seconds string = %s", CostModel{Seconds: 4})
	}
}
