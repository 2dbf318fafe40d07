package shard

// SetValue lets the package's external tests write a column's exact scores,
// which only Run does outside them.
func (c *Column) SetValue(id int, v float64) { c.setValue(id, v) }

// Validate lets the package's external tests check a version's invariants,
// which only Load does outside them.
func (v *Version) Validate() error { return v.validate() }
