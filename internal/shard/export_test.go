package shard

// SetValue lets the package's external tests write a column's exact scores,
// which only Run does outside them.
func (c *Column) SetValue(id int, v float64) { c.setValue(id, v) }
