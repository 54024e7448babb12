package flowtable

// Entries returns a snapshot copy of the rule list in insertion order, for
// the tests that compare a table against a model or an oracle.
func (t *Table) Entries() []*Entry {
	out := make([]*Entry, 0, t.n)
	for e := t.head; e != nil; e = e.next {
		out = append(out, e)
	}
	return out
}
