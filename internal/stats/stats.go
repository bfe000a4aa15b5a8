// Package stats provides the counters and table formatting used to
// collect and report simulation results.
package stats

import (
	"fmt"
	"strings"
)

// Counter is a named monotonically increasing tally.
type Counter struct {
	Name  string
	Value uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Value++ }

// Set is a collection of counters addressed by name. The zero value is
// ready to use.
type Set struct {
	byName map[string]*Counter
	order  []string
}

// Get returns the counter with the given name, creating it on first use.
func (s *Set) Get(name string) *Counter {
	if s.byName == nil {
		s.byName = make(map[string]*Counter)
	}
	if c, ok := s.byName[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	s.byName[name] = c
	s.order = append(s.order, name)
	return c
}

// Handle returns a stable pointer to the named counter, creating it on
// first use. It is the fast-path companion to Add/Inc: resolve the
// handle once (at engine or subsystem construction) and bump the
// counter through the pointer afterwards, turning every hot-path
// increment from a map lookup into a direct memory write. The handle
// stays valid across Reset (which zeroes values but keeps counters
// registered).
func (s *Set) Handle(name string) *Counter { return s.Get(name) }

// Value returns the current value of name (0 if never touched).
func (s *Set) Value(name string) uint64 {
	if c, ok := s.byName[name]; ok {
		return c.Value
	}
	return 0
}

// Add adds n to the named counter.
func (s *Set) Add(name string, n uint64) { s.Get(name).Add(n) }

// Inc increments the named counter.
func (s *Set) Inc(name string) { s.Get(name).Inc() }

// Names returns the counter names in creation order.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Reset zeroes all counters but keeps them registered.
func (s *Set) Reset() {
	for _, c := range s.byName {
		c.Value = 0
	}
}

// Merge adds every counter of other into s.
func (s *Set) Merge(other *Set) {
	for _, name := range other.order {
		s.Add(name, other.byName[name].Value)
	}
}

// String renders the set as "name=value" lines in creation order.
func (s *Set) String() string {
	var b strings.Builder
	for _, name := range s.order {
		fmt.Fprintf(&b, "%s=%d\n", name, s.byName[name].Value)
	}
	return b.String()
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row built from format/value pairs: each cell is
// fmt.Sprintf(formats[i], values[i]).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with padded columns.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
