package stats

import (
	"strings"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	s.Inc("a")
	s.Add("b", 5)
	s.Inc("a")
	if got := s.Value("a"); got != 2 {
		t.Errorf("a = %d, want 2", got)
	}
	if got := s.Value("b"); got != 5 {
		t.Errorf("b = %d, want 5", got)
	}
	if got := s.Value("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}

// TestSetHandle checks the pre-resolved fast path: the handle is
// stable across later Get/Add calls and across Reset, and bumping it
// is observable through the named API.
func TestSetHandle(t *testing.T) {
	var s Set
	h := s.Handle("l1.tag.read")
	h.Inc()
	h.Add(4)
	if got := s.Value("l1.tag.read"); got != 5 {
		t.Errorf("value through handle = %d, want 5", got)
	}
	if s.Handle("l1.tag.read") != h || s.Get("l1.tag.read") != h {
		t.Error("handle is not stable across lookups")
	}
	s.Reset()
	if h.Value != 0 {
		t.Error("Reset did not zero the handle's counter")
	}
	h.Inc()
	if got := s.Value("l1.tag.read"); got != 1 {
		t.Error("handle dead after Reset")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "l1.tag.read" {
		t.Errorf("Names = %v", names)
	}
}

func TestSetReset(t *testing.T) {
	var s Set
	s.Add("x", 10)
	s.Reset()
	if s.Value("x") != 0 {
		t.Error("Reset did not zero counter")
	}
	if len(s.Names()) != 1 {
		t.Error("Reset dropped registration")
	}
}

func TestSetMerge(t *testing.T) {
	var a, b Set
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(&b)
	if a.Value("x") != 3 || a.Value("y") != 3 {
		t.Errorf("merge: x=%d y=%d, want 3 3", a.Value("x"), a.Value("y"))
	}
}

func TestSetString(t *testing.T) {
	var s Set
	s.Add("hits", 7)
	if got := s.String(); !strings.Contains(got, "hits=7") {
		t.Errorf("String = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "proto", "value")
	tab.AddRow("directory", "12.56%")
	tab.AddRowf("dico", 13.21)
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "directory") || !strings.Contains(out, "13.21") {
		t.Errorf("table body missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}
