package exp

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// recorder returns a Runner that simulates nothing (see Runner.Run), so any
// experiment renders on it in microseconds.
func recorder() *Runner { return &Runner{Scale: QuickScale(), recording: true} }

// TestStudyAtUnknownPanics: a misspelt arm or column is a panic naming both,
// not the silent zero row the per-experiment Row lookups used to answer.
func TestStudyAtUnknownPanics(t *testing.T) {
	s, err := LatencyComparison(recorder())
	if err != nil {
		t.Fatal(err)
	}
	s.At("chargecache", "hit rate") // both known: no panic
	for _, at := range [][2]string{{"chargecash", "hit rate"}, {"chargecache", "hitrate"}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, at[0]) || !strings.Contains(msg, at[1]) {
					t.Errorf("At(%q, %q): panic %q does not name the cell", at[0], at[1], msg)
				}
			}()
			s.At(at[0], at[1])
		}()
	}
}

// TestTablesRectangular: every row of every registry experiment has one cell
// per header column. Table.String indexes its column widths by cell position
// and would panic on a wide row; a short one silently shifts a column.
func TestTablesRectangular(t *testing.T) {
	for _, e := range Experiments() {
		tbl, err := e.Table(recorder())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", e.Name)
		}
		for i, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s row %d: %d cells under %d headers: %q", e.Name, i, len(row), len(tbl.Header), row)
			}
		}
	}
}

func TestScaleValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Scale)
		want string // substring of the error; "" = valid
	}{
		{"quick", func(*Scale) {}, ""},
		{"default", func(s *Scale) { *s = DefaultScale() }, ""},
		{"no warm-up", func(s *Scale) { s.Warmup = 0 }, ""},
		{"one instruction", func(s *Scale) { s.Insts = 1 }, ""},
		{"zero insts", func(s *Scale) { s.Insts = 0 }, "-insts 0"},
		{"negative insts", func(s *Scale) { s.Insts = -5 }, "-insts -5"},
		{"negative warm-up", func(s *Scale) { s.Warmup = -1 }, "warm-up"},
		{"zero mixes", func(s *Scale) { s.MixesPerGroup = 0 }, "-mixes 0"},
		{"negative mixes", func(s *Scale) { s.MixesPerGroup = -1 }, "-mixes -1"},
		{"unknown app", func(s *Scale) { s.SingleApps = []string{"mcf", "mcff"} }, `-apps: trace: unknown app "mcff"`},
		{"empty app name", func(s *Scale) { s.SingleApps = []string{""} }, "-apps"},
	} {
		s := QuickScale()
		tc.mod(&s)
		err := s.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error spans lines: %q", tc.name, err)
		}
	}
}

// TestDesignIndexMatchesRegistry: DESIGN.md §3 names every registry
// experiment, and nothing the registry lacks, as an `-exp <name>` token.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 3. Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no section 3 heading")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	set := map[string]bool{}
	for _, m := range regexp.MustCompile(`-exp ([a-z0-9]+)`).FindAllStringSubmatch(sec, -1) {
		set[m[1]] = true
	}
	var got, want []string
	for name := range set {
		got = append(got, name)
	}
	for _, e := range Experiments() {
		want = append(want, e.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN.md section 3 indexes\n  %v\nthe registry holds\n  %v", got, want)
	}
}
