package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

type rec struct {
	Name string
	Vals []float64
}

func open(t *testing.T, dir string, opts ...Option) *Store[rec] {
	t.Helper()
	s, err := Open[rec](dir, "rec/v1", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// files returns the store's result files, sorted by name.
func files(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	want := rec{Name: "crow-cache", Vals: []float64{1.5, 2.25}}
	s.Put(`{"key":"a"}`, want)

	got, ok := s.Get(`{"key":"a"}`)
	if !ok {
		t.Fatal("want hit")
	}
	if got.Name != want.Name || len(got.Vals) != 2 || got.Vals[1] != 2.25 {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if _, ok := s.Get(`{"key":"absent"}`); ok {
		t.Error("unknown key must miss")
	}
	st := s.Stats()
	if st.Files != 1 || st.Bytes <= 0 || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSurvivesReopen: the restart contract — a result written by one Store
// is a hit for a fresh Store on the same directory, and Open's scan reports
// the existing footprint.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	s1.Put("k1", rec{Name: "a"})
	s1.Put("k2", rec{Name: "b"})

	s2 := open(t, dir)
	if st := s2.Stats(); st.Files != 2 || st.Bytes <= 0 {
		t.Fatalf("startup scan = %+v, want 2 files", st)
	}
	got, ok := s2.Get("k2")
	if !ok || got.Name != "b" {
		t.Errorf("reopened Get = %+v, %v", got, ok)
	}
}

// TestCorruptionIsAMiss covers every defect class: garbled JSON, truncation,
// a flipped payload byte (checksum), a foreign schema, a foreign version,
// and a key mismatch. Each reads as a miss and deletes the file.
func TestCorruptionIsAMiss(t *testing.T) {
	mutate := map[string]func(env *Envelope, raw []byte) []byte{
		"garbled":        func(_ *Envelope, raw []byte) []byte { return append([]byte("{nope"), raw...) },
		"truncated":      func(_ *Envelope, raw []byte) []byte { return raw[:len(raw)/2] },
		"checksum":       nil, // handled below: flip a payload byte
		"foreign-schema": func(env *Envelope, _ []byte) []byte { env.Schema = "other/v9"; return marshal(t, env) },
		"foreign-version": func(env *Envelope, _ []byte) []byte {
			env.Version = Version + 1
			return marshal(t, env)
		},
		"key-mismatch": func(env *Envelope, _ []byte) []byte { env.Key = "not-k"; return marshal(t, env) },
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			s.Put("k", rec{Name: "good"})
			path := files(t, dir)[0]
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			if fn == nil { // checksum: flip one byte inside Value
				var env Envelope
				json.Unmarshal(raw, &env)
				env.Value = json.RawMessage(strings.Replace(string(env.Value), "good", "evil", 1))
				out = marshal(t, &env)
			} else {
				var env Envelope
				json.Unmarshal(raw, &env)
				out = fn(&env, raw)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := s.Get("k"); ok {
				t.Fatal("defective file must read as a miss")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 corrupt, 1 miss", st)
			}
			if got := files(t, dir); len(got) != 0 {
				t.Errorf("defective file must be deleted, found %v", got)
			}
			// The slot is reusable: a rewrite round-trips again.
			s.Put("k", rec{Name: "fresh"})
			if got, ok := s.Get("k"); !ok || got.Name != "fresh" {
				t.Errorf("rewrite after corruption = %+v, %v", got, ok)
			}
		})
	}
}

func marshal(t *testing.T, env *Envelope) []byte {
	t.Helper()
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnvelopeFields pins the on-disk format: version, schema, verbatim key,
// hex checksum, and the value payload.
func TestEnvelopeFields(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put("the-key", rec{Name: "x"})
	raw, err := os.ReadFile(files(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Version != Version || env.Schema != "rec/v1" || env.Key != "the-key" {
		t.Errorf("envelope = %+v", env)
	}
	if len(env.SHA256) != 64 || len(env.Value) == 0 {
		t.Errorf("envelope metadata = %+v", env)
	}
	// The timestamp is RFC 3339 at a fixed width, whatever the clock read:
	// equal content must make equal-sized files or byte caps are guesswork.
	if _, err := time.Parse(time.RFC3339Nano, env.SavedAt); err != nil || len(env.SavedAt) != len("2006-01-02T15:04:05.000000000Z") {
		t.Errorf("saved_at = %q (parse error %v), want RFC 3339 with nine fractional digits", env.SavedAt, err)
	}
}

// TestOverwriteSameKey: re-putting a key replaces the file without growing
// the file count, and the footprint stays consistent.
func TestOverwriteSameKey(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put("k", rec{Name: "v1"})
	s.Put("k", rec{Name: "v2-longer-payload", Vals: []float64{1, 2, 3}})
	if st := s.Stats(); st.Files != 1 || st.Writes != 2 {
		t.Errorf("stats = %+v, want 1 file after overwrite", st)
	}
	got, _ := s.Get("k")
	if got.Name != "v2-longer-payload" {
		t.Errorf("got %+v", got)
	}
	// The accounting must match the disk.
	var disk int64
	for _, f := range files(t, dir) {
		info, _ := os.Stat(f)
		disk += info.Size()
	}
	if st := s.Stats(); st.Bytes != disk {
		t.Errorf("accounted bytes %d != on-disk %d", st.Bytes, disk)
	}
}

// TestGCEvictsLRU: with a byte cap, the least-recently-used results go
// first — and a Get refreshes a file's position in the LRU order.
func TestGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put("old", rec{Name: "old"})
	time.Sleep(10 * time.Millisecond) // distinct mtimes
	s.Put("mid", rec{Name: "mid"})
	time.Sleep(10 * time.Millisecond)
	s.Put("new", rec{Name: "new"})
	time.Sleep(10 * time.Millisecond)
	s.Get("old") // refresh: "old" becomes most recently used

	per := s.Stats().Bytes / 3
	s.maxBytes = 2 * per // room for two files
	removed := s.GC()
	if removed != 1 {
		t.Fatalf("GC removed %d files, want 1", removed)
	}
	if _, ok := s.Get("mid"); ok {
		t.Error("LRU victim must be 'mid' (oldest access)")
	}
	for _, k := range []string{"old", "new"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%q must survive GC", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Files != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOpenTrimsOverCapDirAndTempFiles: Open removes crashed writers' temp
// files and enforces the cap on a pre-existing directory.
func TestOpenTrimsOverCapDirAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Put("a", rec{Name: "a"})
	time.Sleep(10 * time.Millisecond)
	s.Put("b", rec{Name: "b"})
	per := s.Stats().Bytes / 2
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, MaxBytes(per))
	if st := s2.Stats(); st.Files != 1 {
		t.Errorf("reopen with cap: %+v, want 1 file", st)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"crashed")); !os.IsNotExist(err) {
		t.Error("stale temp file must be removed at Open")
	}
	if _, ok := s2.Get("b"); !ok {
		t.Error("newest result must survive the Open trim")
	}
}

// TestConcurrentAccess exercises Put/Get/GC races under -race.
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, MaxBytes(1<<20))
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				k := keys[(i+n)%len(keys)]
				if n%2 == 0 {
					s.Put(k, rec{Name: k, Vals: []float64{float64(n)}})
				} else if v, ok := s.Get(k); ok && v.Name != k {
					t.Errorf("got %q for key %q", v.Name, k)
				}
			}
		}(i)
	}
	wg.Wait()
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v.Name != k {
			t.Errorf("final Get(%q) = %+v, %v", k, v, ok)
		}
	}
}
