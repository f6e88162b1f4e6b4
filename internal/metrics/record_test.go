package metrics_test

import (
	"reflect"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
	"crowdram/internal/energy"
	"crowdram/internal/metrics"
)

// leaves returns every int64/float64 leaf of v in field and index order.
func leaves(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		var out []reflect.Value
		for i := range v.NumField() {
			out = append(out, leaves(v.Field(i))...)
		}
		return out
	case reflect.Array:
		var out []reflect.Value
		for i := range v.Len() {
			out = append(out, leaves(v.Index(i))...)
		}
		return out
	}
	return []reflect.Value{v}
}

func setLeaf(v reflect.Value, n int64) {
	if v.Kind() == reflect.Float64 {
		v.SetFloat(float64(n))
	} else {
		v.SetInt(n)
	}
}

func leafValue(v reflect.Value) int64 {
	if v.Kind() == reflect.Float64 {
		return int64(v.Float())
	}
	return v.Int()
}

// checkRecord sets leaf i of a to 1000(i+1) and of b to i+1 and requires Sub
// and Add to combine every leaf with its own counterpart: a counter combined
// with a neighbour, or skipped, would report the wrong figure silently.
func checkRecord[T any](t *testing.T) {
	t.Helper()
	var a, b T
	la, lb := leaves(reflect.ValueOf(&a).Elem()), leaves(reflect.ValueOf(&b).Elem())
	if len(la) == 0 {
		t.Fatalf("%T has no leaves", a)
	}
	for i := range la {
		setLeaf(la[i], int64(1000*(i+1)))
		setLeaf(lb[i], int64(i+1))
	}
	diff, sum := metrics.Sub(a, b), metrics.Add(a, b)
	ld, ls := leaves(reflect.ValueOf(&diff).Elem()), leaves(reflect.ValueOf(&sum).Elem())
	for i := range la {
		if got, want := leafValue(ld[i]), int64(999*(i+1)); got != want {
			t.Errorf("%T: Sub leaf %d = %d, want %d", a, i, got, want)
		}
		if got, want := leafValue(ls[i]), int64(1001*(i+1)); got != want {
			t.Errorf("%T: Add leaf %d = %d, want %d", a, i, got, want)
		}
	}
	if got := leafValue(la[0]); got != 1000 {
		t.Errorf("%T: Sub/Add wrote through to their argument (leaf 0 = %d)", a, got)
	}
}

// TestSubAddCoverEveryCounterRecord runs the helper over the four records the
// simulator cuts at the warm-up boundary and sums over channels.
func TestSubAddCoverEveryCounterRecord(t *testing.T) {
	checkRecord[dram.Stats](t)
	checkRecord[ctrl.Stats](t)
	checkRecord[core.Stats](t)
	checkRecord[energy.Breakdown](t)
}

// TestSubPanicsOnOtherLeaves: a leaf of any other type is a record the
// arithmetic does not know how to cut, and says so.
func TestSubPanicsOnOtherLeaves(t *testing.T) {
	for name, f := range map[string]func(){
		"int":    func() { metrics.Sub(struct{ N int }{2}, struct{ N int }{1}) },
		"slice":  func() { metrics.Add(struct{ S []int64 }{}, struct{ S []int64 }{}) },
		"nested": func() { metrics.Sub([2]struct{ U uint64 }{}, [2]struct{ U uint64 }{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s leaf: no panic", name)
				}
			}()
			f()
		}()
	}
}
