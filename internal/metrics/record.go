package metrics

import (
	"fmt"
	"reflect"
)

// Sub returns a minus b, leaf by leaf: the counts accumulated since the
// snapshot b was taken. T is a struct or an array, nested to any depth, whose
// leaves are int64 or float64; Sub panics on any other leaf, so a counter
// record cannot grow a field this arithmetic would skip.
func Sub[T any](a, b T) T { return combine(a, b, -1) }

// Add returns a plus b, leaf by leaf (summing channels), under Sub's rules.
func Add[T any](a, b T) T { return combine(a, b, 1) }

func combine[T any](a, b T, sign int64) T {
	walk(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), sign)
	return a
}

// walk adds sign times each leaf of b into the matching leaf of a.
func walk(a, b reflect.Value, sign int64) {
	switch a.Kind() {
	case reflect.Int64:
		a.SetInt(a.Int() + sign*b.Int())
	case reflect.Float64:
		a.SetFloat(a.Float() + float64(sign)*b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			walk(a.Field(i), b.Field(i), sign)
		}
	case reflect.Array:
		for i := range a.Len() {
			walk(a.Index(i), b.Index(i), sign)
		}
	default:
		panic(fmt.Sprintf("metrics: a %s leaf is neither int64 nor float64", a.Type()))
	}
}
