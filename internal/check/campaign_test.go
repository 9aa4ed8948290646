package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/serve"
)

// counters calls f on every int or uint64 field reachable from v through
// structs and arrays, in field order. The Verdict belongs to Run, and
// serve.Report folds through its own (separately tested) Merge.
func counters(v reflect.Value, path string, f func(path string, v reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Uint64:
		f(path, v)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			counters(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(Verdict{}) || v.Type() == reflect.TypeOf(serve.Report{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			counters(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	}
}

func setCounter(v reflect.Value, n int) {
	if v.Kind() == reflect.Int {
		v.SetInt(int64(n))
	} else {
		v.SetUint(uint64(n))
	}
}

// checkAdd folds a result whose counters count 1000+n into one whose
// counters count n, and expects every counter summed except the peaks,
// which keep the larger value.
func checkAdd[R any, PR result[R]](t *testing.T) {
	var dst, src R
	n := 0
	counters(reflect.ValueOf(&dst).Elem(), "", func(_ string, v reflect.Value) { n++; setCounter(v, n) })
	n = 0
	counters(reflect.ValueOf(&src).Elem(), "", func(_ string, v reflect.Value) { n++; setCounter(v, 1000+n) })
	PR(&dst).add(&src)
	n = 0
	counters(reflect.ValueOf(&dst).Elem(), "", func(path string, v reflect.Value) {
		n++
		want := 1000 + 2*n
		if strings.HasSuffix(path, "Peak") {
			want = 1000 + n
		}
		if got := fmt.Sprint(v.Interface()); got != fmt.Sprint(want) {
			t.Errorf("%T%s = %s after add, want %d", dst, path, got, want)
		}
	})
	if n == 0 {
		t.Errorf("%T has no counters", dst)
	}
}

// TestResultAddCoversEveryCounter guards each campaign's typed fold
// against a counter added to the result but not to its add.
func TestResultAddCoversEveryCounter(t *testing.T) {
	checkAdd[Result](t)
	checkAdd[CrashResult](t)
	checkAdd[LinkResult](t)
	checkAdd[ServeResult](t)
	checkAdd[TenantResult](t)
	checkAdd[MigrateResult](t)
}
