package main

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"oocnvm/internal/ssd"
)

// TestDigestCoversEveryResultField walks ssd.Result with reflect and checks
// that changing any one field changes the digest, so the seed-42 digest
// really pins every simulated statistic.
func TestDigestCoversEveryResultField(t *testing.T) {
	var res ssd.Result
	want := digest([]ssd.Result{res})
	fields := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		}
		if !v.CanSet() {
			t.Fatalf("%s cannot be set by the test; extend it", path)
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s has kind %s, which the digest test does not perturb; extend it", path, v.Kind())
		}
		if digest([]ssd.Result{res}) == want {
			t.Errorf("changing %s leaves the digest unchanged", path)
		}
		v.Set(old)
		fields++
	}
	walk(reflect.ValueOf(&res).Elem(), "Result")
	if fields < 20 {
		t.Errorf("walked only %d fields of ssd.Result", fields)
	}
	if digest([]ssd.Result{res}) != want {
		t.Error("restoring every field did not restore the digest")
	}
}

func TestDigestFollowsMatrixOrder(t *testing.T) {
	a, b := ssd.Result{DataBytes: 1}, ssd.Result{DataBytes: 2}
	if digest([]ssd.Result{a, b}) == digest([]ssd.Result{b, a}) {
		t.Error("swapping two cells leaves the digest unchanged")
	}
}

func TestCommittedDigests(t *testing.T) {
	for _, w := range workloads() {
		d, err := committedDigest(w.name)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
			t.Errorf("%s: committed digest %q is not a SHA-256", w.name, d)
		}
	}
}
