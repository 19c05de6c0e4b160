package caching

import (
	"reflect"
	"testing"
	"unsafe"

	"dpa/internal/core"
	"dpa/internal/gptr"
)

// TestThreadRecordBudgets pins the caching runtime's thread record (64-bit
// platforms), which the ready queue and every waiter list hold one of per
// outstanding thread, so a field added without repacking shows here first.
func TestThreadRecordBudgets(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout budgets are calibrated for 64-bit platforms")
	}
	for _, c := range []struct {
		name   string
		size   uintptr
		budget uintptr
	}{
		// The global pointer (two int32), two frame words, the template
		// index (int32) and the remote flag sharing the last word.
		{"caching.thread", unsafe.Sizeof(thread{}), 32},
	} {
		t.Logf("%s = %d bytes (budget %d)", c.name, c.size, c.budget)
		if c.size > c.budget {
			t.Errorf("%s grew to %d bytes, over its %d-byte budget; repack or re-justify",
				c.name, c.size, c.budget)
		}
	}
}

// TestThreadRecordsHoldNoPointers: the thread record, ready or waiting, holds
// nothing the collector follows. A thread carries its object's pointer, never
// the object or a closure, so the ready queue and the waiter lists are never
// scanned.
func TestThreadRecordsHoldNoPointers(t *testing.T) {
	var pointerFree func(ty reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Uint64:
			return true
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false // every other kind this package could add is suspect
	}
	ready, waiters := reflect.TypeOf(RT{}.ready), reflect.TypeOf(RT{}.waitersFor)
	for _, ty := range []reflect.Type{ready.Elem(), waiters.Key(), waiters.Elem().Elem()} {
		if !pointerFree(ty) {
			t.Errorf("%v holds a pointer: the collector scans every queued thread", ty)
		}
	}
	// The walk itself must know a pointer when it sees one.
	for _, ty := range []reflect.Type{reflect.TypeOf(core.Thread(nil)),
		reflect.TypeOf(struct{ o gptr.Object }{}), reflect.TypeOf(struct{ p *int }{})} {
		if pointerFree(ty) {
			t.Errorf("the walk calls %v pointer-free", ty)
		}
	}
}
