package kpn

import (
	"math/rand"
	"reflect"
	"sync/atomic"
)

// randSlots is the number of seed templates NewRand keeps. The slot of
// a seed below 65536 is the seed modulo randSlots. The paper apps draw
// from 22 small seeds that take 21 distinct slots here (h264's 36 and
// mjpeg's 100 share one), so a warm campaign op seeds at most once.
// Each template holds one math/rand source (4.9 KB), so the table
// retains at most 312 KB however many distinct seeds a workload draws
// (generated networks draw a fresh seed per stage); 128 slots doubled
// that and raised the generated-network fleet's peak RSS by about 7%.
const randSlots = 64

// randTemplate is one seeded source, never drawn from after it is
// published: NewRand copies its state into every source it hands out.
type randTemplate struct {
	seed int64
	src  reflect.Value // addressable source state (the pointee of rand.NewSource's result)
}

var (
	// randTable is a direct-mapped cache of seed templates; a seed that
	// maps to an occupied slot replaces its template.
	randTable [randSlots]atomic.Pointer[randTemplate]
	// randSourceType is the pointee type of rand.NewSource's result, or
	// nil when its state cannot be copied by value, which turns the
	// template table off.
	randSourceType = copyableSourceType()
)

// copyableSourceType returns the struct type behind rand.NewSource's
// pointer result when a plain value copy of it is an independent source:
// a struct of integers and integer arrays only, with no pointer, slice
// or map that two copies would share.
func copyableSourceType() reflect.Type {
	t := reflect.TypeOf(rand.NewSource(1))
	if t.Kind() != reflect.Pointer || !plainData(t.Elem()) {
		return nil
	}
	return t.Elem()
}

// plainData reports whether values of t hold only integers.
func plainData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	case reflect.Array:
		return plainData(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !plainData(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// randSlot returns the table slot of seed: the seed itself, folded, so
// seeds below 65536 map to seed mod randSlots.
func randSlot(seed int64) *atomic.Pointer[randTemplate] {
	h := uint64(seed)
	h ^= h >> 32
	h ^= h >> 16
	return &randTable[h%randSlots]
}

// NewRand returns rand.New(rand.NewSource(seed)): a source in the state
// a fresh seeding leaves it, so every draw is bit-identical. Stage and
// pacer seeds repeat run after run, and seeding (a 607-word feedback
// register filled by 780 LCG steps per word) costs about six times
// copying a seeded state, so NewRand copies the state of a template
// seeded once and kept in a bounded, process-wide table. NewRand is
// safe for concurrent use; like any math/rand source, the one it
// returns is not.
func NewRand(seed int64) *rand.Rand {
	if randSourceType == nil {
		return rand.New(rand.NewSource(seed))
	}
	slot := randSlot(seed)
	tmpl := slot.Load()
	if tmpl == nil || tmpl.seed != seed {
		tmpl = &randTemplate{seed: seed, src: reflect.ValueOf(rand.NewSource(seed)).Elem()}
		slot.Store(tmpl)
	}
	src := reflect.New(randSourceType)
	src.Elem().Set(tmpl.src)
	return rand.New(src.Interface().(rand.Source))
}
