package rta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// fuzzTaskBytes is the number of input bytes one fuzzed task consumes.
const fuzzTaskBytes = 7

// decodeTaskSet turns fuzz bytes into a valid task set and a horizon,
// plus a copy with pointwise smaller jitters to take Pass1Warm from.
// The first byte picks the resource count (1-4) and a generous or tight
// horizon; every following fuzzTaskBytes bytes describe one task (at
// most 64): resource, priority key, C, period, offset, jitter and a byte
// that packs the transaction (shared 0/1, distinct or -1), the
// preemption flag and the copy's share of the jitter.
func decodeTaskSet(data []byte) (tasks, smaller []Task, horizon model.Time) {
	if len(data) == 0 {
		return nil, nil, 1
	}
	resources := 1 + int(data[0]%4)
	// Generous is a hundred of the longest periods: the fixed point of
	// a resource at full load grows by a few ticks per iteration, so a
	// larger horizon only makes such inputs slow.
	horizon = 16000
	if data[0]&0x80 != 0 {
		horizon = 100 + 8*model.Time(data[0]&0x7f)
	}
	data = data[1:]
	n := min(len(data)/fuzzTaskBytes, 64)
	tasks = make([]Task, n)
	smallerJ := make([]model.Time, n)
	for i := range tasks {
		b := data[i*fuzzTaskBytes : (i+1)*fuzzTaskBytes]
		t := 20 * model.Time(1+b[3]%8)
		var trans int
		switch k := b[6] % 4; k {
		case 0, 1:
			trans = int(k)
		case 2:
			trans = 2 + i // a transaction of its own
		default:
			trans = -1
		}
		j := model.Time(b[5]) % (t / 2)
		tasks[i] = Task{
			Name:          fmt.Sprintf("t%d", i),
			Resource:      int(b[0]) % resources,
			Priority:      int(b[1])*64 + i, // unique: i is
			C:             1 + model.Time(b[2]%16),
			T:             t,
			O:             model.Time(b[4]) % (2 * t),
			J:             j,
			Trans:         trans,
			NonPreemptive: b[6]&0x04 != 0,
		}
		smallerJ[i] = j * model.Time(b[6]>>3) / 31
	}
	for i, b := range Blocking(tasks) {
		if tasks[i].NonPreemptive {
			tasks[i].B = b
		}
	}
	smaller = slices.Clone(tasks)
	for i := range smaller {
		smaller[i].J = smallerJ[i]
	}
	return tasks, smaller, horizon
}

// FuzzRTAKernel pins AnalyzeStable to analyzeReference on decoded task
// sets: the same results, stability flag and first-pass delays for a
// cold run and for a Pass1Warm run seeded from a copy with pointwise
// smaller jitters, the latter with the self-check armed (which also
// re-verifies every skipped task).
func FuzzRTAKernel(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x81, 0, 1, 5, 3, 10, 4, 0, 0, 2, 7, 3, 90, 2, 4})
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+fuzzTaskBytes*(8+r.Intn(57)))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, smaller, horizon := decodeTaskSet(data)
		_, _, warm, err := AnalyzeStable(smaller, Options{Horizon: horizon})
		if err != nil {
			t.Fatalf("smaller jitters: %v", err)
		}
		requireReference(t, "cold", tasks, Options{Horizon: horizon})
		requireReference(t, "warm", tasks, Options{Horizon: horizon, Pass1Warm: warm, SelfCheck: true})
	})
}
