package rta

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// benchTaskSet is a fixed seeded 160-task set in the shape the holistic
// analysis hands over: four CPUs of 32 preemptable processes each plus
// a bus of 32 non-preemptive messages, about 60% load per resource,
// eight transactions with their own periods and a few unrelated (-1)
// tasks, offsets inside the period and jitters up to a quarter of it.
func benchTaskSet() ([]Task, model.Time) {
	r := rand.New(rand.NewSource(160))
	periods := []model.Time{1000, 2000, 4000}
	transPeriod := make([]model.Time, 8)
	for g := range transPeriod {
		transPeriod[g] = periods[r.Intn(len(periods))]
	}
	const resources, perResource = 5, 32
	tasks := make([]Task, 0, resources*perResource)
	for res := 0; res < resources; res++ {
		for k, prio := range r.Perm(perResource) {
			trans := r.Intn(len(transPeriod))
			t := transPeriod[trans]
			if k%8 == 7 {
				trans = -1
			}
			tasks = append(tasks, Task{
				Resource:      res,
				Priority:      prio,
				C:             t * model.Time(4+r.Intn(33)) / 1000,
				T:             t,
				O:             model.Time(r.Int63n(int64(t))),
				J:             model.Time(r.Int63n(int64(t / 4))),
				Trans:         trans,
				NonPreemptive: res == resources-1,
			})
		}
	}
	for i, b := range Blocking(tasks) {
		if tasks[i].NonPreemptive {
			tasks[i].B = b
		}
	}
	return tasks, 8 * 4000
}

// BenchmarkAnalyzeStable measures one cold AnalyzeStable call on
// benchTaskSet (run it with -benchmem).
func BenchmarkAnalyzeStable(b *testing.B) {
	tasks, horizon := benchTaskSet()
	opt := Options{Horizon: horizon}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := AnalyzeStable(tasks, opt); err != nil {
			b.Fatal(err)
		}
	}
}
