package main

import (
	"math"
	"sort"
)

// stepAccount is the exactly-once accounting of one repetition.
type stepAccount struct {
	attempted    int // non-empty (customer, step) pairs in the replay
	wrongCount   int // pairs submitted zero times or more than once
	wrongRecords int // pairs submitted once but with a different record count
	unexpected   int // submissions for pairs outside the replay
	unprocessed  int // successful submissions the engine never processed
	failed       int
}

// accountSteps checks that every replay step reached the engine exactly
// once with all its records and that the engine processed every step it
// accepted. expected, counts and recs are indexed by the same slots.
func accountSteps(expected, counts, recs []int32, unexpected int, submitted, processed uint64) stepAccount {
	a := stepAccount{unexpected: unexpected}
	for i, want := range expected {
		switch {
		case want == 0:
			if counts[i] != 0 {
				a.unexpected += int(counts[i])
			}
			continue
		case counts[i] != 1:
			a.wrongCount++
		case recs[i] != want:
			a.wrongRecords++
		}
		a.attempted++
	}
	if submitted > processed {
		a.unprocessed = int(submitted - processed)
	}
	a.failed = a.wrongCount + a.wrongRecords + a.unexpected + a.unprocessed
	return a
}

// failedFrac is the share of attempted steps that failed; 0 when nothing
// was attempted.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// budget is a traced wall time split into named self times.
type budget struct {
	wall  float64
	parts []budgetPart
}

type budgetPart struct {
	name string
	ns   float64
}

func (b *budget) add(name string, ns float64) {
	b.parts = append(b.parts, budgetPart{name, ns})
}

// accounted is the sum of the self times.
func (b *budget) accounted() float64 {
	var sum float64
	for _, p := range b.parts {
		sum += p.ns
	}
	return sum
}

// unaccounted is the wall time no self time covers: self times plus
// unaccounted equal the wall time by construction.
func (b *budget) unaccounted() float64 { return b.wall - b.accounted() }

// share returns a part's fraction of the wall time (0 for an unknown
// part or an empty budget).
func (b *budget) share(name string) float64 {
	if b.wall <= 0 {
		return 0
	}
	var ns float64
	for _, p := range b.parts {
		if p.name == name {
			ns += p.ns
		}
	}
	return ns / b.wall
}

// overheadFrac compares the traced serial pass's CPU per step with the
// untraced concurrent run's: 0.05 means tracing costs 5% more CPU per
// step. Negative values mean the serial pass skipped more concurrent
// serving work (mailboxes, fallback detector) than tracing added.
func overheadFrac(tracedCPUPerStep, untracedCPUPerStep float64) float64 {
	if untracedCPUPerStep <= 0 {
		return 0
	}
	return tracedCPUPerStep/untracedCPUPerStep - 1
}
