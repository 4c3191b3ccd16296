package gossip

import (
	"math/rand"
	"sort"
	"testing"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

// refMerge is Algorithm 4's merge() + select_recent() over plain slices:
// fold the received entries into a copy of the current ones (freshest
// instance wins, a known summary is never lost, the owner is skipped),
// sort by (Age, Node), keep the first capacity.
func refMerge(owner simnet.NodeID, capacity int, cur, in []Entry) []Entry {
	out := append([]Entry(nil), cur...)
fold:
	for _, e := range in {
		if e.Node == owner {
			continue
		}
		for i := range out {
			if out[i].Node != e.Node {
				continue
			}
			switch {
			case e.Age < out[i].Age:
				if e.Summary == nil {
					e.Summary = out[i].Summary
				}
				out[i] = e
			case out[i].Summary == nil:
				out[i].Summary = e.Summary
			}
			continue fold
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Age != out[j].Age {
			return out[i].Age < out[j].Age
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > capacity {
		out = out[:capacity]
	}
	return out
}

// TestMergeAgainstReference drives the in-place Merge and the operations
// that share its slot array (Insert, Refresh, Remove, DropOlderThan,
// IncrementAges) with random inputs drawn from a node range small enough to
// collide all the time — duplicates inside one received slice, owner
// entries, equal ages, summaries present on either, both or neither side —
// and compares the view with the sorted-slice reference after every step.
// The array past Len() must stay zeroed, or dropped entries would pin their
// summaries.
func TestMergeAgainstReference(t *testing.T) {
	summaries := []*bloom.Filter{nil, nil, bloom.New(64, 2), bloom.New(64, 2), bloom.New(64, 2)}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const owner = 3
		capacity := 1 + rng.Intn(10)
		v := NewView(owner, capacity)
		var model []Entry
		draw := func(n int) []Entry {
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{
					Node:    simnet.NodeID(rng.Intn(16)),
					Age:     rng.Intn(5),
					Summary: summaries[rng.Intn(len(summaries))],
				}
			}
			return es
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				received, extra := draw(rng.Intn(13)), draw(rng.Intn(3))
				keep := append([]Entry(nil), received...)
				v.Merge(received, extra...)
				for i := range keep {
					if received[i] != keep[i] {
						t.Fatalf("seed %d step %d: Merge wrote to its input", seed, step)
					}
				}
				model = refMerge(owner, capacity, model, append(received, extra...))
			case op == 5:
				e := draw(1)[0]
				v.Insert(e)
				model = refMerge(owner, capacity, model, []Entry{e})
			case op == 6:
				e := draw(1)[0]
				v.Refresh(e.Node, e.Summary)
				if e.Node != owner {
					held := false
					for i := range model {
						if model[i].Node == e.Node {
							held = true
							model[i].Age = 0
							if e.Summary != nil {
								model[i].Summary = e.Summary
							}
						}
					}
					if !held {
						model = append(model, Entry{Node: e.Node, Summary: e.Summary})
					}
					model = refMerge(owner, capacity, model, nil)
				}
			case op == 7:
				node := simnet.NodeID(rng.Intn(16))
				v.Remove(release, node)
				for i := range model {
					if model[i].Node == node {
						model = append(model[:i], model[i+1:]...)
						break
					}
				}
			case op == 8:
				limit := 2 + rng.Intn(5)
				v.DropOlderThan(release, limit)
				kept := model[:0]
				for _, e := range model {
					if e.Age < limit {
						kept = append(kept, e)
					}
				}
				model = kept
			default:
				v.IncrementAges()
				for i := range model {
					model[i].Age++
				}
			}
			if err := v.Check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			got := v.Entries()
			if len(got) != len(model) {
				t.Fatalf("seed %d step %d: %d entries, reference has %d\n got %v\nwant %v", seed, step, len(got), len(model), got, model)
			}
			for i := range got {
				if got[i] != model[i] {
					t.Fatalf("seed %d step %d: entry %d is %+v, reference has %+v", seed, step, i, got[i], model[i])
				}
			}
			for i, e := range v.slots[:cap(v.slots)][v.Len():] {
				if e != (slot{}) {
					t.Fatalf("seed %d step %d: backing slot %d past Len() still holds %+v", seed, step, v.Len()+i, e)
				}
			}
		}
	}
}

// A view of any size selects from the stack — a dense prefix of positions
// and, past it, only the displaced ones: same draws, same entries as the
// rng.Perm-style full shuffle prefix the partial Fisher–Yates stands for,
// whether the prefix covers the view (40), stops short of it (90), or the
// draw outgrows the stack array (65, 89).
func TestSelectSubsetOutsizedView(t *testing.T) {
	var v *View
	for _, n := range []int{40, 90} {
		v = NewView(0, 100)
		for i := 1; i <= n; i++ {
			v.Insert(entry(i, i%7))
		}
		all := v.Entries()
		for _, l := range []int{1, 12, 39, 64, 65, 89} {
			if l >= n {
				continue
			}
			got := v.SelectSubsetAppend(rand.New(rand.NewSource(9)), l, nil)

			rng := rand.New(rand.NewSource(9))
			idx := make([]int, v.Len())
			for i := range idx {
				idx[i] = i
			}
			for i := 0; i < l; i++ {
				j := i + rng.Intn(len(idx)-i)
				idx[i], idx[j] = idx[j], idx[i]
			}
			sort.Ints(idx[:l])
			if len(got) != l {
				t.Fatalf("selected %d entries, want %d", len(got), l)
			}
			for i, pos := range idx[:l] {
				if got[i] != all[pos] {
					t.Fatalf("n=%d l=%d: entry %d is %+v, want view position %d (%+v)", n, l, i, got[i], pos, all[pos])
				}
			}
		}
	}
	const l = 12
	rng := rand.New(rand.NewSource(9))
	got := make([]Entry, 0, l)
	if avg := testing.AllocsPerRun(50, func() { got = v.SelectSubsetAppend(rng, l, got[:0]) }); avg != 0 {
		t.Fatalf("outsized view selects with %.1f allocs/op into a sized buffer, want 0", avg)
	}
}
