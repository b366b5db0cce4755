package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/simrand"
)

// TestMovementConservation: every agreed domain lands in exactly one cell
// of the movement matrix, for arbitrary lists and bucketers.
func TestMovementConservation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		src := simrand.New(seed)
		n := int(nRaw%60) + 5
		bk := rank.ScaledMagnitudes(n * 10)

		doms := make([]string, n)
		for i := range doms {
			doms[i] = fmt.Sprintf("site%d.com", i)
		}
		agreed := make(map[names.ID]rank.Bucket)
		for _, name := range doms {
			if src.Bernoulli(0.7) {
				agreed[idOf(name)] = rank.Bucket(src.Intn(4))
			}
		}
		// A random sublist as the top list.
		var listNames []string
		for _, name := range doms {
			if src.Bernoulli(0.5) {
				listNames = append(listNames, name)
			}
		}
		list := rank.MustNew(listNames)

		m := ComputeMovement(agreed, list, bk)
		total := 0
		for a := 0; a < rank.NumBuckets; a++ {
			for b := 0; b < rank.NumBuckets; b++ {
				if m.Matrix[a][b] < 0 {
					return false
				}
				total += m.Matrix[a][b]
			}
		}
		return total == len(agreed)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverrankBounds: the overrank percentages always lie in [0, 100] and
// the 2-magnitude share never exceeds the 1-magnitude share.
func TestOverrankBounds(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		src := simrand.New(seed)
		n := int(nRaw%80) + 10
		bk := rank.ScaledMagnitudes(n * 20)

		agreed := make(map[names.ID]rank.Bucket)
		var listNames []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d.net", i)
			listNames = append(listNames, name)
			if src.Bernoulli(0.8) {
				agreed[idOf(name)] = rank.Bucket(src.Intn(4))
			}
		}
		list := rank.MustNew(listNames)
		for idx := 0; idx < 2; idx++ {
			st := ComputeOverrank(agreed, list, bk, idx)
			if st.OverrankedPct < 0 || st.OverrankedPct > 100 {
				return false
			}
			if st.Overranked2Pct < 0 || st.Overranked2Pct > st.OverrankedPct {
				return false
			}
			if st.N < 0 || st.N > len(agreed) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAgreedBucketsSubsetProperty: the agreed set is always a subset of the
// intersection of both metric lists, and every assigned bucket matches the
// first list's own bucketing.
func TestAgreedBucketsSubsetProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		src := simrand.New(seed)
		n := int(nRaw%50) + 10
		bk := rank.ScaledMagnitudes(n)

		doms := make([]string, n)
		for i := range doms {
			doms[i] = fmt.Sprintf("d%d.org", i)
		}
		perm1 := src.Perm(n)
		perm2 := src.Perm(n)
		l1 := make([]string, n)
		l2 := make([]string, 0, n)
		for i, p := range perm1 {
			l1[i] = doms[p]
		}
		for _, p := range perm2 {
			if src.Bernoulli(0.8) {
				l2 = append(l2, doms[p])
			}
		}
		m1 := rank.MustNew(l1)
		m3 := rank.MustNew(l2)
		agreed := AgreedBuckets(m1, m3, bk)
		for id, b := range agreed {
			r1, ok1 := m1.RankOfID(id)
			r3, ok3 := m3.RankOfID(id)
			if !ok1 || !ok3 {
				return false
			}
			if bk.BucketOf(r1) != b || bk.BucketOf(r3) != b {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStudyKDefaults(t *testing.T) {
	s := getStudy(t)
	if s.EvalK() != s.Bucketer.Magnitudes[2] {
		t.Errorf("EvalK = %d", s.EvalK())
	}
	if s.SpearmanK() != s.Bucketer.Magnitudes[3] {
		t.Errorf("SpearmanK = %d", s.SpearmanK())
	}
}
